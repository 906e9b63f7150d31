import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
import sys
from collections import Counter, deque
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from linecayley import autgroup
from linecayley.autgroup import (
    _Cells,
    _ScalarOrbits,
    _Search,
    _Vertices,
    _counts_from_ids,
    _linear_group,
    _preserves_neighbors,
    automorphism_group,
    dichotomy_check,
    is_automorphism,
    refine,
)
from linecayley.cayley import (
    ConnectionSet,
    build_graph,
    sample_connection_set,
)
from linecayley.coloring import coset_coloring, exact_chromatic_number, plus_zero_recolor
from linecayley.distinguishing import chi_D_upper_certificate, is_distinguishing
from linecayley.errors import BudgetExceeded
from linecayley.field import (
    affine_ids,
    decode,
    is_scalar_matrix,
    mat_apply,
    transvection,
    vec_scale,
)
from linecayley.geometry import line_universe
from linecayley.permgroup import (
    PermGroup,
    compose,
    fixing_subgroup_of_partition,
    inverse_perm,
    orbit_count,
    scalar_affine_group,
)
from oracles import (
    brute_force_automorphisms,
    brute_preserves_edges,
    edge_set,
    enumerate_gl,
    fixed_line_count_eigen,
    fixed_line_count_scan,
    line_orbit_count,
    linear_maps_fixing_connection,
    linear_perm,
    linear_witness,
    planted_homology_connection,
    preserves_line_universe,
    rank,
    reference_individualized_cells,
    sorting_refine,
    vec_add,
)


def test_is_automorphism():
    s = ConnectionSet(3, 2, [(0, 1)])
    g = build_graph(s)
    assert is_automorphism(g, affine_ids(3, 2, 1, (1, 2)))
    swap = list(range(9))
    swap[0], swap[1] = 1, 0
    assert not is_automorphism(g, tuple(swap))
    # S is every line off H = {x[2] = 0}, and p adds e_0 on H and fixes the
    # rest: an automorphism that is not affine
    g = build_graph(ConnectionSet(3, 3, [l for l in line_universe(3, 3) if l[2] != 0]))
    p = tuple(3 * (v // 3) + (v + 1) % 3 if v < 9 else v for v in range(27))
    assert is_automorphism(g, p) and brute_preserves_edges(g, p)


def test_is_automorphism_needs_a_permutation():
    # on the empty S every map sends v + S = {} onto p(v) + S
    g = build_graph(ConnectionSet(3, 2, []))
    assert not is_automorphism(g, (0,) * 9)
    assert not is_automorphism(g, tuple(range(8)))
    assert not is_automorphism(g, tuple(range(10)))
    assert is_automorphism(g, tuple(range(9)))
    g = build_graph(ConnectionSet(3, 2, [(0, 1)]))
    assert not is_automorphism(g, (*range(8), 0))
    assert not is_automorphism(g, tuple(range(8)))


# the instances of the leaf-check tests, keyed by (q, n): planted (5,4) is
# in case (ii), fixed by the homology diag(-1, 1, ..., 1)
_LEAF_CASES = {
    (3, 3): lambda: sample_connection_set(3, 3, 0.5, 1),
    (5, 3): lambda: sample_connection_set(5, 3, 0.5, 1),
    (5, 4): lambda: planted_homology_connection(5, 4, 1),
}


@functools.lru_cache(maxsize=None)
def _leaf_graph(q, n):
    """The graph of the case and its edge set, built once."""
    g = build_graph(_LEAF_CASES[q, n]())
    return g, edge_set(g)


@st.composite
def _affine_maps(draw):
    """(q, n, A, p): a case and the map p: x -> Ax + b with A in GL(n, q),
    half the time λ times a power of the homology, which fixes the planted
    S, else any invertible A, which rarely fixes S."""
    q, n = draw(st.sampled_from(sorted(_LEAF_CASES)))
    if draw(st.booleans()):
        lam = draw(st.integers(1, q - 1))
        first = lam * (-1) ** draw(st.integers(0, 1)) % q
        m = tuple(tuple((first if i == 0 else lam) * (i == j) for j in range(n)) for i in range(n))
    else:
        entries = st.integers(0, q - 1)
        m = draw(st.tuples(*[st.tuples(*[entries] * n)] * n))
        if rank(m, q) < n:
            reject()
    b = draw(st.tuples(*[st.integers(0, q - 1)] * n))
    return q, n, m, compose(tuple(affine_ids(q, n, 1, b)), linear_perm(q, n, m))


@settings(max_examples=20, deadline=None)
@given(_affine_maps())
def test_leaf_check_on_affine_maps(drawn):
    # the answer is A·S = S
    q, n, m, p = drawn
    g, edges = _leaf_graph(q, n)
    members = g.connection.members
    fixes = all(mat_apply(m, v, q) in members for v in members)
    assert is_automorphism(g, p) == brute_preserves_edges(g, p, edges) == fixes


@settings(max_examples=20, deadline=None)
@given(_affine_maps(), st.data())
def test_leaf_check_on_affine_maps_with_a_transposition(drawn, data):
    # swapping two vertices first makes p no automorphism, and the check
    # compares neighbourhoods in id order until the first that p does not
    # preserve
    q, n, _, affine = drawn
    g, edges = _leaf_graph(q, n)
    u, v = data.draw(st.lists(st.integers(0, q ** n - 1), min_size=2, max_size=2, unique=True))
    swap = list(range(q ** n))
    swap[u], swap[v] = v, u
    p = compose(affine, tuple(swap))
    first = next(
        x for x in range(q ** n) if {p[y] for y in g.neighbor_ids(x)} != set(g.neighbor_ids(p[x]))
    )
    assert _preserves_neighbors(g.neighbor_ids, p) == (False, first + 1)
    assert not is_automorphism(g, p)
    assert not brute_preserves_edges(g, p, edges)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(_LEAF_CASES)), st.randoms(use_true_random=False))
def test_leaf_check_on_random_permutations(case, rng):
    g, edges = _leaf_graph(*case)
    p = list(range(g.num_vertices))
    rng.shuffle(p)
    assert is_automorphism(g, p) == brute_preserves_edges(g, p, edges)


def test_leaf_check_on_pool_generators_and_leaves(monkeypatch):
    # every leaf the search checks at (3,3), p = 0.75, seeds 0-19: G_0 keeps
    # 1 of the 44 with no neighbourhood compared, and brute force finds it
    # an automorphism; the other 43 are compared on all 27 vertices.
    # is_automorphism passes every generator of the pool, where brute force
    # agrees.  Seeds 3 and 11-14 miss one line, and seeds 8-10 and 19 are
    # seven-line cones: automorphism_group writes their group down from R's,
    # checking no leaf of G (R's leaves, where R is searched, are left out of
    # the tally); the tally is of the search, run there by _search_group,
    # and the written pool is checked too
    leaf = _Search._leaf
    kept_by_linear = []
    routes = Counter()

    def routed(search, lab):
        counts = search.vertices.counts
        before = counts["leaf_vertices"]
        p = leaf(search, lab)
        compared = counts["leaf_vertices"] - before
        if compared:
            routes[p is not None, compared] += 1
        else:
            kept_by_linear.append(p)
            routes["G_0"] += 1
        return p

    monkeypatch.setattr(_Search, "_leaf", routed)
    for seed in range(20):
        g = build_graph(sample_connection_set(3, 3, 0.75, seed))
        tally = routes.copy()
        auts = [automorphism_group(g)]
        if g.cone() is not None:
            routes.clear()
            routes.update(tally)
            kept_by_linear.clear()
            auts.append(autgroup._search_group(g, 200000))
        edges = edge_set(g)
        for p in kept_by_linear:
            assert brute_preserves_edges(g, p, edges), seed
        kept_by_linear.clear()
        for p in itertools.chain.from_iterable(aut.pool for aut in auts):
            assert is_automorphism(g, p) and brute_preserves_edges(g, p, edges), seed
    assert routes == {"G_0": 1, (True, 27): 43}


def test_leaf_kept_by_the_linear_group():
    # after stabilize() on planted (5,4), a leaf p = τ_b ∘ M, M a product of
    # G_0's generators or the identity, is kept with no neighbourhood
    # compared.  p composed with a transposition of two points off G_0's
    # base agrees with p on 0 and on the base, so only the last step of
    # G_0's sift refuses it; it is then compared until its first failure
    g = build_graph(planted_homology_connection(5, 4, 1))
    vertices = _Vertices(g.neighbor_ids, g.num_vertices, g.degree)
    search = _Search(
        vertices, list(scalar_affine_group(5, 4).generators), 200000, _ScalarOrbits(g, vertices)
    )
    search.stabilize()
    linear = search.linear
    rng = random.Random(4)
    identity = tuple(range(625))
    m = identity
    for _ in range(6):
        m = compose(rng.choice(linear.generators), m)
    assert m != identity
    translation = tuple(affine_ids(5, 4, 1, decode(rng.randrange(1, 625), 5, 4)))
    u, v = rng.sample([x for x in range(1, 625) if x not in linear.base()], 2)
    swap = list(identity)
    swap[u], swap[v] = v, u
    leftmost = inverse_perm(search._leaf_pos)
    counts = vertices.counts
    for linear_part in (m, identity):
        p = compose(translation, linear_part)
        leaves, compared = counts["leaves"], counts["leaf_vertices"]
        assert search._leaf([p[x] for x in leftmost]) == p
        assert (counts["leaves"], counts["leaf_vertices"]) == (leaves + 1, compared)
        r = compose(p, tuple(swap))
        assert search._leaf([r[x] for x in leftmost]) is None
        assert counts["leaves"] == leaves + 2 and counts["leaf_vertices"] > compared
        assert not is_automorphism(g, r)


def test_leaf_counts_are_pinned():
    # planted (5,4) seed 1 reaches no leaf: its one automorphism beyond K,
    # the homology, is in G_0, which seeds the pool (before that it reached
    # one leaf, an affine one, checked on one vertex); case (i) reaches none
    aut = automorphism_group(build_graph(planted_homology_connection(5, 4, 1)))
    assert (aut.counts["leaves"], aut.counts["leaf_vertices"]) == (0, 0)
    aut = automorphism_group(build_graph(sample_connection_set(5, 4, 0.5, 1)))
    assert (aut.counts["leaves"], aut.counts["leaf_vertices"]) == (0, 0)


def test_seeded_pool_totals_are_pinned():
    # the totals of nodes and of every counter per grid, with G_0's
    # generators in the pool: the completion of each level tries no point
    # that a linear automorphism reaches.  Before G_0 seeded the pool, nodes
    # and leaves were 4,078 and 860, 558 and 52, and 158 and 26.  Before G_0
    # kept the leaves in T ⋊ G_0, which the unit-direction test compared on
    # one vertex each, leaf_vertices and rows were 10,431 and 4,441 on the
    # (3,3) grid, and leaf_vertices 251 on the (5,3) grid; (3,4) reaches no
    # leaf.  41 of the (3,3) seeds miss one line, and product counts them:
    # their group is written down with no search.  While they were searched,
    # the (3,3) grid read nodes 2,475, leaves 457, leaf_vertices 12,096,
    # linear_leaves 726, rows 4,495, splitters 4,986 and splitters_masks 99.
    # 68 more are cones, 10 of five lines and 58 of seven: these totals keep
    # them on the search, _search_group, and cones pins the route's, R's:
    # the five-line R is searched in 4 nodes, the seven-line R has a period
    # and is not.  No (5,3) or (3,4) seed is a cone.  Before the scalar
    # orbits kept their neighbour masks, rows, splitters_direct and
    # splitters_masks read 3,388, 0 and 58 on the (3,3) grid, 3,161, 739 and
    # 264 on the (5,3) grid, and 1,321, 85 and 33 on the (3,4) grid
    grids = {
        (3, 3, 0.75, 200): (1450, dict(
            leaves=252, leaf_vertices=6561, linear_leaves=521, rows=3229, splitters=3428,
            splitters_direct=0, splitters_masks=278, period=336, product=41, cone=0,
        )),
        (5, 3, 0.5, 200): (499, dict(
            leaves=3, leaf_vertices=250, linear_leaves=97, rows=2087, splitters=3282,
            splitters_direct=606, splitters_masks=977, period=200, product=0, cone=0,
        )),
        (3, 4, 0.5, 40): (130, dict(
            leaves=0, leaf_vertices=0, linear_leaves=50, rows=1190, splitters=1192,
            splitters_direct=83, splitters_masks=98, period=40, product=0, cone=0,
        )),
    }
    cones = {
        (3, 3, 0.75, 200): (40, dict(
            leaves=0, leaf_vertices=0, linear_leaves=24, rows=50, splitters=40,
            splitters_direct=0, splitters_masks=0, period=68, product=0, cone=68,
        )),
        (5, 3, 0.5, 200): (0, {}),
        (3, 4, 0.5, 40): (0, {}),
    }
    found, routed = {}, {}
    for q, n, p, count in grids:
        nodes, counts, route_nodes, route_counts = 0, Counter(), 0, Counter()
        for seed in range(count):
            g = build_graph(sample_connection_set(q, n, p, seed))
            aut = automorphism_group(g)
            if aut.counts["cone"]:
                route_nodes += aut.nodes
                route_counts.update(aut.counts)
                aut = autgroup._search_group(g, 200000)
            nodes += aut.nodes
            counts.update(aut.counts)
        found[q, n, p, count] = (nodes, {key: counts[key] for key in aut.counts})
        routed[q, n, p, count] = (route_nodes, dict(route_counts))
    assert found == grids
    assert routed == cones


def test_row_table_matches_rows_built_on_demand(monkeypatch):
    # the search with its neighbourhood table, and with the budget at 0, so
    # that every read builds its row again: the same group, base,
    # generators, nodes and leaf counts.  With the table no row is built
    # twice, and rows counts the rows built either way.  (3,3) and (5,3) are
    # under the budget; planted (5,4), over it, is searched with the table
    # forced on
    cases = [(3, 3, 0.75, seed) for seed in range(1, 31)] + [(5, 3, 0.5, 8)]
    graphs = [(build_graph(sample_connection_set(q, n, p, seed)), False) for q, n, p, seed in cases]
    graphs.append((build_graph(planted_homology_connection(5, 4, 1)), True))
    budget = autgroup.ROW_TABLE_ENTRIES
    rebuilt = 0
    for g, forced in graphs:
        assert (g.num_vertices * g.degree > budget) == forced
        neighbor_ids = g.neighbor_ids
        found = []
        for entries in (10 ** 9 if forced else budget, 0):
            monkeypatch.setattr(autgroup, "ROW_TABLE_ENTRIES", entries)
            built = Counter()

            def counted(v):
                built[v] += 1
                return neighbor_ids(v)

            g.neighbor_ids = counted
            # the search itself: where S has a period, automorphism_group
            # searches G/W, whose rows are not g's
            aut = autgroup._search_group(g, 200000)
            assert aut.counts["rows"] == sum(built.values())
            group = aut.group
            found.append((group.order(), group.base(), group.generators, aut.nodes,
                          aut.counts["leaves"], aut.counts["leaf_vertices"]))
            if entries:
                assert max(built.values()) == 1, (g.q, g.n)
            else:
                rebuilt += max(built.values()) > 1
        assert found[0] == found[1], (g.q, g.n)
    assert rebuilt


def test_committed_planted_set_matches_the_oracle():
    # byte for byte, as json.dumps(d, sort_keys=True) and a newline
    for n in (5, 6):
        d = planted_homology_connection(5, n, 1).to_json_dict()
        path = Path(__file__).with_name(f"planted-5-{n}.json")
        assert path.read_text() == json.dumps(d, sort_keys=True) + "\n", n


def test_solver_matches_brute_on_two_subsets():
    for lines in ([(0, 1)], [(0, 1), (1, 1), (2, 1)]):
        g = build_graph(ConnectionSet(3, 2, lines))
        aut = automorphism_group(g)
        bf = brute_force_automorphisms(g)
        assert aut.complete
        assert aut.group.order() == bf.order() == 1296
        assert all(bf.contains(p) for p in aut.group.generators)
        assert all(aut.group.contains(p) for p in bf.generators)


def test_solver_generators_preserve_edges():
    rng = random.Random(31)
    for _ in range(5):
        s = sample_connection_set(3, 3, 0.5, rng.randrange(10**6))
        g = build_graph(s)
        aut = automorphism_group(g)
        assert aut.complete
        for p in aut.group.generators:
            assert brute_preserves_edges(g, p)


def test_empty_connection_full_symmetric():
    g = build_graph(ConnectionSet(3, 2, []))
    aut = automorphism_group(g)
    assert aut.complete
    assert aut.group.order() == 362880


def test_budget_exhaustion():
    g = build_graph(sample_connection_set(3, 3, 0.5, 8))
    aut = automorphism_group(g, node_budget=1)
    assert not aut.complete
    assert aut.group is None
    assert aut.nodes > 1
    assert len(aut.pool) >= 1
    with pytest.raises(ValueError):
        dichotomy_check(g, aut)


def test_equals_scalar_affine():
    g = build_graph(sample_connection_set(5, 3, 0.5, 42))
    aut = automorphism_group(g)
    assert aut.complete
    assert dichotomy_check(g, aut)["equals_K"]
    assert aut.group.order() == 500


def test_k_always_contained():
    # K's generators are automorphisms, and every complete search keeps its
    # n + 1 generators among the group's own, so the group contains K and
    # dichotomy_check may decide Aut = K by the order alone: on
    # the grid of test_scalar_orbit_shortcut_matches_full_search, in both
    # cases, and on planted (5,4) and (5,5), in case (ii).  The twin group
    # of a graph with a period lists no generator of K, and contains each
    rng = random.Random(4)
    for q, n in ((3, 2), (3, 3), (5, 2)):
        k = scalar_affine_group(q, n)
        for _ in range(3):
            s = sample_connection_set(q, n, 0.5, rng.randrange(10**6))
            g = build_graph(s)
            for p in k.generators:
                assert is_automorphism(g, p)
            aut = automorphism_group(g)
            assert all(aut.group.contains(p) for p in k.generators)
    grid = [(5, 3, 0.2, 30), (5, 3, 0.5, 300), (5, 3, 0.9, 10), (5, 4, 0.75, 20)]
    grid += [(7, 3, 0.75, 30), (3, 4, 0.75, 50), (3, 3, 0.75, 100)]
    connections = (
        sample_connection_set(q, n, p, seed) for q, n, p, count in grid for seed in range(count)
    )
    planted = (planted_homology_connection(q, n, 1) for q, n in ((5, 4), (5, 5)))
    for s in itertools.chain(connections, planted):
        aut = automorphism_group(build_graph(s))
        k = scalar_affine_group(s.q, s.n).generators
        assert aut.complete and len(k) == s.n + 1
        if aut.counts["period"] == 1:
            assert set(k) <= set(aut.group.generators), (s.q, s.n, s.lines)
        else:
            assert all(map(aut.group.contains, k)), (s.q, s.n, s.lines)


def test_orders_match_sympy():
    # an order computed by sympy's own Schreier-Sims, from the generators alone
    combinatorics = pytest.importorskip("sympy.combinatorics")

    def sympy_order(gens):
        perms = [combinatorics.Permutation(list(g)) for g in gens]
        return combinatorics.PermutationGroup(perms).order() if perms else 1

    for q, n, p, seeds in ((3, 2, 0.5, 12), (3, 3, 0.75, 20), (5, 3, 0.5, 30)):
        k = scalar_affine_group(q, n)
        for seed in range(seeds):
            g = build_graph(sample_connection_set(q, n, p, seed))
            aut = automorphism_group(g)
            assert aut.complete
            assert aut.group.order() == sympy_order(aut.group.generators), (q, n, seed)
            assert all(aut.group.contains(x) for x in k.generators)
            if g.connection.lines:
                cert = plus_zero_recolor(coset_coloring(g))
                fix = fixing_subgroup_of_partition(aut.group, cert.class_of)
                assert fix.order() == sympy_order(fix.generators), (q, n, seed)


def test_relabelled_graph_has_conjugate_group():
    # search a randomly relabelled copy with an empty pool; its group, taken
    # back through the relabelling, must be the original graph's
    rng = random.Random(41)
    for q, n in ((3, 3),) * 10 + ((5, 3),) * 10 + ((5, 4),) * 3:
        g = build_graph(sample_connection_set(q, n, 0.5, rng.randrange(10**6)))
        sigma = list(range(g.num_vertices))
        rng.shuffle(sigma)
        sigma_inv = inverse_perm(sigma)

        def relabelled(v):
            return [sigma[u] for u in g.neighbor_ids(sigma_inv[v])]

        vertices = _Vertices(relabelled, g.num_vertices, g.degree)
        search = _Search(vertices, [], 200000)
        search.stabilize()
        group = PermGroup(g.num_vertices, search.base, search.pool)
        assert group.order() == automorphism_group(g).group.order()
        for h in group.generators:
            assert is_automorphism(g, compose(sigma_inv, compose(h, sigma)))


def test_splitter_count_routes_agree(monkeypatch):
    # on the scalar orbits, random unions of nonzero orbits, and {0}, give
    # each live orbit the count of its representative by every route: the
    # kept masks, the stream (MASK_TABLE_BITS at 0), the id route and the
    # direct route, on every nonzero orbit and on random live subsets.
    # The stream counts every nonzero orbit, in orbit order; the id route
    # also counts {0}, a cell of its own, which no split reads
    rng = random.Random(5)
    for q, n in ((3, 3), (5, 3), (5, 4)):
        g = build_graph(sample_connection_set(q, n, 0.5, rng.randrange(10**6)))
        vertices = _Vertices(g.neighbor_ids, g.num_vertices, g.degree)
        kept = _ScalarOrbits(g, vertices)
        monkeypatch.setattr(autgroup, "MASK_TABLE_BITS", 0)
        streamed = _ScalarOrbits(g, vertices)
        monkeypatch.undo()
        assert kept.keep_masks and not streamed.keep_masks
        nonzero = kept.zero
        splitters = [[nonzero]]
        splitters += [rng.sample(range(nonzero), k) for k in (1, 2, 5, nonzero // 4, nonzero // 2, nonzero)]
        for w in splitters:
            vertex_counts = Counter(
                u for x, i in enumerate(kept.orbit_of) if i in w for u in g.neighbor_ids(x)
            )
            want = {i: c for i, r in enumerate(kept.reps[:-1]) if (c := vertex_counts[r])}
            got = streamed.counts_from_masks(w)
            assert got == want and list(got) == sorted(got), (q, n, w)
            assert kept.counts_from_masks(w) == want, (q, n, w)
            got = _counts_from_ids(kept.neighbors, w)
            got.pop(nonzero, None)
            assert got == want, (q, n, w)
            for k in (1, 3, nonzero // 3, nonzero):
                live = set(rng.sample(range(nonzero), k))
                on_live = {i: c for i, c in want.items() if i in live}
                assert kept.counts_from_masks(w, live) == on_live, (q, n, w, live)
                assert kept.counts_direct(w, live) == on_live, (q, n, w, live)
        # the kept masks were read from the stream once, the streamed ones never kept
        assert len(kept._masks) == nonzero and streamed._masks is None


def test_no_mask_table_above_its_bound(monkeypatch):
    # the scalar orbits keep the q^(n-1) low neighbour masks when their
    # q^(n-1)*V bits fit in MASK_TABLE_BITS, as at (5,6), and stream them at
    # every mask count above it, as at (5,7).  The searches find the same
    # group, base, generators, nodes, splitters and leaf counts with the
    # table and with the bound at 0, under which each mask count streams the
    # masks and no table is built; with the table the stream is opened once.
    # Only the routes move, and with them the rows the id route builds
    bits = autgroup.MASK_TABLE_BITS
    assert 5 ** 5 * 5 ** 6 <= bits < 5 ** 6 * 5 ** 7
    graphs = [build_graph(sample_connection_set(q, n, 0.5, seed)) for q, n, seed in
              ((5, 4, 1), (5, 3, 8), (3, 4, 2), (7, 3, 1))]
    graphs.append(build_graph(planted_homology_connection(5, 4, 1)))
    built = []

    class Recorded(_ScalarOrbits):
        def __init__(self, graph, vertices):
            super().__init__(graph, vertices)
            built.append(self)

    monkeypatch.setattr(autgroup, "_ScalarOrbits", Recorded)
    masked = 0
    for g in graphs:
        assert g.q ** (g.n - 1) * g.num_vertices <= bits
        found = []
        for entries in (bits, 0):
            monkeypatch.setattr(autgroup, "MASK_TABLE_BITS", entries)
            opened = []
            stream = g.neighbor_masks
            g.neighbor_masks = lambda: opened.append(1) or stream()
            built.clear()
            aut = autgroup._search_group(g, 200000)
            del g.neighbor_masks
            group, counts = aut.group, aut.counts
            found.append((group.order(), group.base(), group.generators, aut.nodes,
                          [counts[k] for k in ("splitters", "leaves", "leaf_vertices", "linear_leaves")]))
            (orbits,) = built
            masks = counts["splitters_masks"]
            if entries:
                assert orbits.keep_masks and len(opened) == min(masks, 1)
                assert (orbits._masks is None) == (not masks)
            else:
                assert not orbits.keep_masks and orbits._masks is None
                assert len(opened) == masks
        assert found[0] == found[1], (g.q, g.n)
        masked += masks > 1
    assert masked


def test_split_traces_are_pinned():
    # nodes, base and the sha256 of the generators' JSON; any change to a
    # split trace moves at least one of them.  The (5,4) and (3,4) cases
    # were recorded with every splitter counted by the id route, the (5,5)
    # and (5,3) ones when every cell was split by sorting its counts, and
    # the (13,3), (5,6) and (3,2) ones when the refinement after 0 ran on
    # the vertices; at (5,5) and (5,6) it counts N(0) from the masks.
    # (3,4) seed 2 and (5,3) seed 8 are in case (ii), and (3,2) seed 1 has
    # a base of six points.  The p = 0.97 cases, of order 60,000 at (5,4),
    # were recorded when large splitters on the vertices were counted from
    # the masks too, as 25 of (5,4)'s 42 mask splitters were.  The other
    # p = 0.5 cases are in case (i), where the search stops after the
    # refinement after 0, visits 2 nodes and returns K on its own base
    # (0, q^(n-1)); their digests were recorded when it refined the last
    # level too, in 3 nodes, on the base it found there.  The case-(ii)
    # nodes and digests were re-recorded when G_0's generators joined the
    # pool after K's, every base unchanged.  Every case is pinned on the
    # search itself, _search_group, which is automorphism_group's where S
    # has no period and misses more than one line.  At (5,3) and (3,4), p =
    # 0.97, S misses one line, and route pins the group automorphism_group
    # writes down there: K's generators, then the star transpositions, of
    # order 25! 5! and 27! 3!
    k_digest = "ceb449eca216d37655b4811032970a9138ef88168f209cacd9d04d72b0556ce9"
    ii_digest = "8886717af44fd3dc656fedfaded0c6f36ae0f798da18312aa83ce2e1089b069a"
    cases = {
        (5, 4, 0.5, 1): (2, (0, 125), k_digest),
        (5, 4, 0.5, 2): (2, (0, 125), k_digest),
        (5, 4, 0.5, 3): (2, (0, 125), k_digest),
        (3, 4, 0.5, 2): (4, (0, 36, 27), ii_digest),
        (5, 5, 0.5, 1): (2, (0, 625), "30118155f0c868b07cdeaae38666d18fb09749ed1fe6292fccb61636320c18e5"),
        (5, 3, 0.5, 8): (4, (0, 1, 13), "e1619e0c7b50c43466c38fccd1cd4564c8980b30ce8d8d4745534cd7d763a54c"),
        (13, 3, 0.5, 1): (2, (0, 169), "e19341793bdc7a8bbbf50d98ba540fd0b0ed3ad52d32975e153cf6dee9601332"),
        (5, 6, 0.5, 1): (2, (0, 3125), "a400e76b568d2b1bb77ba1c8cd372e0642a6697d4e65d1260d55c182ce705017"),
        (3, 2, 0.5, 1): (
            13, (0, 3, 8, 2, 7, 4), "d07ccc518d1d07ffccaf5293cbc9dc33fa2eecdcd6527c2766c721be21cb8cc0"
        ),
        (5, 4, 0.97, 2): (
            8, (0, 204, 13, 10, 76), "f76271b11261a1279217473dbd12d855d1abb64e03813517ec9c3377aea75bdf"
        ),
        (5, 3, 0.97, 2): (
            308,
            (0, 28, 102, 79, 1, *range(24, 2, -1)),
            "be1f4751d087f5f4d0618524cbc81bf1bc77907c1690a85c17af91cebe34e5e7",
        ),
        (3, 4, 0.97, 2): (
            283,
            (0, 34, 1, *range(26, 2, -1)),
            "06fc36e94d905f4b66f3ec9b1e57862b4fc6c8922798f05b6a72a416d6c8bfbf",
        ),
    }
    route = {
        (5, 3, 0.97, 2): (
            0, (*range(24), 28, 51, 79),
            "7c02823d008a49629971ca07898f5b3e7b0ea831f77e12768f526d7be6f09a08",
        ),
        (3, 4, 0.97, 2): (
            0, (*range(26), 34), "f0eba76a15b8c88e34c76036334d6a438cac41231d21c316ac67f49bb8855418"
        ),
    }
    for pins, searched in ((cases, True), (route, False)):
        for (q, n, p, seed), (nodes, base, digest) in pins.items():
            g = build_graph(sample_connection_set(q, n, p, seed))
            aut = autgroup._search_group(g, 200000) if searched else automorphism_group(g)
            generators = json.dumps([list(x) for x in aut.group.generators]).encode()
            found = (aut.nodes, aut.group.base(), hashlib.sha256(generators).hexdigest())
            assert found == (nodes, base, digest), (q, n, p, seed)


def _refined_child(points, part, s, v, stop):
    """part with v individualized in the cell at s, refined: (child, trace)."""
    child = part.individualized(s, v)
    return child, refine(points, child, deque([s + part.size[s] - 1]), stop)


def _refined_after_zero(scalars):
    """The unit partition with 0 individualized, refined on the scalar
    orbits, of which {0} is the last, to their number of cells."""
    stop = len(scalars.reps)
    return _refined_child(scalars, _Cells.unit(stop), 0, stop - 1, stop)


def test_last_level_traces_are_pinned():
    # the vertex route's refinement of the level after the scalar orbits,
    # down to singletons, which case (ii) and right branches still run:
    # individualize the first vertex of the first cell of the lifted node
    # after 0.  The sha256 of the trace's JSON, recorded when
    # automorphism_group refined this level in case (i) too
    cases = {
        (5, 4, 1): (150, "3ba7f16ff6711dce6e85311e6c4f2f56962e0fd535fb94c84e7f8499e8ebda4e"),
        (5, 4, 2): (213, "6190eedfb364925ba753723ca8b03a61ec8994b13ff97d392e98e8c36bc8790c"),
        (5, 4, 3): (220, "4caaaf3336156dcc2224a057368597ed338568edc6b5519510371e74c94f85c0"),
        (13, 3, 1): (199, "e78d7d3b7e51942449dbb2dc8495f0ad5e6b46d04fd8206e68f5a3e16e5989ad"),
        (5, 5, 1): (1067, "4ec94987c5f5f518de728fa3a959d9f766fdd8a1936e53d5ef914cef48edc832"),
    }
    for (q, n, seed), (first, digest) in cases.items():
        g = build_graph(sample_connection_set(q, n, 0.5, seed))
        vertices = _Vertices(g.neighbor_ids, g.num_vertices, g.degree)
        scalars = _ScalarOrbits(g, vertices)
        node, _ = scalars.lift(*_refined_after_zero(scalars))
        s = node.target()
        v = node.lab[s]
        assert (s, v) == (0, first)
        child, trace = _refined_child(vertices, node, s, v, g.num_vertices)
        assert child.count == g.num_vertices
        assert hashlib.sha256(json.dumps(trace).encode()).hexdigest() == digest, (q, n, seed)


def test_chain_orbits_and_witnesses_are_pinned():
    # the sha256 of the JSON of every level's orbit and of the dichotomy
    # witness, of the search and its chain walk, which automorphism_group and
    # dichotomy_check run on every graph without a period ((3,3) seeds 4
    # and 7 have one; test_twin_chains_are_pinned pins what they give
    # there) and with more than one line missing ((3,3) seed 3 misses one);
    # the chi coloring's class-fixing order and witness of the search, also
    # on three case-(i) instances, where the group is K on its own base
    # (these were recorded when it was K on the base the search found); and
    # the pool a budget leaves when it runs out while the levels are
    # completed (the leftmost path takes 10 nodes), K's generators, G_0's
    # and those found.  Each depends on the order in which every level's
    # BFS meets the generators: the orbits and the pool were re-recorded
    # when G_0's generators joined the pool, and so was the chain walk's
    # witness at seeds 3-5, which now meets another non-scalar map of G_0
    # first; dichotomy_check's witness did not move
    def digest(x):
        return hashlib.sha256(json.dumps(x).encode()).hexdigest()

    cases = {
        (3, 4, 0.5, 2): (
            "c6394a9be17dbb8e44e48c29d079080f3ae0f42257bb3a27d4400341af207ec7",
            "4bfd444b65cb6959796d0ae46b6c8c6e935302bb35ea2dc66673f5f795695a8a",
        ),
        (3, 3, 0.75, 1): (
            "1086b4aff37da9a032cc7d6bba48407fa5c02842fa0e7ae2bcac16f74be30e5d",
            "9822599af4d0691417c1f0b11a04b2399142a189a0202e9d48ddad5dc7ed9fe6",
        ),
        (3, 3, 0.75, 2): (
            "4fa5f5a69574dab29ab67719be0a48d1b12e1016a36d53a891bc30fad08bc0f8",
            "30fd8439a14749584f23340fcaa8042dd80ea5a5b9e6535ec25e217d093c3aec",
        ),
        (3, 3, 0.75, 3): (
            "ca00163ad790b8154056c27b8f28fd052bbd67e16350af1214c6d4179a06c96b",
            "62b104d73f7bf033b25fc374c34fd676be1360a67ffc33888c0fd72024e87ee9",
        ),
        (3, 3, 0.75, 4): (
            "be1e9eccc95820d6150caeae554200b0bc16855f662960139262df26bd180d06",
            "74892212b9f8a55d2ea660ab69066c770b29671ea113a1bc4ad5d4b010111954",
        ),
        (3, 3, 0.75, 5): (
            "bce6c89c5d852387921914cfc906ba1b48d6db3a826cc7c65fe225142f42a3f5",
            "fdca3349837a80324bbd1e807260891430733fd42262d6ef46d15ba1415dc27b",
        ),
        (3, 3, 0.75, 6): (
            "6b7c0e52e11aa7fb531db6e0cbc86c940993856940771e4f3acaa61bed6ef9cc",
            "37a360eb99ab72629ecdfb551a9737f7f91c89b9bba5872fafa845c81ded5d25",
        ),
        (3, 3, 0.75, 7): (
            "cdf985af30c76fbb5a8df3451a4063aba6bb189a6fa00c54aad9233b5bdf90a5",
            "8006e399329d7ad1dbe46b6302935f167a6159452ef7a05ea8705526eb9b2fdd",
        ),
    }
    for (q, n, p, seed), want in cases.items():
        g = build_graph(sample_connection_set(q, n, p, seed))
        aut = autgroup._search_group(g, 200000)
        orbits = [list(aut.group.orbit(k)) for k in range(len(aut.group.base()))]
        found = (digest(orbits), digest(linear_witness(g, aut.group)))
        assert found == want, (q, n, p, seed)
    chi_cases = {
        (3, 3, 0.75, 3): (362880, "0c80a04d6fa4fe9581001fbf593c2c0d1805e30936b55af3d1080e1c698738fe"),
        (5, 3, 0.5, 1): (25, "f61854e0f97e41dad5201c4ad7bd712f2e9f015390850ef6339c6744c2fef5ff"),
        (5, 4, 0.5, 1): (125, "d5dbf5d827651863e93f9a73e97ae4b6637205bb8134e4228eecc43bf2af871e"),
        (7, 3, 0.5, 2): (49, "def66115ab61ade8fb0db04081bde3fbca62205b23718dc90633cf5616110a5d"),
    }
    for (q, n, p, seed), want in chi_cases.items():
        g = build_graph(sample_connection_set(q, n, p, seed))
        aut = autgroup._search_group(g, 200000)
        rep = is_distinguishing(exact_chromatic_number(g).coloring, aut)
        assert (rep.fixing_order, digest(list(rep.witness))) == want, (q, n, p, seed)
    # (3,3), p = 0.75, seed 3 misses one line: on automorphism_group's
    # group, written down with no search, the same order and another witness
    g = build_graph(sample_connection_set(3, 3, 0.75, 3))
    rep = is_distinguishing(exact_chromatic_number(g).coloring, automorphism_group(g))
    assert (rep.fixing_order, digest(list(rep.witness))) == (
        362880, "ade51895358f3728f20f6a69bb58258b2249bf93c723c32b8247cfc407ce7c8c"
    )
    aut = autgroup._search_group(g, 20)
    assert not aut.complete
    assert (len(aut.pool), digest([list(x) for x in aut.pool])) == (
        13,
        "d89c4d56dc227635d7fcfd0153b6cb484508d360880e04cf303a03ab60395a64",
    )


def _cells_after_individualizing(g, v, stop):
    vertices = _Vertices(g.neighbor_ids, g.num_vertices, g.degree)
    child, _ = _refined_child(vertices, _Cells.unit(g.num_vertices), 0, v, stop)
    cells, s = set(), 0
    while s < g.num_vertices:
        cells.add(frozenset(child.lab[s : s + child.size[s]]))
        s += child.size[s]
    return cells


def test_refinement_matches_lockstep_reference():
    # refined to the end, and stopped at the orbit count of K's generators
    # fixing v (the scaling, for v = 0), the cells are the reference's
    cases = [(3, 3, 0.75, seed, None) for seed in range(4)]
    cases += [(5, 3, 0.5, seed, None) for seed in range(3)]
    cases.append((5, 4, 0.5, 1, [0]))
    for q, n, p, seed, points in cases:
        g = build_graph(sample_connection_set(q, n, p, seed))
        k_gens = scalar_affine_group(q, n).generators
        for v in points or range(g.num_vertices):
            want = reference_individualized_cells(g, v)
            known = [x for x in k_gens if x[v] == v]
            for stop in {g.num_vertices, orbit_count(known, g.num_vertices)}:
                assert _cells_after_individualizing(g, v, stop) == want, (q, n, seed, v, stop)


def test_refinement_matches_sorting_reference(monkeypatch):
    # every node automorphism_group refines, leftmost path and right
    # branches alike, is refined on a copy by the reference that sorts every
    # split cell, on the same points: the scalar orbits after 0, the
    # vertices elsewhere.  The trace or None, and a refined node's arrays,
    # agree.  No right node of these instances departs from its trace, so
    # each is also refined against three more traces: one split short,
    # which it stops at and returns, and two it must depart from, with the
    # first split's fragments reversed and with the last split's first
    # count changed.  The queue each call leaves agrees too, and the traces
    # hold every shape of split: one count on part of a cell, every point
    # touched with two counts, and three or more fragments, and a cell of
    # two points, split in place, with one point touched and with two counts
    refined = Counter()
    shapes = Counter()

    def copy(part):
        return _Cells(part.lab[:], part.cell[:], part.size[:], part.count)

    def both(points, part, queue, stop, expected):
        ref, ref_queue = copy(part), deque(queue)
        want = sorting_refine(points, ref, ref_queue, stop, expected)
        got = refine(points, part, queue, stop, expected)
        assert got == want
        if got is not None:
            assert (part.lab, part.cell, part.size, part.count, queue) == (
                ref.lab, ref.cell, ref.size, ref.count, ref_queue
            )
        return got

    def checked(points, part, queue, stop, expected=None):
        if expected:
            short = expected[:-1]
            assert both(points, copy(part), deque(queue), stop, short) == short
            (s, frags), *rest = expected
            *head, (t, ((c, k), *tail)) = expected
            for wrong in ([(s, frags[::-1]), *rest], [*head, (t, ((c + 1, k), *tail))]):
                assert both(points, copy(part), deque(queue), stop, wrong) is None
        refined[type(points), expected is not None] += 1
        trace = both(points, part, queue, stop, expected)
        for _, frags in trace or ():
            # an untouched fragment comes first, at count 0; a cell of two
            # points, split in place, is a shape of its own
            shape = "three or more" if len(frags) > 2 else "two" if frags[0][0] else "one"
            if [k for _, k in frags] == [1, 1]:
                shape = f"two points, {shape}"
            shapes[shape] += 1
        return trace

    monkeypatch.setattr(autgroup, "refine", checked)
    cases = [(3, 3, 0.75, seed) for seed in range(1, 8)]
    cases += [(5, 3, 0.5, seed) for seed in range(1, 9)]
    cases += [(5, 4, 0.5, seed) for seed in range(1, 4)]
    cases.append((3, 4, 0.5, 2))
    for q, n, p, seed in cases:
        # the search itself, also where S has a period (seeds 4 and 7 at (3,3))
        autgroup._search_group(build_graph(sample_connection_set(q, n, p, seed)), 200000)
    assert refined[_ScalarOrbits, False] == len(cases)
    assert refined[_Vertices, False] and refined[_Vertices, True]
    assert all(shapes[shape] for shape in (
        "one", "two", "three or more", "two points, one", "two points, two",
    )), shapes


def test_refine_drops_a_node_whose_queue_empties_short_of_the_trace():
    # an individualized node refined against its own trace returns it, and
    # leaves splitters queued; a fresh copy refined against that trace and
    # one split more makes every split it can, empties its queue with cells
    # to spare, and is dropped
    g = build_graph(sample_connection_set(3, 3, 0.75, 1))
    degree = g.num_vertices
    vertices = _Vertices(g.neighbor_ids, degree, g.degree)
    _, trace = _refined_child(vertices, _Cells.unit(degree), 0, 0, degree)
    node, queue = _Cells.unit(degree).individualized(0, 0), deque([degree - 1])
    assert refine(vertices, node, queue, degree, trace) == trace
    assert queue
    node, queue = _Cells.unit(degree).individualized(0, 0), deque([degree - 1])
    assert refine(vertices, node, queue, degree, [*trace, (0, ((0, 1), (1, 1)))]) is None
    assert not queue and node.count < degree


def _draining_refine(points, part, queue, stop, expected=None):
    """refine as it was before right nodes stopped at their path's last
    split: it drains the queue, then keeps the node only when its whole
    trace is expected."""
    trace = refine(points, part, queue, stop)
    return trace if expected is None or trace == expected else None


def test_right_branch_stop_finds_the_draining_answers(monkeypatch, deadline):
    # a right node stops once it has made every split of its path node's
    # trace; the searches find the same group, base and generators in the
    # same nodes, leaves and leaf comparisons as when every right node
    # drains its queue, and pop fewer splitters
    deadline(30)
    graphs = [build_graph(sample_connection_set(3, 3, 0.75, seed)) for seed in range(1, 31)]
    graphs += [build_graph(sample_connection_set(5, 3, 0.5, seed)) for seed in range(1, 41)]
    graphs.append(build_graph(sample_connection_set(3, 4, 0.5, 2)))
    graphs.append(build_graph(planted_homology_connection(5, 4, 1)))

    def answers(aut):
        g = aut.group
        leaves = aut.counts["leaves"], aut.counts["leaf_vertices"]
        return g.order(), g.base(), g.generators, aut.nodes, *leaves

    got = [automorphism_group(g) for g in graphs]
    monkeypatch.setattr(autgroup, "refine", _draining_refine)
    want = [automorphism_group(g) for g in graphs]
    assert list(map(answers, got)) == list(map(answers, want))
    splitters = [(a.counts["splitters"], b.counts["splitters"]) for a, b in zip(got, want)]
    assert all(a <= b for a, b in splitters)
    assert sum(a for a, _ in splitters) < sum(b for _, b in splitters)


def test_live_points_give_the_multiset_answers(monkeypatch, deadline):
    # the refinement after 0 on the scalar orbits keeps its live points and
    # counts late splitters directly; with keeps_live false, as on the
    # vertices, it counts every splitter by the id or mask route over every
    # point, as it did before.  Both make the same refinements (trace and
    # final lab of every call), nodes, base, generators and splitter count,
    # and the direct route reads no neighbourhood row
    deadline(60)
    grid = [(3, 3, 0.75, seed) for seed in range(1, 11)]
    grid += [(5, 3, 0.5, seed) for seed in range(1, 21)]
    grid += [(q, n, 0.5, seed) for q, n in ((5, 4), (3, 4), (3, 2), (7, 3)) for seed in range(1, 6)]
    grid += [(13, 3, 0.5, 1), (5, 5, 0.5, 1)]
    graphs = [build_graph(sample_connection_set(*case)) for case in grid]
    graphs += [build_graph(planted_homology_connection(q, n, 1)) for q, n in ((3, 4), (5, 3), (5, 4))]

    def run(direct):
        refinements = []

        def logged(points, part, queue, stop, expected=None):
            if not direct:
                points.keeps_live = False
            trace = refine(points, part, queue, stop, expected)
            refinements.append((trace, part.lab[:]))
            return trace

        monkeypatch.setattr(autgroup, "refine", logged)
        found = []
        for g in graphs:
            refinements.clear()
            aut = automorphism_group(g)
            group = aut.group
            answer = [*refinements], aut.nodes, group.base(), group.generators
            found.append((answer, aut.counts))
        return found

    got, want = run(True), run(False)
    assert [answer for answer, _ in got] == [answer for answer, _ in want]
    for (_, new), (_, old) in zip(got, want):
        assert new["splitters"] == old["splitters"]
        assert new["rows"] <= old["rows"]
        assert old["splitters_direct"] == 0
    assert sum(counts["splitters_direct"] for _, counts in got) > len(graphs)


@functools.lru_cache(maxsize=None)
def _scalar_orbits(q, n, seed):
    g = build_graph(sample_connection_set(q, n, 0.5, seed))
    return _ScalarOrbits(g, _Vertices(g.neighbor_ids, g.num_vertices, g.degree))


@st.composite
def _live_and_splitter(draw):
    """Scalar orbits at (5,3) or (5,4), a nonempty set of live nonzero
    orbits, and a splitter: {0}, or a set of nonzero orbits."""
    orbits = _scalar_orbits(*draw(st.sampled_from([(5, 3, 1), (5, 3, 2), (5, 4, 1), (5, 4, 2)])))
    nonzero = st.integers(0, orbits.zero - 1)
    live = draw(st.sets(nonzero, min_size=1, max_size=40))
    if draw(st.booleans()):
        splitter = [orbits.zero]
    else:
        splitter = draw(st.lists(nonzero, min_size=1, max_size=8, unique=True))
    return orbits, live, splitter


@settings(max_examples=100, deadline=None)
@given(_live_and_splitter())
def test_direct_counts_are_the_multiset_counts(drawn):
    # on the live orbits, each orbit's count of #{x in W : x - r_j in S} is
    # its count in the multiset of the splitter's neighbour orbits
    orbits, live, splitter = drawn
    want = _counts_from_ids(orbits.neighbors, splitter)
    assert orbits.counts_direct(splitter, live) == {j: want[j] for j in live if want[j]}


def test_scalar_orbit_route_matches_vertex_route():
    # the unit partition with 0 individualized, refined to the scalar
    # orbits' number of cells on the orbits and lifted, and on the vertices:
    # the same arrays and trace.  p = 0 leaves S empty and p = 1 takes every
    # line; at (5,4) and (5,5) the orbits count N(0) from the masks
    cases = [(3, 2, 0.5), (5, 2, 0.5), (3, 3, 0.75), (3, 3, 1), (5, 3, 0), (5, 3, 0.5)]
    cases += [(5, 4, 0.5), (7, 3, 0.5), (13, 3, 0.5), (5, 5, 0.5)]
    for q, n, p in cases:
        g = build_graph(sample_connection_set(q, n, p, 1))
        vertices = _Vertices(g.neighbor_ids, g.num_vertices, g.degree)
        scalars = _ScalarOrbits(g, vertices)
        stop = len(scalars.reps)
        assert stop == 1 + (g.num_vertices - 1) // (q - 1)
        got, got_trace = scalars.lift(*_refined_after_zero(scalars))
        want, want_trace = _refined_child(vertices, _Cells.unit(g.num_vertices), 0, 0, stop)
        assert (got.lab, got.cell, got.size, got.count) == (
            want.lab, want.cell, want.size, want.count
        ), (q, n, p)
        assert got_trace == want_trace, (q, n, p)


# (q, n, p, seeds) -> (the instances whose refinement after 0 reaches the
# scalar orbits, those with Aut = K): at (5,3) p = 0.5, 4 of the latter stop
# short of the scalar orbits and go on down the vertex route
_SHORTCUT_GRID = {
    (5, 3, 0.2, 30): (2, 2),
    (5, 3, 0.5, 300): (236, 240),
    (5, 3, 0.9, 10): (0, 0),
    (5, 4, 0.75, 20): (20, 20),
    (7, 3, 0.75, 30): (29, 29),
    (3, 4, 0.75, 50): (6, 6),
    (3, 3, 0.75, 100): (0, 0),
}


def test_scalar_orbit_shortcut_matches_full_search():
    # the search stops at 2 nodes when the refinement after 0 reaches the
    # scalar orbits, and returns K itself; the search without them refines
    # every level.  It runs on G itself, also where S has a period, which
    # automorphism_group would send to G/W.  Both give the same order and
    # Aut = K verdict, and the same base wherever the search goes on, and
    # the stop comes only with Aut = K, as _SHORTCUT_GRID counts.  Wherever
    # the search builds G_0, the pool holds G_0's generators, and each group
    # contains every generator of the other, so a seeded map that is not an
    # automorphism would show.  Planted (5,4) and (5,5) are in case (ii):
    # the homology's extra symmetry keeps the refinement after 0 short of
    # the scalar orbits
    grid = _SHORTCUT_GRID
    instances = [
        (key, seed, sample_connection_set(*key[:3], seed)) for key in grid for seed in range(key[3])
    ]
    planted = {("planted", 5, n): planted_homology_connection(5, n, 1) for n in (4, 5)}
    instances += [(key, 1, connection) for key, connection in planted.items()]
    stops, equal_k = Counter(), Counter()
    for key, seed, connection in instances:
        g = build_graph(connection)
        q, n = g.q, g.n
        aut = autgroup._search_group(g, 200000)
        full = _Search(
            _Vertices(g.neighbor_ids, g.num_vertices, g.degree),
            list(scalar_affine_group(q, n).generators), 200000,
        ).stabilize()
        if aut.linear is not None:
            assert set(aut.linear.generators) <= set(aut.pool), (key, seed)
            assert all(map(full.contains, aut.group.generators)), (key, seed)
            assert all(map(aut.group.contains, full.generators)), (key, seed)
        if aut.nodes > 2:
            assert aut.group.base() == full.base(), (key, seed)
        else:
            assert aut.group is scalar_affine_group(q, n), (key, seed)
            assert aut.group.order() == q ** n * (q - 1), (key, seed)
            stops[key] += 1
        assert aut.group.order() == full.order(), (key, seed)
        is_k = dichotomy_check(g, aut)["equals_K"]
        assert is_k == (full.order() == scalar_affine_group(q, n).order()), (key, seed)
        equal_k[key] += is_k
        if key in planted:
            assert aut.nodes > 2 and aut.group.order() == 2 * q ** n * (q - 1), key
            assert dichotomy_check(g, aut)["dichotomy"] == "ii", key
    assert {key: (stops[key], equal_k[key]) for key in grid} == grid


def test_dichotomy_matches_the_chain_walk(deadline):
    # on _SHORTCUT_GRID and planted (5,4) and (5,5), dichotomy_check's
    # verdict is "ii" exactly where the chain walk over Aut finds a
    # non-scalar linear map fixing S (over the search on G itself where S
    # has a period, whose witness is the transvection); every witness is
    # non-scalar, maps S onto S, and is an element of G_0 where the search
    # gives one
    deadline(60)
    graphs = [
        sample_connection_set(q, n, p, seed)
        for q, n, p, count in _SHORTCUT_GRID
        for seed in range(count)
    ]
    graphs += [planted_homology_connection(5, n, 1) for n in (4, 5)]
    verdicts = Counter()
    for connection in graphs:
        g = build_graph(connection)
        q, n, members = g.q, g.n, connection.members
        aut = automorphism_group(g)
        report = dichotomy_check(g, aut)
        search = aut if len(g.period) == 1 else autgroup._search_group(g, 200000)
        want = "i" if report["equals_K"] else "violated"
        if want == "violated" and linear_witness(g, search.group) is not None:
            want = "ii"
        assert report["dichotomy"] == want, (q, n, connection.lines)
        verdicts[want] += 1
        if want == "ii":
            m = tuple(map(tuple, report["witness"]))
            assert not is_scalar_matrix(m)
            assert {mat_apply(m, v, q) for v in members} == members
            if aut.linear is not None:
                assert aut.linear.contains(linear_perm(q, n, m))
    assert verdicts == {"i": 297, "ii": 245}


def test_dichotomy_witness_skips_scalar_generators():
    # the witness is G_0's first generator that is not scalar: with x -> 2x
    # put first among G_0's generators at (5,3) seed 8, it is unchanged
    g = build_graph(sample_connection_set(5, 3, 0.5, 8))
    aut = automorphism_group(g)
    want = dichotomy_check(g, aut)
    scaling = affine_ids(5, 3, 2, (0, 0, 0))
    doubled = PermGroup(g.num_vertices, aut.linear.base(), [scaling, *aut.linear.generators])
    got = dichotomy_check(g, dataclasses.replace(aut, linear=doubled))
    assert got == want and want["witness"] == [[1, 0, 4], [0, 4, 0], [0, 0, 4]]


def _level_after_zero(g):
    """(vertices, scalars, node, s, b1): the lifted node after 0, the start
    of its target cell and that cell's first point, the search's first
    vertex level; None when the refinement after 0 ends at the scalar
    orbits."""
    vertices = _Vertices(g.neighbor_ids, g.num_vertices, g.degree)
    scalars = _ScalarOrbits(g, vertices)
    part, trace = _refined_after_zero(scalars)
    if part.count == len(scalars.reps):
        return None
    node, _ = scalars.lift(part, trace)
    s = node.target()
    return vertices, scalars, node, s, node.lab[s]


def test_linear_stop_keeps_the_level_after_zero(deadline):
    # the level after 0, refined until it has as many cells as G_0's
    # stabilizer of b1 has orbits, read off the generators of G_0 that fix
    # b1, has the lab, cells, sizes and trace it has refined until its queue
    # is empty: a stop below that count would end it short of a split.  The
    # stop is never below the final count, and it is that count below V, so
    # it ends the level early, on the pinned number of instances: a group
    # short of a generator would have more orbits.  (5,3) seed 8, (3,4) seed
    # 2 and planted (5,4) are in case (ii)
    deadline(60)
    graphs = {("p", 5, 3, seed): sample_connection_set(5, 3, 0.5, seed) for seed in range(300)}
    graphs["p", 3, 4, 2] = sample_connection_set(3, 4, 0.5, 2)
    graphs["planted", 5, 4, 1] = planted_homology_connection(5, 4, 1)
    reached = []
    fired = []
    for case, connection in graphs.items():
        g = build_graph(connection)
        if (found := _level_after_zero(g)) is None:
            continue
        vertices, scalars, node, s, b1 = found
        linear = _linear_group(scalars, node)
        assert linear.base()[0] == b1, case
        stop = orbit_count([p for p in linear.generators if p[b1] == b1], g.num_vertices)
        want, want_trace = _refined_child(vertices, node, s, b1, g.num_vertices)
        got, got_trace = _refined_child(vertices, node, s, b1, stop)
        assert (got.lab, got.cell, got.size, got_trace) == (
            want.lab, want.cell, want.size, want_trace
        ), case
        assert stop >= want.count, case
        reached.append(case)
        if stop == want.count < g.num_vertices:
            fired.append(case)
    assert {("p", 5, 3, 8), ("p", 3, 4, 2), ("planted", 5, 4, 1)} <= set(fired)
    assert (len(reached), len(fired)) == (66, 62)


def _is_affine(g, p):
    """Whether p, a permutation of the vertex ids of g, is x -> Ax + p(0),
    A's columns being p(e_j) - p(0)."""
    q, n = g.q, g.n
    zero = decode(p[0], q, n)
    columns = [vec_add(decode(p[q**j], q, n), vec_scale(q - 1, zero, q), q) for j in range(n)]
    linear = linear_perm(q, n, tuple(zip(*columns)))
    return list(map(affine_ids(q, n, 1, zero).__getitem__, linear)) == list(p)


def test_linear_group_is_every_linear_map_fixing_s():
    # each generator of G_0 is a linear automorphism; G_0 has the order of
    # the GL(3, 3) scan's matrices fixing S, and the generators that fix b1,
    # strong on the rest of the base, span a group of the order of those
    # that also fix b1, so no map is missed, also where S has a period
    # (seeds 4 and 7)
    for seed in range(1, 9):
        g = build_graph(sample_connection_set(3, 3, 0.75, seed))
        vertices, scalars, node, _, b1 = _level_after_zero(g)
        group = _linear_group(scalars, node)
        assert group.base()[0] == b1, seed
        for p in group.generators:
            assert is_automorphism(g, p) and p[0] == 0 and _is_affine(g, p), seed
        scan = linear_maps_fixing_connection(g.connection)
        assert group.order() == len(scan), seed
        fixing = [p for p in group.generators if p[b1] == b1]
        stabilizer = PermGroup(g.num_vertices, group.base()[1:], fixing)
        point = decode(b1, 3, 3)
        assert stabilizer.order() == sum(mat_apply(m, point, 3) == point for m in scan), seed
    # at (5,3) and planted (5,4), against is_automorphism alone
    for connection in (
        *(sample_connection_set(5, 3, 0.5, seed) for seed in (8, 10, 13)),
        planted_homology_connection(5, 4, 1),
    ):
        g = build_graph(connection)
        vertices, scalars, node, _, b1 = _level_after_zero(g)
        group = _linear_group(scalars, node)
        assert any(p[b1] == b1 for p in group.generators)
        for p in group.generators:
            assert is_automorphism(g, p) and p[0] == 0 and _is_affine(g, p)


def test_translations_and_linear_group_are_aut_where_aut_is_affine(deadline):
    # Aut holds T ⋊ G_0, of order q^n |G_0|, and is that group exactly when
    # every generator of Aut is affine; else q^n |G_0| is a proper divisor
    # of |Aut|, as at (5,3) seed 10, where |G_0| = 16 and |Aut| / q^n = 96.
    # The search runs on G itself, also where S has a period.  Per case and
    # whether Aut is affine, the instances whose search goes past the
    # refinement after 0; no sampled (5,4) instance does
    deadline(60)
    graphs = {
        ("p", q, n, seed): sample_connection_set(q, n, 0.5, seed)
        for q, n, count in ((5, 3, 100), (3, 4, 40), (5, 4, 20))
        for seed in range(count)
    }
    graphs.update({("planted", 5, n): planted_homology_connection(5, n, 1) for n in (4, 5)})
    found = Counter()
    for case, connection in graphs.items():
        g = build_graph(connection)
        aut = autgroup._search_group(g, 200000)
        if aut.linear is None:
            continue
        affine = all(_is_affine(g, p) for p in aut.group.generators)
        order, part = aut.group.order(), g.num_vertices * aut.linear.order()
        assert order == part if affine else order % part == 0 and order > part, case
        if case == ("p", 5, 3, 10):
            assert (aut.linear.order(), order // g.num_vertices) == (16, 96)
        found[case[:3], affine] += 1
    assert found == {
        (("p", 5, 3), True): 17,
        (("p", 5, 3), False): 1,
        (("p", 3, 4), True): 24,
        (("planted", 5, 4), True): 1,
        (("planted", 5, 5), True): 1,
    }


def test_a_group_that_is_not_affine_is_unchanged():
    # (5,3) seed 10: Aut has order 12,000 and generators that are not
    # affine, so holds more than the linear maps; the level after 0 still
    # stops at the orbits of G_0's stabilizer of its base point, and the
    # order and base are the ones recorded before it did, with the witness
    # G_0 gives.  The nodes and the sha256 of the generators' JSON were
    # re-recorded when G_0's generators joined the pool: 12 nodes became 9
    g = build_graph(sample_connection_set(5, 3, 0.5, 10))
    aut = automorphism_group(g)
    assert not all(_is_affine(g, p) for p in aut.group.generators)
    generators = json.dumps([list(p) for p in aut.group.generators]).encode()
    assert (aut.group.order(), aut.nodes, aut.group.base()) == (12000, 9, (0, 29, 26, 45, 44))
    assert hashlib.sha256(generators).hexdigest() == (
        "c66eb9103fa880966c3f7dd30283a694a6ab997ed5706ad6f3936b67252c9daf"
    )
    assert dichotomy_check(g, aut)["witness"] == [[0, 2, 4], [4, 3, 4], [0, 0, 1]]
    assert aut.counts["linear_leaves"] > 0


def test_search_needs_no_raised_recursion_limit():
    # the empty (5,3) graph has Aut = Sym(125) and a base of 124 points
    g = build_graph(ConnectionSet(5, 3, []))
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        aut = automorphism_group(g)
        assert sys.getrecursionlimit() == 200
    finally:
        sys.setrecursionlimit(previous)
    assert aut.complete
    assert aut.group.order() == math.factorial(125)


def test_fixed_line_counts_examples():
    u = line_universe(3, 2)
    diag = ((2, 0), (0, 1))
    assert fixed_line_count_scan(diag, u) == 1
    assert fixed_line_count_eigen(diag, 3, 2) == 1
    comp = ((0, 2), (1, 0))
    assert fixed_line_count_scan(comp, u) == 0
    assert fixed_line_count_eigen(comp, 3, 2) == 0
    ident = ((1, 0), (0, 1))
    assert fixed_line_count_scan(ident, u) == 3
    with pytest.raises(ValueError):
        fixed_line_count_scan(((1, 1), (1, 1)), u)


def test_scan_equals_eigen_gl23():
    u = line_universe(3, 2)
    for m in enumerate_gl(3, 2):
        assert fixed_line_count_scan(m, u) == fixed_line_count_eigen(m, 3, 2)


def test_preserves_line_universe():
    assert preserves_line_universe(((1, 1), (0, 1)), 3, 2)
    assert not preserves_line_universe(((0, 1), (1, 0)), 3, 2)
    u = line_universe(3, 2)
    with pytest.raises(ValueError):
        line_orbit_count(((0, 1), (1, 0)), u)


def test_orbit_counts():
    u = line_universe(3, 2)
    ident = ((1, 0), (0, 1))
    assert line_orbit_count(ident, u) == 3


def test_orbit_bound_for_preservers():
    u = line_universe(3, 2)
    for m in enumerate_gl(3, 2):
        if is_scalar_matrix(m) or not preserves_line_universe(m, 3, 2):
            continue
        n_phi = line_orbit_count(m, u)
        f_phi = fixed_line_count_scan(m, u)
        assert 2 * n_phi <= f_phi + len(u)


def test_dichotomy_equals_k():
    g = build_graph(sample_connection_set(5, 3, 0.5, 42))
    aut = automorphism_group(g)
    rep = dichotomy_check(g, aut)
    assert rep == {"equals_K": True, "dichotomy": "i", "witness": None}
    assert aut.group.order() == 500
    assert aut.complete is True


def test_dichotomy_witness():
    s = ConnectionSet(3, 2, [(0, 1), (1, 1), (2, 1)])
    g = build_graph(s)
    aut = automorphism_group(g)
    rep = dichotomy_check(g, aut)
    assert rep["equals_K"] is False
    assert rep["dichotomy"] == "ii"
    m = tuple(tuple(row) for row in rep["witness"])
    assert not is_scalar_matrix(m)
    assert all(mat_apply(m, v, 3) in s.members for v in s.members)
    # the linear witness normalizes the translation group
    p = linear_perm(3, 2, m)
    for b in ((1, 0), (0, 1), (2, 2)):
        tau = tuple(affine_ids(3, 2, 1, b))
        conj = compose(compose(p, tau), inverse_perm(p))
        assert conj == tuple(affine_ids(3, 2, 1, mat_apply(m, b, 3)))


def test_dichotomy_empty_set():
    g = build_graph(ConnectionSet(3, 2, []))
    aut = automorphism_group(g)
    rep = dichotomy_check(g, aut)
    assert rep["equals_K"] is False
    assert rep["dichotomy"] == "ii"
    assert rep["witness"] is not None


def _witness_fixes(rep, s):
    """Whether the report's witness is non-scalar, invertible and maps S into S."""
    m = tuple(tuple(row) for row in rep["witness"])
    return (
        not is_scalar_matrix(m)
        and rank(m, s.q) == s.n
        and all(mat_apply(m, v, s.q) in s.members for v in s.members)
    )


def _agrees_with_scan(s):
    g = build_graph(s)
    rep = dichotomy_check(g, automorphism_group(g))
    maps = linear_maps_fixing_connection(s)
    expected = "ii" if any(not is_scalar_matrix(m) for m in maps) else "i"
    assert rep["dichotomy"] == expected, (s.q, s.n, s.lines)
    if rep["witness"] is not None:
        m = tuple(tuple(row) for row in rep["witness"])
        assert not is_scalar_matrix(m) and m in maps, (s.q, s.n, s.lines)


def test_dichotomy_never_violated_across_sweep():
    # the scan's verdict is "i" or "ii", so agreeing with it rules out "violated"
    for q in (3, 5):
        universe = list(line_universe(q, 2))
        for size in range(len(universe) + 1):
            for subset in itertools.combinations(universe, size):
                _agrees_with_scan(ConnectionSet(q, 2, subset))


def test_dichotomy_matches_gl_scan_on_sampled_3_3_subsets():
    universe = list(line_universe(3, 3))
    rng = random.Random(5)
    subsets = [[], universe[:1], universe]
    subsets += [rng.sample(universe, rng.randrange(2, 9)) for _ in range(7)]
    for subset in subsets:
        _agrees_with_scan(ConnectionSet(3, 3, subset))


def test_dichotomy_past_the_gl_scan(deadline):
    # GL(n, q) has far more than 10^5 candidate matrices at these sizes
    deadline(120)
    for q, n in ((5, 3), (3, 4), (5, 4)):
        for seed in range(20):
            s = sample_connection_set(q, n, 0.5, seed)
            g = build_graph(s)
            try:
                rep = dichotomy_check(g, automorphism_group(g))
            except BudgetExceeded:
                pytest.fail(f"budget exceeded at {(q, n, seed)}")
            assert rep["dichotomy"] in ("i", "ii"), (q, n, seed)
            if rep["dichotomy"] == "ii":
                assert _witness_fixes(rep, s), (q, n, seed)


def test_dichotomy_invariant_under_linear_relabelling():
    # x -> A x is an isomorphism from Cay(S) onto Cay(A S) when A fixes the
    # hyperplane x[n-1] = 0, so the order and the verdict must carry over
    rng = random.Random(17)
    for q, n, p in ((5, 3, 0.9),) * 4 + ((3, 4, 0.5),) * 4:
        s = sample_connection_set(q, n, p, rng.randrange(10**6))
        while True:
            a = tuple(
                tuple(rng.randrange(q) for _ in range(n)) for _ in range(n - 1)
            ) + ((0,) * (n - 1) + (rng.randrange(1, q),),)
            if rank(a, q) == n:
                break
        image = ConnectionSet(q, n, [mat_apply(a, rep, q) for rep in s.lines])
        assert image.members == {mat_apply(a, v, q) for v in s.members}
        auts, reps = [], []
        for c in (s, image):
            g = build_graph(c)
            auts.append(automorphism_group(g))
            reps.append(dichotomy_check(g, auts[-1]))
        assert auts[0].group.order() == auts[1].group.order()
        assert reps[0]["dichotomy"] == reps[1]["dichotomy"]
        assert reps[1]["dichotomy"] in ("i", "ii")
        if reps[1]["dichotomy"] == "ii":
            assert _witness_fixes(reps[1], image)


def test_k_on_other_generators_has_the_order_of_k():
    # K on the generators (t0 t1, t1, ..., scaling): t0 is not among them,
    # so it is found by sifting, and the order dichotomy_check compares is K's
    for q, n in ((3, 2), (5, 3)):
        t0, t1, *rest = scalar_affine_group(q, n).generators
        group = PermGroup(q ** n, (0, 1), [compose(t0, t1), t1, *rest])
        assert t0 not in group.generators
        assert group.order() == scalar_affine_group(q, n).order()


def test_group_equals_scalar_affine_negative():
    g = build_graph(ConnectionSet(3, 2, [(0, 1)]))
    aut = automorphism_group(g)
    assert not dichotomy_check(g, aut)["equals_K"]


def _period_by_masks(g):
    """The t with N(t) = N(0), from the neighbour-mask stream."""
    masks = g.adjacency_masks()
    return tuple(t for t, m in enumerate(masks) if m == masks[0])


def _pulled_back(q, n, rng):
    """A set with a period: the lines r with r[1:] in a random nonempty set
    of lines of F_q^(n-1), so that W holds e_0."""
    universe = line_universe(q, n - 1).lines
    chosen = rng.sample(universe, rng.randrange(1, len(universe) + 1))
    return ConnectionSet(q, n, [(a, *rep) for rep in chosen for a in range(q)])


def test_period_matches_brute_force():
    # CayleyGraph.period against N(t) = N(0) over every t, on all 511
    # nonempty subsets at (3,3), of which 25 have a period (12 three-line
    # and 12 six-line ones with |W| = 3, the full set with |W| = 9), on 200
    # sampled sets each at (5,3) and (5,4), none with one, and on sets
    # pulled back from F_q^(n-1), all with one
    universe = list(line_universe(3, 3))
    found = Counter()
    for size in range(1, len(universe) + 1):
        for lines in itertools.combinations(universe, size):
            g = build_graph(ConnectionSet(3, 3, lines))
            assert g.period == _period_by_masks(g), lines
            if len(g.period) > 1:
                found[size, len(g.period)] += 1
    assert found == {(3, 3): 12, (6, 3): 12, (9, 9): 1}
    for q, n in ((5, 3), (5, 4)):
        for seed in range(200):
            g = build_graph(sample_connection_set(q, n, 0.5, seed))
            assert g.period == _period_by_masks(g) == (0,), (q, n, seed)
    rng = random.Random(3)
    for q, n in ((3, 4), (5, 3), (5, 4)):
        for _ in range(10):
            g = build_graph(_pulled_back(q, n, rng))
            assert g.period == _period_by_masks(g), (q, n, g.connection.lines)
            assert len(g.period) > 1


def _twin_graphs():
    """Every graph with a period at (3,3), then p = 1 at (3,4) and (5,3),
    where W is H and G/W is K_q."""
    universe = list(line_universe(3, 3))
    subsets = itertools.chain.from_iterable(
        itertools.combinations(universe, size) for size in range(1, len(universe) + 1)
    )
    graphs = (build_graph(ConnectionSet(3, 3, lines)) for lines in subsets)
    yield from (g for g in graphs if len(g.period) > 1)
    for q, n in ((3, 4), (5, 3)):
        yield build_graph(sample_connection_set(q, n, 1, 1))


def test_twin_group_matches_the_search():
    # the twin group against the search run on the same graph itself: the
    # same order, every generator an automorphism by the leaf check and by
    # the edge set, and K's generators in the group; the counters and nodes
    # are those of G/W, none when G/W is K_q
    count = 0
    for g in _twin_graphs():
        q, n = g.q, g.n
        aut = automorphism_group(g)
        search = autgroup._search_group(g, 200000)
        assert aut.complete and search.complete
        assert aut.group.order() == search.group.order(), g.connection.lines
        edges = edge_set(g)
        for p in aut.group.generators:
            assert is_automorphism(g, p)
            assert brute_preserves_edges(g, p, edges)
        assert all(map(aut.group.contains, scalar_affine_group(q, n).generators))
        assert aut.counts["period"] == len(g.period) > 1
        if len(g.period) == q ** (n - 1):
            assert aut.nodes == aut.counts["splitters"] == 0
            assert aut.group.order() == math.factorial(q ** (n - 1)) ** q * math.factorial(q)
        else:
            assert aut.nodes > 0
        count += 1
    assert count == 27


def test_twin_quotient_takes_its_own_route():
    # (3,4), p = 0.9: at these seeds S has 24 lines and a period W of 3
    # points, and G/W, at (3,3), misses exactly one admissible line, so it
    # takes the product route in 0 nodes.  Aut is Sym(3) wr Aut(G/W), of
    # order 3!^27 |Aut(G/W)|, |Aut(G/W)| = 9! 3! being what the search finds
    # on G/W, and the product is what the search finds on G itself; every
    # generator is an automorphism, and the witness is the period's
    # transvection
    for seed in (53, 122, 161, 198, 229):
        g = build_graph(sample_connection_set(3, 4, 0.9, seed))
        aut = automorphism_group(g)
        assert (len(g.connection.lines), len(g.period)) == (24, 3), seed
        routes = aut.nodes, aut.counts["period"], aut.counts["product"], aut.counts["cone"]
        assert routes == (0, 3, 1, 0), seed
        quotient = autgroup._search_group(g.quotient()[0], 200000).group.order()
        assert quotient == math.factorial(9) * math.factorial(3) == 2177280
        order = math.factorial(3) ** 27 * quotient
        assert aut.group.order() == autgroup._search_group(g, 200000).group.order() == order
        assert all(is_automorphism(g, p) for p in aut.group.generators)
        report = dichotomy_check(g, aut)
        assert (report["equals_K"], report["dichotomy"]) == (False, "ii")
        assert report["witness"] == [list(row) for row in transvection(decode(g.period[1], 3, 4))]


def _one_line_missing(q, n):
    """Every S at (q, n) that misses exactly one admissible line."""
    universe = list(line_universe(q, n))
    return [ConnectionSet(q, n, universe[:i] + universe[i + 1 :]) for i in range(len(universe))]


def test_product_route_matches_the_search(deadline):
    # every S missing one admissible line at (3,3), (3,4) and (5,3), 9, 27
    # and 25 sets: the group written down in 0 nodes and the search's have
    # the order q^(n-1)! q!, and each contains every generator of the other;
    # every written generator is an automorphism, K's first; the witness is
    # not scalar and maps S onto S; and the (q+1) certificate fails on both
    # groups alike, a lifted column transposition fixing every class
    deadline(60)
    count = 0
    for q, n in ((3, 3), (3, 4), (5, 3)):
        k = scalar_affine_group(q, n).generators
        for connection in _one_line_missing(q, n):
            g = build_graph(connection)
            members = connection.members
            aut = automorphism_group(g)
            search = autgroup._search_group(g, 200000)
            assert g.centre is not None and aut.linear is None
            assert (aut.nodes, aut.counts["product"], search.counts["product"]) == (0, 1, 0)
            assert aut.counts["cone"] == search.counts["cone"] == 0
            order = math.factorial(q ** (n - 1)) * math.factorial(q)
            assert aut.group.order() == search.group.order() == order, connection.lines
            assert all(map(search.group.contains, aut.group.generators)), connection.lines
            assert all(map(aut.group.contains, search.group.generators)), connection.lines
            assert aut.group.generators[: n + 1] == list(k)
            assert all(is_automorphism(g, p) for p in aut.group.generators)
            report = dichotomy_check(g, aut)
            m = report["witness"]
            assert (report["equals_K"], report["dichotomy"]) == (False, "ii")
            assert not is_scalar_matrix(m) and {mat_apply(m, s, q) for s in members} == members
            assert chi_D_upper_certificate(g, aut) is None
            assert chi_D_upper_certificate(g, search) is None
            count += 1
    assert count == 9 + 27 + 25


def test_one_line_missing_at_n_2_is_searched():
    # at n = 2 the complement is K_q □ K_q, whose group Sym(q) wr Sym(2)
    # also swaps rows and columns: no centre is reported, and the search
    # finds the order 2 (q!)^2
    for q in (3, 5, 7):
        g = build_graph(_one_line_missing(q, 2)[0])
        aut = automorphism_group(g)
        assert g.centre is None
        assert aut.nodes > 0 and aut.counts["product"] == 0
        assert aut.group.order() == 2 * math.factorial(q) ** 2, q


def test_cone_route_matches_the_search(deadline):
    # every four-, five- and seven-line S at (3,3), and every (3,4) set
    # missing two lines.  The 90 cones of centre u in S at (3,3), 54 of five
    # lines (R = K_3 □ K_3, |Aut(R)| = 72) and 36 of seven (R complete
    # tripartite, 1,296), take the route; the route's group and the
    # search's have the order 3! |Aut(R)|, and each contains every
    # generator of the other; every route generator is an automorphism,
    # K's first; the witness is not scalar and maps S onto S; and the (q+1)
    # certificate gives one answer on both groups.  The 72 other five-line
    # sets have no centre.  No four-line set has one: the 54 four-line cones
    # of centre u not in S are searched, G = K_3 x K_3 x K_3 having 1,296
    # automorphisms, not 3! 72.  At (3,4) two missing lines leave a centre,
    # the midpoint of their affine points, but D' holds 12 of H's 13 lines,
    # and no plane of H misses them, so each set is searched; the 351 are
    # one orbit of the affine group, and those missing the first line are
    # checked against the search
    deadline(60)
    found = Counter()
    for q, n, sizes in ((3, 3, (4, 5, 7)), (3, 4, (25,))):
        k = list(scalar_affine_group(q, n).generators)
        universe = line_universe(q, n)
        for size in sizes:
            for lines in itertools.combinations(universe, size):
                g = build_graph(ConnectionSet(q, n, lines))
                members = g.connection.members
                if g.cone() is None:
                    found[n, size, g.centre is not None] += 1
                    if size < 25 and g.centre is None:
                        found[n, size, automorphism_group(g).group.order()] += 1
                    if size < 25 or universe.lines[0] in lines:
                        continue
                aut = automorphism_group(g)
                search = autgroup._search_group(g, 200000)
                routed = aut.counts["cone"] == 1
                assert routed == (g.cone() is not None) and search.counts["cone"] == 0
                assert (aut.linear is None) == routed
                assert aut.group.order() == search.group.order(), lines
                assert all(map(search.group.contains, aut.group.generators)), lines
                assert all(map(aut.group.contains, search.group.generators)), lines
                assert aut.group.generators[: n + 1] == k
                assert all(is_automorphism(g, p) for p in aut.group.generators)
                report = dichotomy_check(g, aut)
                m = report["witness"]
                assert (report["equals_K"], report["dichotomy"]) == (False, "ii")
                assert not is_scalar_matrix(m) and {mat_apply(m, s, q) for s in members} == members
                cert = chi_D_upper_certificate(g, aut)
                assert (cert is None) == (chi_D_upper_certificate(g, search) is None)
                found[n, size, "checked", aut.group.order(), cert is None] += 1
    assert found == {
        (3, 4, False): 126, (3, 4, 1296): 54, (3, 4, 7776): 72,
        (3, 5, False): 72, (3, 5, 7776): 72, (3, 5, "checked", 432, True): 54,
        (3, 7, "checked", 7776, True): 36,
        (4, 25, True): 351, (4, 25, "checked", 21941965946880, True): 26,
    }


def test_cone_route_lifts_an_incomplete_pool():
    # the five-line cone of centre (0, 0, 1): R, two lines at (3,2), is
    # searched in 4 nodes, so a budget of 1 stops it; the result is
    # incomplete, with no group, and its pool is K's generators, then R's
    # pool lifted to every row, then the row swaps, all automorphisms
    universe = line_universe(3, 3).lines
    g = build_graph(ConnectionSet(3, 3, universe[:3] + (universe[3], universe[6])))
    assert g.centre == 9 and g.cone() is not None
    aut = automorphism_group(g, node_budget=1)
    assert (aut.complete, aut.group, aut.counts["cone"]) == (False, None, 1)
    assert aut.pool[:4] == tuple(scalar_affine_group(3, 3).generators)
    assert len(aut.pool) == 4 + 3 + 2
    assert all(is_automorphism(g, p) for p in aut.pool)


def test_centre_probe_is_quiet_without_cones():
    # no S of the (5,3) and (5,4) workloads, p = 0.5, has a centre
    for q, n, seeds in ((5, 3, 200), (5, 4, 40)):
        for seed in range(seeds):
            assert build_graph(sample_connection_set(q, n, 0.5, seed)).centre is None, (q, n, seed)


def test_twin_witness_is_a_transvection():
    # on the same graphs, the witness is x -> x + x[n-1] w for the first
    # w != 0 of the period: not scalar, invertible, and M S = S; the chain
    # walk on the search's group gives the same verdict
    for g in _twin_graphs():
        q, n = g.q, g.n
        report = dichotomy_check(g, automorphism_group(g))
        m = report["witness"]
        assert (report["equals_K"], report["dichotomy"]) == (False, "ii")
        assert not is_scalar_matrix(m) and rank(m, q) == n
        w = [row[-1] for row in m]
        assert w[:-1] == list(decode(g.period[1], q, n))[:-1] and w[-1] == 1
        members = g.connection.members
        assert {mat_apply(m, s, q) for s in members} == members
        search = autgroup._search_group(g, 200000)
        assert linear_witness(g, search.group) is not None


def test_twin_chains_are_pinned():
    # the twin chains of (3,3), p = 0.75, seeds 4 and 7, the two instances
    # of test_chain_orbits_and_witnesses_are_pinned with a period: the
    # sha256 of the JSON of every level's orbit, of the generators and of
    # the dichotomy witness, with |W|, the order and the nodes of G/W.  At
    # seed 4 the nodes and generators were re-recorded when G_0's generators
    # joined the pool of G/W's search
    def digest(x):
        return hashlib.sha256(json.dumps(x).encode()).hexdigest()

    cases = {
        4: (3, 725594112, 4, (
            "81a04b359fd948af350a507ecd7e0481c63f2417639d3326a3cc86d052031ae1",
            "2cf1852c33759393568c67b1a966fa779b0e670f2ee511590d7a5334971bb0bc",
            "74892212b9f8a55d2ea660ab69066c770b29671ea113a1bc4ad5d4b010111954",
        )),
        7: (9, 286708355039232000, 0, (
            "325f900295906e1e849b1bb126234ba7647148972eff2ad0dfc6e43523e3de05",
            "f4f47d1d71201b50b1360078b80e2a34282fc2ee7abe6cdd9b3d901ee130dedd",
            "b2e3118a43a8d635054bd0e05eb492f09b9508bf549a303fd26681e65cf21667",
        )),
    }
    for seed, want in cases.items():
        g = build_graph(sample_connection_set(3, 3, 0.75, seed))
        aut = automorphism_group(g)
        orbits = [list(aut.group.orbit(k)) for k in range(len(aut.group.base()))]
        generators = [list(p) for p in aut.group.generators]
        digests = digest(orbits), digest(generators), digest(dichotomy_check(g, aut)["witness"])
        assert (len(g.period), aut.group.order(), aut.nodes, digests) == want, seed
