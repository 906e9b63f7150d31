import itertools
import math
import random
import tracemalloc

import pytest

from linecayley.autgroup import AutResult, automorphism_group
from linecayley.cayley import ConnectionSet, build_graph, sample_connection_set
from linecayley.coloring import coset_coloring, plus_zero_recolor
from linecayley.distinguishing import is_distinguishing
from linecayley.field import affine_ids
from linecayley.geometry import line_universe
from linecayley.permgroup import (
    PermGroup,
    classes_to_labels,
    compose,
    depth_first,
    fixes_labels,
    fixing_subgroup_of_partition,
    inverse_perm,
    leaves,
    product_group,
    scalar_affine_group,
    star_swaps,
    twin_group,
)
from oracles import brute_fix_count, group_elements, planted_homology_connection


def test_compose_inverse():
    rng = random.Random(1)
    for _ in range(20):
        p = list(range(8))
        rng.shuffle(p)
        p = tuple(p)
        assert compose(p, inverse_perm(p)) == tuple(range(8))
        assert compose(inverse_perm(p), p) == tuple(range(8))


def test_compose_order():
    # compose(p, r) applies r first
    p = (1, 2, 0)
    r = (0, 2, 1)
    assert compose(p, r) == (1, 0, 2)


def test_perm_constructors():
    t = tuple(affine_ids(3, 2, 1, (1, 0)))
    assert t[0] == 1 and t[2] == 0
    s = tuple(affine_ids(3, 2, 2, (0, 0)))
    assert s[0] == 0
    with pytest.raises(ValueError):
        affine_ids(3, 2, 0, (0, 0))
    a = tuple(affine_ids(3, 2, 2, (1, 0)))
    assert a == compose(t, s)


def test_symmetric_group_from_transpositions():
    gens = [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]
    g = PermGroup(4, (0, 1, 2), gens)
    assert g.order() == 24
    elements = group_elements(4, g.generators)
    assert len(elements) == 24
    assert len(set(elements)) == 24
    for p in elements:
        assert g.contains(p)


def test_cyclic_group():
    g = PermGroup(5, (0,), [(1, 2, 3, 4, 0)])
    assert g.order() == 5
    assert g.contains((2, 3, 4, 0, 1))
    assert not g.contains((1, 0, 2, 3, 4))


def test_trivial_group():
    g = PermGroup(4, (), [])
    assert g.order() == 1
    assert group_elements(4, g.generators) == [tuple(range(4))]


def test_generator_fixing_the_base_is_rejected():
    with pytest.raises(ValueError):
        PermGroup(3, (0,), [(0, 2, 1)])
    # the identity and repeats are dropped, not rejected
    g = PermGroup(3, (0, 1), [(0, 1, 2), (0, 2, 1), (0, 2, 1)])
    assert g.generators == [(0, 2, 1)]
    assert g.order() == 2


def test_scalar_affine_orders():
    expected = {
        (3, 2): 18,
        (3, 3): 54,
        (5, 2): 100,
        (5, 3): 500,
        (7, 2): 294,
        (7, 3): 2058,
    }
    for (q, n), order in expected.items():
        assert scalar_affine_group(q, n).order() == order


def test_scalar_affine_membership():
    k = scalar_affine_group(3, 2)
    rng = random.Random(2)
    for _ in range(10):
        lam = rng.randrange(1, 3)
        b = (rng.randrange(3), rng.randrange(3))
        assert k.contains(tuple(affine_ids(3, 2, lam, b)))
    # swapping two vertices and fixing the rest is not affine
    swap = list(range(9))
    swap[0], swap[1] = 1, 0
    assert not k.contains(tuple(swap))


def assert_same_chain(got, want):
    """The same base, generators, orbits in BFS order, order and membership."""
    assert got.base() == want.base()
    assert got.generators == want.generators
    assert [list(got.orbit(k)) for k in range(len(got.base()))] == [
        list(want.orbit(k)) for k in range(len(want.base()))
    ]
    assert got.order() == want.order()
    swap = list(range(got.degree))
    swap[0], swap[1] = 1, 0
    for p in want.generators:
        assert got.contains(p) and want.contains(p)
    assert not got.contains(swap) and not want.contains(swap)


def _assert_schreier_trees(group):
    """Each non-base point x of each level's orbit maps to (i, y), with
    generator i taking y to x and y earlier in BFS order, and the
    transversal element of x fixes the earlier base points and maps the
    level's base point to x."""
    base = group.base()
    for k, b in enumerate(base):
        tree = group._svs[k]
        position = {x: j for j, x in enumerate(tree)}
        assert tree[b] is None
        for x in group.orbit(k):
            if x == b:
                continue
            i, y = tree[x]
            assert group.generators[i][y] == x
            assert position[y] < position[x]
            rep = group._rep(k, x)
            assert all(rep[c] == c for c in base[:k]) and rep[b] == x


def test_schreier_trees_of_every_kind_of_group():
    # K, Aut where it branches, G_0, a twin group and a class-fixing
    # subgroup: every group the package builds reads its transversals off
    # the parents its BFS recorded
    groups = [scalar_affine_group(3, 3), scalar_affine_group(5, 3)]
    for seed in range(1, 6):
        groups.append(automorphism_group(build_graph(sample_connection_set(3, 3, 0.75, seed))).group)
    planted = automorphism_group(build_graph(planted_homology_connection(5, 4, 1)))
    assert planted.linear is not None
    groups += [planted.group, planted.linear]
    g = next(
        g for lines in itertools.combinations(line_universe(3, 3), 3)
        if len((g := build_graph(ConnectionSet(3, 3, lines))).period) > 1
    )
    twins = automorphism_group(g)
    assert twins.counts["period"] > 1
    groups.append(twins.group)
    g = build_graph(sample_connection_set(5, 3, 0.5, 1))
    fixing = fixing_subgroup_of_partition(scalar_affine_group(5, 3), coset_coloring(g).class_of)
    assert fixing.order() == 25
    groups.append(fixing)
    for group in groups:
        assert group.generators
        _assert_schreier_trees(group)


def test_scalar_affine_group_holds_no_generator_inverses():
    # K at (5,6) on 15,625 points: its chain holds the generators and the
    # two Schreier trees, no inverse of any generator; with one per
    # generator, as it was built before, it held 9.0 MiB, and 6.1 without
    tracemalloc.start()
    try:
        k = scalar_affine_group.__wrapped__(5, 6)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert k.order() == 5**6 * 4
    assert held <= 7 * 2**20


def test_case_i_returns_k_itself():
    # in case (i) the search returns the one cached K of the size, on its
    # base (0, q^(n-1)); no (3,3) instance here is case (i)
    case_i = []
    for q, n in ((3, 3), (5, 3), (7, 3), (5, 4)):
        for seed in (1, 2, 3):
            aut = automorphism_group(build_graph(sample_connection_set(q, n, 0.5, seed)))
            if aut.nodes == 2:
                assert aut.group is scalar_affine_group(q, n)
                assert aut.group.base() == (0, q ** (n - 1))
                case_i.append((q, n, seed))
    assert case_i == [
        (5, 3, 1), (5, 3, 2), (5, 3, 3),
        (7, 3, 1), (7, 3, 2), (7, 3, 3),
        (5, 4, 1), (5, 4, 2), (5, 4, 3),
    ]


def test_shared_k_is_not_mutated():
    # the cached K, walked by the class-fixing search and sifted through,
    # still equals a fresh PermGroup on its base and generators, each
    # orbit in the same BFS order
    q, n = 5, 3
    g = build_graph(sample_connection_set(q, n, 0.5, 1))
    cert = plus_zero_recolor(coset_coloring(g))
    k = scalar_affine_group(q, n)
    aut = AutResult(k, 2, tuple(k.generators))
    assert is_distinguishing(cert, aut).distinguishing
    assert is_distinguishing(coset_coloring(g), aut).fixing_order == q ** (n - 1)
    rng = random.Random(5)
    for _ in range(10):
        b = tuple(rng.randrange(q) for _ in range(n))
        assert k.contains(affine_ids(q, n, rng.randrange(1, q), b))
    translations = [affine_ids(q, n, 1, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    fresh = PermGroup(q ** n, (0, q ** (n - 1)), [*translations, affine_ids(q, n, 2, (0, 0, 0))])
    assert scalar_affine_group(q, n) is k
    assert_same_chain(k, fresh)


def test_fixes_labels():
    labels = (0, 1, 1, 2)
    assert fixes_labels((0, 2, 1, 3), labels)
    assert not fixes_labels((1, 0, 2, 3), labels)
    assert not fixes_labels((0, 1, 3, 2), labels)


def test_classes_to_labels():
    labels = classes_to_labels([[0, 2], [1]], 3)
    assert list(labels) == [0, 1, 0]
    for bad in ([[0], [0, 1]], [[0], [1, 2]], [[-1], [0]], [[0]], [[0], [True]]):
        with pytest.raises(ValueError):
            classes_to_labels(bad, 2)


def test_fixing_subgroup_of_coset_partition():
    s = ConnectionSet(3, 2, [(0, 1), (1, 1), (2, 1)])
    g = build_graph(s)
    c = coset_coloring(g)
    k = scalar_affine_group(3, 2)
    fix = fixing_subgroup_of_partition(k, c.class_of)
    # only translations inside the zero class fix every coset class
    assert fix.order() == 3
    labels = c.class_of
    assert fix.order() == brute_fix_count(group_elements(9, k.generators), labels)
    for p in group_elements(9, fix.generators):
        assert all(labels[p[x]] == labels[x] for x in range(9))


def test_fixing_subgroup_extremes():
    k = scalar_affine_group(3, 2)
    singletons = list(range(9))
    assert fixing_subgroup_of_partition(k, singletons).order() == 1
    whole = [0] * 9
    assert fixing_subgroup_of_partition(k, whole).order() == 18


def test_fixing_subgroup_matches_brute_on_random_partitions():
    # K at (3,2), then the full Aut of sampled (3,2) and (3,3) instances
    groups = [scalar_affine_group(3, 2)]
    rng = random.Random(23)
    for q, n in ((3, 2), (3, 3)):
        for _ in range(4):
            aut = automorphism_group(build_graph(sample_connection_set(q, n, 0.5, rng.randrange(10**6))))
            if aut.group.order() <= 10**4:
                groups.append(aut.group)
    assert len(groups) >= 5
    assert {g.degree for g in groups} == {9, 27}
    for group in groups:
        degree = group.degree
        elements = group_elements(degree, group.generators)
        assert len(elements) == group.order()
        for trial in range(10):
            labels = [rng.randrange(3) for _ in range(degree)]
            if trial % 2:
                # one label per cycle of a random element, which then fixes every class
                g = rng.choice(elements)
                for x in range(degree):
                    y = g[x]
                    while y != x:
                        labels[y] = labels[x]
                        y = g[y]
            fix = fixing_subgroup_of_partition(group, labels)
            assert fix.order() == brute_fix_count(elements, labels)
            for p in fix.generators:
                assert group.contains(p)
                assert all(labels[p[x]] == labels[x] for x in range(degree))


def test_twin_groups_match_brute_force():
    # Sym(4), the 4 twins of the one point of the trivial group; Sym(3) wr
    # Sym(3), the group of (3,2) with p = 1, whose twin classes are the
    # cosets of x[1]; and Sym(2) wr K(3,2) on 18 points,
    # point x of K doubled as x and x + 9: the order, membership of every
    # generator's image, and the class-fixing subgroup of random
    # labellings, half of them kept by a random element, against every
    # element, with the prune at the twin levels in use
    g = build_graph(sample_connection_set(3, 2, 1, 1))
    k = scalar_affine_group(3, 2)
    groups = [
        (twin_group([], (), [range(4)]), 24),
        (automorphism_group(g).group, 6 ** 3 * 6),
        (twin_group(k.generators, k.base(), [[x, x + 9] for x in range(9)]), 2 ** 9 * 18),
    ]
    rng = random.Random(31)
    for group, order in groups:
        degree = group.degree
        assert group.orbits
        elements = group_elements(degree, group.generators)
        assert group.order() == len(elements) == order
        for trial in range(10):
            labels = [rng.randrange(3) for _ in range(degree)]
            if trial % 2:
                p = rng.choice(elements)
                for x in range(degree):
                    y = p[x]
                    while y != x:
                        labels[y] = labels[x]
                        y = p[y]
            fix = fixing_subgroup_of_partition(group, labels)
            assert fix.order() == brute_fix_count(elements, labels)
            assert all(map(group.contains, fix.generators))


def test_product_group_matches_brute_force():
    # Sym(b) x C on a grid of b rows of a points, ids shuffled, with no
    # known element and with one listed first, for C = Sym(a) by its star
    # transpositions on the base 0..a-2, and for C the dihedral group of
    # the square on 4 columns, not symmetric, by its rotation and the
    # reflection fixing 0, on the base (0, 1): its elements are exactly the
    # maps rows[t][h] -> rows[ρ(t)][σ(h)], σ in C, its order is b! |C|, and
    # its transversals are read off its trees
    rng = random.Random(7)
    cases = [(a, b, star_swaps(a), range(a - 1), math.factorial(a))
             for a, b in ((3, 2), (4, 3), (2, 4))]
    cases += [(4, b, [(1, 2, 3, 0), (0, 3, 2, 1)], (0, 1), 8) for b in (2, 3)]
    for a, b, generators, base, order in cases:
        ids = list(range(a * b))
        rng.shuffle(ids)
        rows = [ids[t * a : (t + 1) * a] for t in range(b)]
        columns = set(group_elements(a, generators))
        want = set()
        for rho in itertools.permutations(range(b)):
            for sigma in columns:
                image = [0] * (a * b)
                for t, row in enumerate(rows):
                    for h, x in enumerate(row):
                        image[x] = rows[rho[t]][sigma[h]]
                want.add(tuple(image))
        assert len(columns) == order
        for known in ([], [rng.choice(sorted(want - {tuple(range(a * b))}))]):
            group = product_group(rows, known, generators, base)
            assert group.generators[: len(known)] == known
            assert set(group_elements(a * b, group.generators)) == want, (a, b)
            assert group.order() == len(want) == math.factorial(b) * len(columns)
            _assert_schreier_trees(group)


# a small explicit tree: node -> children, depth 0 at "r"
TREE = {"r": ["a", "b", "c"], "a": ["a1", "a2"], "b": [], "c": ["c1"]}


def _tree_children(depth, node):
    return iter(TREE.get(node, []))


def test_leaves_at_start_depth_is_the_root():
    def children(depth, node):
        raise AssertionError("no node is expanded")

    assert list(leaves("r", 3, 3, children)) == ["r"]
    assert depth_first("r", 3, 3, children, lambda node: node + "!") == "r!"


def test_leaves_in_depth_first_order():
    assert list(leaves("r", 0, 1, _tree_children)) == ["a", "b", "c"]
    assert list(leaves("r", 0, 2, _tree_children)) == ["a1", "a2", "c1"]


def test_depth_first_stops_at_first_result():
    seen = []

    def leaf(node):
        seen.append(node)
        return None if node == "a1" else node.upper()

    assert depth_first("r", 0, 2, _tree_children, leaf) == "A2"
    assert seen == ["a1", "a2"]
    assert depth_first("r", 0, 2, _tree_children, lambda node: None) is None


def test_leaves_deep_chain_has_no_recursion_limit():
    assert list(leaves(0, 0, 5000, lambda depth, node: [node + 1])) == [5000]
