import hashlib
import itertools
import math
import random
import time
from collections import Counter

import pytest

from linecayley.autgroup import automorphism_group
from linecayley.cayley import ConnectionSet, build_graph, sample_connection_set
from linecayley.coloring import (
    Coloring,
    coloring_from_classes,
    coset_coloring,
    enumerate_proper_partitions,
    is_proper,
    plus_zero_recolor,
)
from linecayley.distinguishing import (
    chi_D_exceeds_q_small,
    chi_D_upper_certificate,
    is_distinguishing,
)
from linecayley.field import affine_ids, decode
from linecayley.geometry import line_universe
from linecayley.permgroup import (
    first_fixing_element,
    fixes_labels,
    fixing_subgroup_of_partition,
)
from oracles import (
    common_hyperplane_normal,
    direction_count_threshold,
    fixing_translations_by_scan,
    group_elements,
    planted_homology_connection,
    translation_fixing_witnesses,
    vec_dot,
)


def graph_and_aut(q, n, lines=None, seed=None, p=0.5):
    if lines is not None:
        s = ConnectionSet(q, n, lines)
    else:
        s = sample_connection_set(q, n, p, seed)
    g = build_graph(s)
    return s, g, automorphism_group(g)


def witness_pairs(g, aut):
    """Every proper partition into at most q classes, in listing order, with
    the class-fixing automorphism the exhaustive verdict finds for it."""
    return [
        (c, first_fixing_element(aut.group, c.class_of)) for c in enumerate_proper_partitions(g)
    ]


def test_singleton_coloring_distinguishing():
    _, g, aut = graph_and_aut(3, 2, lines=[(0, 1), (1, 1), (2, 1)])
    c = coloring_from_classes([[i] for i in range(9)], 9)
    rep = is_distinguishing(c, aut)
    assert rep.distinguishing
    assert rep.fixing_order == 1
    assert rep.witness is None
    assert rep.to_json_dict() == {"distinguishing": True, "fixing_order": "1"}


def test_coset_coloring_not_distinguishing():
    s, g, aut = graph_and_aut(5, 3, seed=42)
    cc = coset_coloring(g)
    rep = is_distinguishing(cc, aut)
    assert not rep.distinguishing
    assert rep.fixing_order == 25
    w = rep.witness
    assert w is not None
    assert w != tuple(range(g.num_vertices))
    assert aut.group.contains(w)
    assert all(cc.class_of[w[x]] == cc.class_of[x] for x in range(len(w)))
    # preferred witness is a translation: it must equal the shift by its image of 0
    assert tuple(w) == tuple(affine_ids(5, 3, 1, decode(w[0], 5, 3)))
    d = rep.to_json_dict()
    assert d["distinguishing"] is False
    assert d["fixing_order"] == "25"
    assert d["witness"] == list(w)


def test_exceeds_q_all_three_lines():
    _, g, aut = graph_and_aut(3, 2, lines=[(0, 1), (1, 1), (2, 1)])
    v = chi_D_exceeds_q_small(g, aut)
    assert v.exceeds
    assert v.partitions == 1
    assert v.failing is None
    pairs = witness_pairs(g, aut)
    assert len(pairs) == 1
    coloring, w = pairs[0]
    assert is_proper(g, coloring)
    assert tuple(w) != tuple(range(9))
    assert aut.group.contains(tuple(w))
    assert all(coloring.class_of[w[x]] == coloring.class_of[x] for x in range(9))


def test_exceeds_q_single_line():
    _, g, aut = graph_and_aut(3, 2, lines=[(0, 1)])
    v = chi_D_exceeds_q_small(g, aut)
    assert v.exceeds
    assert v.partitions == 36
    pairs = witness_pairs(g, aut)
    assert len(pairs) == 36
    for coloring, w in pairs:
        assert is_proper(g, coloring)
        assert tuple(w) != tuple(range(9))
        assert all(coloring.class_of[w[x]] == coloring.class_of[x] for x in range(9))


def test_exceeds_q_fails_on_two_lines():
    # two lines at (5,2): G is K_5 □ K_5, and the second proper 5-partition
    # listed is fixed by no automorphism but the identity, so chi_D <= q
    _, g, aut = graph_and_aut(5, 2, lines=[(0, 1), (1, 1)])
    v = chi_D_exceeds_q_small(g, aut)
    assert (v.exceeds, v.partitions) == (False, 2)
    assert v.failing.num_colors == 5
    assert len(set(v.failing.class_of)) == 5
    assert is_proper(g, v.failing)
    assert fixing_subgroup_of_partition(aut.group, v.failing.class_of).order() == 1


def test_exceeds_q_single_line_needs_no_listing():
    # one line at (3,3): nine disjoint triangles, with (3!)^8 proper
    # 3-partitions up to colour names, past the default listing cap of 10^6
    _, g, aut = graph_and_aut(3, 3, lines=[(0, 0, 1)])
    start = time.perf_counter()
    v = chi_D_exceeds_q_small(g, aut)
    assert time.perf_counter() - start < 1
    assert (v.exceeds, v.partitions, v.failing) == (True, 1_679_616, None)


def test_partition_order_is_pinned():
    # the sha256 of the class_of sequence listed over each family, and every
    # verdict's partition count, recorded before the listing moved onto
    # permgroup.leaves; the sweep prints the count, and the verdict stops at
    # the first distinguishing partition, so the order is part of the output
    u2, u3 = line_universe(3, 2), line_universe(3, 3)
    families = {
        (3, 2): (
            [c for k in range(1, 4) for c in itertools.combinations(u2, k)],
            115,
            "bd54e2d221368f7d7d8aed8a49ae7177e8a5e024eb5cbf2e6bb69f6b0d4b3ed9",
            [36, 36, 36, 2, 2, 2, 1],
        ),
        (3, 3): (
            [c for k in range(2, 7) for c in itertools.islice(itertools.combinations(u3, k), 0, 60, 6)],
            1852,
            "6c30da295d1fa9eed9ffa6f10ad6afc6bc64d58d847607b5621babbd0f518bf5",
            [288] * 6 + [36] + [4] * 9 + [2, 3, 3, 3, 2, 3, 2, 3, 2, 2, 2, 1, 2, 1, 2, 1, 1, 1]
            + [2, 2, 2, 1, 1, 1, 1, 1, 1, 2, 1, 1],
        ),
    }
    for (q, n), (subsets, total, digest, partitions) in families.items():
        h = hashlib.sha256()
        listed = 0
        counts = []
        for lines in subsets:
            _, g, aut = graph_and_aut(q, n, lines)
            for c in enumerate_proper_partitions(g):
                h.update(bytes(c.class_of))
                listed += 1
            counts.append(chi_D_exceeds_q_small(g, aut).partitions)
        assert (listed, h.hexdigest(), counts) == (total, digest, partitions), (q, n)


def test_hyperplane_lemma_at_the_direction_bound():
    # at (3,3) a proper 3-colouring's classes are 9-point independent sets,
    # which determine none of S's L directions; a set of 9 points that is
    # not an affine hyperplane determines more than direction_count_threshold
    # of the 13 directions.  So from L = 13 - 9 = 4 lines every proper
    # 3-colouring is a partition into parallel hyperplanes, and at L = 3 it
    # need not be
    q, n = 3, 3
    directions = (q ** n - 1) // (q - 1)
    bound = directions - direction_count_threshold(q, n)
    assert bound == 4
    # L -> (subsets of L lines, those with a proper 3-colouring into
    # classes that are not parallel hyperplanes)
    for size, want in ((bound, (126, 0)), (bound - 1, (84, 12))):
        subsets = list(itertools.combinations(line_universe(q, n), size))
        other = sum(
            any(
                common_hyperplane_normal(c.classes(), q, n) is None
                for c in enumerate_proper_partitions(build_graph(ConnectionSet(q, n, lines)))
            )
            for lines in subsets
        )
        assert (len(subsets), other) == want, size


def test_exceeds_q_rejects_empty():
    g = build_graph(ConnectionSet(3, 2, []))
    aut = automorphism_group(g)
    with pytest.raises(ValueError):
        chi_D_exceeds_q_small(g, aut)


def test_certificate_none_when_plus_zero_fails():
    # the nine-vertex rook-like graph admits no q+1 certificate of this shape
    _, g, aut = graph_and_aut(3, 2, lines=[(0, 1), (1, 1), (2, 1)])
    assert chi_D_upper_certificate(g, aut) is None


def test_certificate_found():
    s, g, aut = graph_and_aut(5, 3, seed=42)
    cert = chi_D_upper_certificate(g, aut)
    assert cert is not None
    assert cert.num_colors == 6
    assert is_proper(g, cert)
    rep = is_distinguishing(cert, aut)
    assert rep.distinguishing
    assert rep.fixing_order == 1


def test_certificate_on_complete_tripartite_graph(deadline):
    # p = 1 gives K_{9,9,9}: the class-fixing subgroup of the q+1 coloring
    # is S_8 x S_9 x S_9, far too large to list
    deadline(20)
    s, g, aut = graph_and_aut(3, 3, seed=1, p=1.0)
    assert len(s.lines) == 9
    assert chi_D_upper_certificate(g, aut) is None
    cert = plus_zero_recolor(coset_coloring(g))
    rep = is_distinguishing(cert, aut)
    assert rep.fixing_order == math.factorial(8) * math.factorial(9) ** 2 == 5309413982208000
    assert aut.group.contains(rep.witness)
    assert all(cert.class_of[rep.witness[x]] == cert.class_of[x] for x in range(27))


def test_certificate_rejects_empty():
    # the edgeless graph has no certificate: any 4 colours put two of its 9
    # points in one class, and Sym(9) swaps them
    g = build_graph(ConnectionSet(3, 2, []))
    aut = automorphism_group(g)
    assert aut.group.order() == 362880
    assert chi_D_upper_certificate(g, aut) is None


def test_certificate_streams_no_neighbour_masks(deadline):
    # the certificate is proper because no line of S lies in x[n-1] = 0,
    # which ConnectionSet checks, so deciding it scans no edge
    deadline(20)

    def no_masks():
        raise AssertionError("the certificate streamed the neighbour masks")

    cases = (
        (graph_and_aut(5, 3, seed=42), True),
        (graph_and_aut(3, 2, lines=[(0, 1), (1, 1), (2, 1)]), False),
        (graph_and_aut(3, 3, seed=1, p=1.0), False),
    )
    for (_, g, aut), found in cases:
        g.neighbor_masks = no_masks
        cert = chi_D_upper_certificate(g, aut)
        assert cert == (plus_zero_recolor(coset_coloring(g)) if found else None)


def test_translation_fixing_witnesses():
    s, g, aut = graph_and_aut(5, 3, seed=42)
    cc = coset_coloring(g)
    ws = translation_fixing_witnesses(cc, 5, 3)
    assert len(ws) == 24
    for b in ws:
        assert any(b)
        # witnesses live inside the hyperplane of the classes
        assert b[2] == 0
        p = tuple(affine_ids(5, 3, 1, b))
        assert all(cc.class_of[p[x]] == cc.class_of[x] for x in range(125))
        assert aut.group.contains(p)


def test_translation_witnesses_need_hyperplane_classes():
    # proper for the single-line graph, but the classes are not parallel cosets
    c = coloring_from_classes([[0, 1, 8], [2, 3, 4], [5, 6, 7]], 9)
    g = build_graph(ConnectionSet(3, 2, [(0, 1)]))
    assert is_proper(g, c)
    assert translation_fixing_witnesses(c, 3, 2) == []


def test_matches_brute_filter_on_small_groups():
    # agreement with elementwise filtering whenever the group is small
    rng = random.Random(97)
    checked = {(3, 2): 0, (3, 3): 0}
    for q, n in checked:
        for _ in range(6):
            s = sample_connection_set(q, n, 0.6, rng.randrange(10**6))
            g = build_graph(s)
            aut = automorphism_group(g)
            if aut.group.order() > 10**4:
                continue
            nv = g.num_vertices
            elements = group_elements(nv, aut.group.generators)
            ident = tuple(range(nv))
            for _ in range(4):
                labels = [rng.randrange(3) for _ in range(nv)]
                classes = [[] for _ in range(3)]
                for v, lab in enumerate(labels):
                    classes[lab].append(v)
                rep = is_distinguishing(coloring_from_classes([c for c in classes if c], nv), aut)
                brute = [p for p in elements if p != ident
                         and all(labels[p[x]] == labels[x] for x in range(nv))]
                assert rep.distinguishing == (not brute)
                assert rep.fixing_order == len(brute) + 1
                if brute:
                    assert rep.witness in brute
                checked[q, n] += 1
    assert min(checked.values()) >= 8, checked


def test_first_fixing_element_is_the_subgroups_first_generator(deadline):
    # the search that stops at the first class-fixing automorphism finds the
    # witness is_distinguishing reads off the whole class-fixing subgroup:
    # on the (q+1) certificate, on the coset colouring and on seeded random,
    # hyperplane and two-form labellings
    deadline(60)
    graphs = [graph_and_aut(3, 3, seed=seed, p=0.75)[1:] for seed in range(1, 31)]
    graphs += [graph_and_aut(5, 3, seed=seed)[1:] for seed in range(1, 41)]
    planted = build_graph(planted_homology_connection(5, 4, 1))
    graphs.append((planted, automorphism_group(planted)))
    rng = random.Random(5)
    found = Counter()
    for g, aut in graphs:
        colorings = [plus_zero_recolor(coset_coloring(g))]
        if g.n == 3:
            colorings.append(coset_coloring(g))
            points = [decode(x, g.q, g.n) for x in range(g.num_vertices)]
            for kind in ("random", "hyperplane", "two-form"):
                labels = _random_labelling(rng, kind, g.q, g.n, points)
                colorings.append(Coloring(max(labels) + 1, tuple(labels)))
        for c in colorings:
            witness = first_fixing_element(aut.group, c.class_of)
            assert witness == is_distinguishing(c, aut).witness
            found[witness is None] += 1
    assert min(found.values()) >= 20, found


def test_first_fixing_element_matches_group_elements():
    # over every line subset at (3,2), the exhaustive verdict's query finds
    # a class-fixing automorphism of a listed partition exactly when some
    # non-identity element of the whole group keeps every label.  Every
    # listed partition has one, so seeded random labellings give the
    # other answer too
    rng = random.Random(3)
    found = Counter()
    universe = line_universe(3, 2)
    for r in range(1, len(universe) + 1):
        for lines in itertools.combinations(universe, r):
            _, g, aut = graph_and_aut(3, 2, lines=lines)
            elements = group_elements(9, aut.group.generators)[1:]
            cases = [("listed", c.class_of) for c in enumerate_proper_partitions(g)]
            cases += [("random", [rng.randrange(4) for _ in range(9)]) for _ in range(4)]
            for kind, labels in cases:
                brute = any(all(labels[p[x]] == labels[x] for x in range(9)) for p in elements)
                assert (first_fixing_element(aut.group, labels) is not None) == brute
                found[kind, brute] += 1
    assert found == {("listed", True): 36 * 3 + 2 * 3 + 1, ("random", True): 19,
                     ("random", False): 9}, found


def test_fixing_translations_match_full_scan():
    # all fixing translations, on random, hyperplane and two-form labellings:
    # the library's shift tables and class check against the oracle's scan
    rng = random.Random(11)
    counts = {"scan": 0, "expected": 0}
    for q, n in ((3, 3), (5, 3), (3, 4)):
        points = [decode(x, q, n) for x in range(q**n)]
        for kind in ("random", "hyperplane", "two-form"):
            for _ in range(12):
                labels = _random_labelling(rng, kind, q, n, points)
                coloring = Coloring(max(labels) + 1, tuple(labels))
                scan = list(fixing_translations_by_scan(labels, q, n))
                tables = (affine_ids(q, n, 1, decode(w, q, n)) for w in range(1, q**n))
                assert [t for t in tables if fixes_labels(t, labels)] == scan
                normal = common_hyperplane_normal(coloring.classes(), q, n)
                expected = [decode(t[0], q, n) for t in scan] if normal is not None else []
                assert translation_fixing_witnesses(coloring, q, n) == expected
                counts["scan"] += bool(scan)
                counts["expected"] += bool(expected)
    assert min(counts.values()) >= 20, counts


def _random_labelling(rng, kind, q, n, points):
    """Uniform labels; the cosets of a random hyperplane, one label each; or
    a random function of two random linear forms."""
    if kind == "random":
        return [rng.randrange(q) for _ in points]
    if kind == "hyperplane":
        normal = (0,) * n
        while not any(normal):
            normal = tuple(rng.randrange(q) for _ in range(n))
        names = rng.sample(range(q), q)
        return [names[vec_dot(normal, x, q)] for x in points]
    forms = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(2)]
    names = {key: rng.randrange(q) for key in itertools.product(range(q), repeat=2)}
    return [names[tuple(vec_dot(f, x, q) for f in forms)] for x in points]
