import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecayley.cayley import ConnectionSet, build_graph, sample_connection_set
from linecayley.coloring import (
    Coloring,
    coloring_from_classes,
    coset_coloring,
    enumerate_proper_partitions,
    exact_chromatic_number,
    is_proper,
    plus_zero_recolor,
)
from linecayley.field import encode, vec_scale
from linecayley.geometry import line_universe
from oracles import (
    brute_chromatic_number, brute_partition_count, is_edge, proper_by_edge_scan, vec_add,
)


def _neighbors(g):
    return [sorted(g.neighbor_ids(v)) for v in range(g.num_vertices)]


def test_coloring_from_classes():
    c = coloring_from_classes([[0, 1], [2]], 3)
    assert c.num_colors == 2
    assert c.class_of == (0, 0, 1)
    assert c.classes() == [[0, 1], [2]]
    with pytest.raises(ValueError):
        coloring_from_classes([[0, 1], [1, 2]], 3)
    with pytest.raises(ValueError):
        coloring_from_classes([[0, 1]], 3)


def test_coloring_json_roundtrip():
    c = coloring_from_classes([[0, 2], [1]], 3)
    d = c.to_json_dict()
    assert d["num_colors"] == 2
    assert d["classes"] == [[0, 2], [1]]
    assert Coloring.from_json_dict(d) == c


def test_coset_coloring_proper():
    for q, n, seed in ((3, 2, 1), (3, 3, 2), (5, 3, 3)):
        s = sample_connection_set(q, n, 0.5, seed)
        if not s.lines:
            continue
        g = build_graph(s)
        c = coset_coloring(g)
        assert c.num_colors == q
        assert is_proper(g, c)
        assert [len(cl) for cl in c.classes()] == [q ** (n - 1)] * q
        assert c.class_of == tuple(i // q ** (n - 1) for i in range(q ** n))
        # every coset coloring of the size shares one label tuple
        other = build_graph(sample_connection_set(q, n, 1, seed))
        assert coset_coloring(other).class_of is c.class_of


def test_coset_coloring_empty_raises():
    from linecayley.cayley import ConnectionSet

    g = build_graph(ConnectionSet(3, 2, []))
    with pytest.raises(ValueError):
        coset_coloring(g)


def test_is_proper_detects_conflict():
    s = ConnectionSet(3, 2, [(0, 1)])
    g = build_graph(s)
    # vertex 0 and 0 + (0,1) = id 3 are adjacent
    labels = [0] * 9
    labels[3] = 0
    bad = Coloring(1, tuple(labels))
    assert not is_proper(g, bad)
    # the certificate puts 0 in a class of its own, so moving one neighbour u
    # of 0 into that class leaves exactly one conflicting edge, {0, u}
    g = build_graph(sample_connection_set(5, 3, 0.5, 42))
    cert = plus_zero_recolor(coset_coloring(g))
    assert is_proper(g, cert)
    u = g.neighbor_ids(0)[0]
    labels = list(cert.class_of)
    labels[u] = labels[0]
    conflicts = {(v, w) for v in range(g.num_vertices) for w in g.neighbor_ids(v) if v < w and labels[v] == labels[w]}
    assert conflicts == {(0, u)}
    assert not is_proper(g, Coloring(cert.num_colors, tuple(labels)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_is_proper_matches_edge_scan(data):
    q, n = data.draw(st.sampled_from(((3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2))))
    # a line whose digit i < n-1 is nonzero, so u + s can carry into digit i+1
    i = data.draw(st.integers(0, n - 2))
    line = data.draw(st.sampled_from([l for l in line_universe(q, n) if l[i]]))
    sampled = sample_connection_set(q, n, data.draw(st.sampled_from((0.1, 0.5))), data.draw(st.integers(0, 9)))
    g = build_graph(ConnectionSet(q, n, set(sampled.lines) | {line}))
    size = g.num_vertices
    k = data.draw(st.integers(1, q + 1))
    labels = data.draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size))
    assert is_proper(g, Coloring(k, tuple(labels))) == proper_by_edge_scan(g, labels)

    proper = plus_zero_recolor(coset_coloring(g))
    assert is_proper(g, proper) and proper_by_edge_scan(g, proper.class_of)
    s = vec_scale(data.draw(st.integers(1, q - 1)), line, q)
    u = [data.draw(st.integers(0, q - 1)) for _ in range(n)]
    u[i] = data.draw(st.integers(q - s[i], q - 1))
    labels = list(proper.class_of)
    labels[encode(vec_add(u, s, q), q)] = labels[encode(u, q)]
    assert not is_proper(g, Coloring(q + 1, tuple(labels)))
    assert not proper_by_edge_scan(g, labels)


def test_exact_chromatic_number_structure():
    sampled = (sample_connection_set(q, n, 0.5, seed) for q, n, seed in ((3, 2, 5), (5, 3, 6)))
    for s in (*sampled, ConnectionSet(5, 3, [(1, 2, 1), (0, 0, 1)])):
        if not s.lines:
            continue
        g = build_graph(s)
        res = exact_chromatic_number(g)
        assert res.value == s.q
        assert len(res.clique) == s.q
        # each pair of the clique is an edge
        for i, u in enumerate(res.clique):
            for v in res.clique[:i]:
                assert is_edge(g, u, v)
        assert is_proper(g, res.coloring)
        assert res.coloring.num_colors == s.q


def test_exact_chromatic_number_empty():
    from linecayley.cayley import ConnectionSet

    g = build_graph(ConnectionSet(3, 2, []))
    res = exact_chromatic_number(g)
    assert res.value == 1


def test_backtracking_agrees_with_brute():
    rng = random.Random(17)
    seeds = [rng.randrange(10**6) for _ in range(8)]
    for seed in seeds:
        s = sample_connection_set(3, 2, 0.5, seed)
        if not s.lines:
            continue
        g = build_graph(s)
        res = exact_chromatic_number(g)
        assert res.value == brute_chromatic_number(_neighbors(g), 9)
        assert res.value == 3


def test_enumerate_proper_partitions_counts():
    s = ConnectionSet(3, 2, [(0, 1)])
    g = build_graph(s)
    got = sum(1 for _ in enumerate_proper_partitions(g))
    assert got == 36
    assert got == brute_partition_count(_neighbors(g), 3)
    s3 = ConnectionSet(3, 2, [(0, 1), (1, 1), (2, 1)])
    g3 = build_graph(s3)
    assert sum(1 for _ in enumerate_proper_partitions(g3)) == 1


def test_enumerate_proper_partitions_yields_proper():
    s = ConnectionSet(3, 2, [(0, 1), (1, 1)])
    g = build_graph(s)
    seen = set()
    for c in enumerate_proper_partitions(g):
        assert is_proper(g, c)
        key = tuple(tuple(cl) for cl in c.classes())
        assert key not in seen
        seen.add(key)
    assert len(seen) == brute_partition_count(_neighbors(g), 3)


def test_enumerate_deeper_than_recursion_limit():
    # 2,187 vertices and no edges: the first partition puts every vertex in
    # class 0, and the second moves the last vertex to class 1, so the walk
    # backs up through a stack deeper than the recursion limit
    g = build_graph(ConnectionSet(3, 7, []))
    partitions = enumerate_proper_partitions(g)
    assert next(partitions) == Coloring(1, (0,) * 2187)
    assert next(partitions) == Coloring(2, (0,) * 2186 + (1,))


def test_plus_zero_recolor():
    s = sample_connection_set(5, 3, 0.5, 42)
    g = build_graph(s)
    c = coset_coloring(g)
    r = plus_zero_recolor(c)
    assert r.num_colors == c.num_colors + 1
    assert r.class_of[0] == c.num_colors
    assert all(r.class_of[x] == c.class_of[x] for x in range(1, 125))
    assert is_proper(g, r)
