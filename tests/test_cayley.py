import io
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from linecayley import cayley
from linecayley.autgroup import _ScalarOrbits, _Vertices
from linecayley.cayley import (
    ConnectionSet,
    _Space,
    _space,
    build_graph,
    sample_connection_set,
)
from linecayley.coloring import coset_coloring
from linecayley.errors import InvariantViolation
from linecayley.field import (
    MAX_VERTICES,
    affine_ids,
    decode,
    encode,
    require_space,
    vec_scale,
)
from linecayley.geometry import line_points, line_universe
from oracles import is_edge, masks_by_shift_tables, rank, vec_add


def test_huge_sizes_are_refused_before_any_table(no_tables):
    # past MAX_VERTICES = 2^20 vertices, a line universe and a sampled or
    # given connection set are each refused at once with ValueError, before
    # any table: at (3,40) the tables would fill any memory.  A graph is
    # built only from a connection set, so it needs no check of its own
    builders = (
        lambda: line_universe(3, 40),
        lambda: line_universe(5, 9),
        lambda: sample_connection_set(3, 40, 0.5, 1),
        lambda: ConnectionSet(3, 40, [(0,) * 39 + (1,)]),
        lambda: ConnectionSet.from_json_dict({"q": 3, "n": 10**9, "lines": []}),
    )
    tracemalloc.start()
    try:
        for build in builders:
            with pytest.raises(ValueError, match="MAX_VERTICES"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_the_size_cap():
    # (5,8), the largest size README runs, and (7,7), (31,4) and (3,12) are
    # below 2^20 vertices; (3,13), (11,6) and (5,9) are above it
    assert MAX_VERTICES == 2**20
    for q, n in ((5, 8), (7, 7), (31, 4), (3, 12), (3, 2)):
        require_space(q, n)
    for q, n in ((3, 13), (11, 6), (5, 9), (3, 10**9)):
        with pytest.raises(ValueError, match="MAX_VERTICES"):
            require_space(q, n)
    for q, n in ((3, 1), (2, 3), (9, 2)):
        with pytest.raises(ValueError):
            require_space(q, n)


def test_from_lines_examples():
    s = ConnectionSet(3, 2, [(0, 1)])
    assert s.members == frozenset({(0, 1), (0, 2)})
    s3 = ConnectionSet(3, 2, [(0, 1), (1, 1), (2, 1)])
    assert len(s3.members) == 6


def test_from_lines_canonicalizes():
    s = ConnectionSet(3, 2, [(0, 2)])
    assert s.lines == ((0, 1),)


def test_from_lines_rejects_hyperplane_line():
    with pytest.raises(ValueError):
        ConnectionSet(3, 2, [(1, 0)])


def test_from_lines_rejects_duplicates():
    with pytest.raises(ValueError):
        ConnectionSet(3, 2, [(0, 1), (0, 2)])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_multiples_give_the_same_set(data):
    # each line given as c rep + q k (1, ..., 1) for a nonzero c and k in
    # -2..2, so some coordinates fall outside [0, q), against the reps
    q = data.draw(st.sampled_from([3, 5, 7]))
    n = data.draw(st.integers(2, 4))
    reps = data.draw(st.lists(st.sampled_from(line_universe(q, n).lines), unique=True, max_size=q))
    multiples = [
        tuple(c * a + q * k for a in rep)
        for rep, c, k in zip(
            reps,
            data.draw(st.lists(st.integers(1, q - 1), min_size=len(reps), max_size=len(reps))),
            data.draw(st.lists(st.integers(-2, 2), min_size=len(reps), max_size=len(reps))),
        )
    ]
    s, t = ConnectionSet(q, n, reps), ConnectionSet(q, n, multiples)
    assert t.lines == s.lines == tuple(sorted(reps))
    assert t.members == s.members


@pytest.mark.parametrize(
    "lines, message",
    [
        ([(1, 1)], "line (1, 1) has wrong dimension"),
        ([(2, 3, 0)], "line (2, 3, 0) lies inside the hyperplane x[2] = 0"),
        ([(1, 2, 1), (2, 4, 2)], "duplicate line (2, 4, 2)"),
        ([(0, 0, 0)], "zero vector spans no line"),
    ],
    ids=["short-ending-in-1", "hyperplane", "duplicate-multiple", "zero"],
)
def test_from_lines_error_messages(lines, message):
    with pytest.raises(ValueError) as exc:
        ConnectionSet(5, 3, lines)
    assert str(exc.value) == message


def test_connection_requires_odd_prime():
    with pytest.raises(ValueError):
        ConnectionSet(4, 2, [])
    with pytest.raises(ValueError):
        ConnectionSet(2, 2, [])
    with pytest.raises(ValueError):
        ConnectionSet(3, 1, [])


def test_sample_deterministic():
    a = sample_connection_set(5, 3, 0.5, 7)
    b = sample_connection_set(5, 3, 0.5, 7)
    assert a.lines == b.lines
    c = sample_connection_set(5, 3, 0.5, 8)
    assert a.lines != c.lines or a.q == c.q  # different seed, usually differs


def test_sample_seed_required():
    with pytest.raises(ValueError):
        sample_connection_set(3, 2, 0.5, None)


def test_sample_extremes():
    assert sample_connection_set(3, 2, 0.0, 1).lines == ()
    assert len(sample_connection_set(3, 2, 1.0, 1).lines) == 3


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_members_closure(data):
    # random line lists, non-canonical multiples included, checked against
    # every scalar and negation: the reference for _validate's one generator
    q = data.draw(st.sampled_from([3, 5, 7]))
    n = data.draw(st.integers(2, 4))
    lines = data.draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), max_size=q))
    try:
        s = ConnectionSet(q, n, lines)
    except ValueError:
        reject()
    for v in s.members:
        assert v[-1] != 0
        assert tuple(-a % q for a in v) in s.members
        for lam in range(2, q):
            assert vec_scale(lam, v, q) in s.members
    assert len(s.members) == (q - 1) * len(s.lines)


@pytest.mark.parametrize(
    "broken, message",
    [
        # 2 (0, 1, 1) dropped for a point of the unchosen line (1, 1, 1)
        (lambda good: good - {(0, 2, 2)} | {(1, 1, 1)}, "not closed under scalars"),
        # the line (0, 1, 1) traded for the line (1, 0, 0) inside x[2] = 0
        (lambda good: good - line_points((0, 1, 1), 5) | line_points((1, 0, 0), 5),
         "excluded hyperplane"),
        # 0 in place of 2 (0, 1, 1): either check catches it
        (lambda good: good - {(0, 2, 2)} | {(0, 0, 0)}, "excluded hyperplane|not closed"),
        # a whole admissible line more than the lines account for
        (lambda good: good | line_points((1, 1, 1), 5), "overlap"),
    ],
    ids=["multiple-dropped", "hyperplane-point", "zero", "count"],
)
def test_validate_rejects_broken_members(broken, message):
    s = ConnectionSet(5, 3, [(0, 1, 1), (2, 3, 1)])
    s._validate()
    s.members = frozenset(broken(s.members))
    with pytest.raises(InvariantViolation, match=message):
        s._validate()


def test_line_cache_checks_each_line_closed_under_scalars(monkeypatch):
    # a line enters the cache only with its q - 1 points closed under the
    # scalars; here one of them is traded for a point of another line
    def traded(rep, q):
        return sorted(line_points(rep, q))[:-1] + [(1, 1, 1)]

    monkeypatch.setattr(cayley, "line_points", traded)
    with pytest.raises(InvariantViolation, match="not closed under scalars"):
        cayley._Space(5, 3)[(0, 1, 1)]


def test_lines_sorted_universe_order():
    s = sample_connection_set(5, 3, 0.5, 9)
    assert list(s.lines) == sorted(s.lines)
    assert all(rep[-1] == 1 for rep in s.lines)


def test_sampled_lines_are_the_universes_own():
    # a sampled line is looked up in the universe and kept as its tuple;
    # the same lines given as lists, as multiples or past q are
    # canonicalized to the same lines and members
    s = sample_connection_set(5, 4, 0.5, 3)
    assert all(rep is _space(5, 4).universe[rep][0] for rep in s.lines)
    for lines in (
        [list(rep) for rep in s.lines],
        [vec_scale(2, rep, 5) for rep in s.lines],
        [tuple(a + 5 for a in rep) for rep in s.lines],
    ):
        t = ConnectionSet(5, 4, lines)
        assert (t.lines, t.members) == (s.lines, s.members)


def test_json_roundtrip():
    s = sample_connection_set(3, 3, 0.5, 4)
    d = s.to_json_dict()
    assert d["q"] == 3 and d["n"] == 3
    t = ConnectionSet.from_json_dict(d)
    assert t.lines == s.lines


def test_graph_basics():
    s = ConnectionSet(3, 2, [(0, 1), (1, 1), (2, 1)])
    g = build_graph(s)
    assert g.num_vertices == 9
    assert g.degree == 6
    assert g.num_edges == 27
    assert encode((1, 1), 3) in g.neighbor_ids(0)
    assert encode((1, 0), 3) not in g.neighbor_ids(0)
    assert 0 not in g.neighbor_ids(0)


def test_adjacency_rule():
    # u ~ v exactly when u - v lands in the member set
    s = sample_connection_set(3, 3, 0.5, 2)
    g = build_graph(s)
    q, n = 3, 3
    for u in range(27):
        for v in range(27):
            du = decode(u, q, n)
            dv = decode(v, q, n)
            diff = tuple((a - b) % q for a, b in zip(du, dv))
            assert (v in g.neighbor_ids(u)) == (diff in s.members)


def test_neighbors_and_masks():
    s = sample_connection_set(5, 3, 0.5, 11)
    g = build_graph(s)
    masks = g.adjacency_masks()
    for v in range(125):
        nbrs = sorted(g.neighbor_ids(v))
        assert nbrs == [u for u in range(125) if masks[v] >> u & 1]
        assert len(nbrs) == g.degree
    for v in (0, 1, 17, 124):
        for u in g.neighbor_ids(v):
            assert is_edge(g, u, v)


@pytest.mark.parametrize(
    "q, n", [(3, 2), (3, 3), (5, 3), (7, 2), (11, 2), (3, 5), (5, 4), (5, 5), (31, 3)]
)
def test_adjacency_masks_match_shift_tables(q, n):
    # digit wraps at q = 3 and q = 11, the two-digit odometer at n = 2, and
    # the longest run along e_0 at q = 31.  The oracle takes V |S| big-int
    # steps, so at (31, 3), V = 29,791, S is two lines whose points take
    # every value of digit 0, not a sample or the universe
    if q == 31:
        sets = [[], [(1, 0, 1), (3, 7, 1)]]
    else:
        sets = [[], list(line_universe(q, n))]
        sets.append(sample_connection_set(q, n, 0.5, 1).lines)
    for lines in sets:
        g = build_graph(ConnectionSet(q, n, lines))
        assert g.adjacency_masks() == masks_by_shift_tables(g)


def test_graphs_from_a_warm_line_cache_match_shift_tables():
    # each size's line cache is warm from the instances before, with the
    # other sizes built in between; the last set's cache is evicted by four
    # other sizes before its graph is built, and is filled again
    def check(g):
        masks = masks_by_shift_tables(g)
        assert g.adjacency_masks() == masks
        for v, mask in enumerate(masks):
            ids = g.neighbor_ids(v)
            assert len(ids) == g.degree
            assert set(ids) == {u for u in range(g.num_vertices) if mask >> u & 1}

    for seed in range(3):
        for q, n in ((3, 3), (5, 3), (5, 4)):
            check(build_graph(sample_connection_set(q, n, 0.5, seed)))
    s = sample_connection_set(3, 3, 0.5, 7)
    for q, n in ((3, 2), (5, 2), (7, 2), (3, 4)):
        sample_connection_set(q, n, 0.5, 7)
    assert not _space(3, 3)
    check(build_graph(s))


@pytest.mark.parametrize("q, n", [(3, 2), (3, 3), (5, 3), (7, 2)])
def test_addition_tables_add(q, n):
    # the tables, and the graph's translate and multiples built on them,
    # agree with vector arithmetic; at odd n the low split digit holds one
    # base-q digit more than the high one
    m, (lo, hi, _) = _space(q, n).split, _space(q, n).tables
    for w in range(q ** n):
        for s in range(q ** n):
            want = encode(vec_add(decode(w, q, n), decode(s, q, n), q), q)
            assert lo[w % m][s % m] + hi[w // m][s // m] == want
    g = build_graph(sample_connection_set(q, n, 0.5, 1))
    rng = random.Random(q * 100 + n)
    for x in [0, q ** n - 1, *rng.sample(range(q ** n), min(q ** n, 10))]:
        u = decode(x, q, n)
        assert g.multiples(x) == [encode(vec_scale(c, u, q), q) for c in range(1, q)]
        ids = [rng.randrange(q ** n) for _ in range(rng.randrange(30))]
        want = [encode(vec_add(u, decode(z, q, n), q), q) for z in ids]
        assert g.translate(x, ids) == want
        assert g.translate(x, range(q ** n)) == affine_ids(q, n, 1, u)


@pytest.mark.parametrize("q, n", [(3, 3), (5, 3), (3, 4)])
def test_spanned_lists_the_span(q, n):
    # [0] spanned by the unit ids q^j in turn lists every id in order, the
    # order quotient's cosets rely on; over random independent points, each
    # step lists ids, then z + c x for c = 1..q-1 and z in ids, by vector
    # arithmetic, and the whole is their span, each point once
    g = build_graph(sample_connection_set(q, n, 0.5, 1))
    ids = [0]
    for j in range(n):
        ids = g.spanned(ids, q ** j)
    assert ids == list(range(q ** n))
    rng = random.Random(q * 100 + n)
    for d in [1, n, *(rng.randrange(1, n + 1) for _ in range(4))]:
        while rank(basis := [decode(rng.randrange(q ** n), q, n) for _ in range(d)], q) < d:
            pass
        ids = [0]
        for u in basis:
            x = encode(u, q)
            want = [*ids, *(encode(vec_add(decode(z, q, n), vec_scale(c, u, q), q), q)
                            for c in range(1, q) for z in ids)]
            ids = g.spanned(ids, x)
            assert ids == want
        span = set()
        for coefficients in itertools.product(range(q), repeat=d):
            v = (0,) * n
            for c, u in zip(coefficients, basis):
                v = vec_add(v, vec_scale(c, u, q), q)
            span.add(encode(v, q))
        assert len(set(ids)) == len(ids) == q ** d
        assert set(ids) == span


@pytest.mark.parametrize("q, n", [(3, 2), (3, 5), (5, 4), (7, 3)])
def test_graphs_of_one_size_share_one_table_build(q, n):
    # the graphs of one size hold one _Space.  After every graph has listed
    # its neighbours and streamed its masks, and the search's scalar orbits
    # and the coset coloring have read theirs, the tables they share are
    # the same objects and still equal a fresh build
    graphs = [build_graph(sample_connection_set(q, n, p, 1)) for p in (0.5, 1)]
    for g in graphs:
        g.adjacency_masks()
        for v in range(g.num_vertices):
            g.neighbor_ids(v)
    space = graphs[0].space
    assert graphs[1].space is space is _space(q, n)
    fresh = _Space(q, n)
    for g in graphs:
        assert (g._split, (g._lo, g._hi, g.steps)) == (fresh.split, fresh.tables)
        orbits = _ScalarOrbits(g, _Vertices(g.neighbor_ids, g.num_vertices, g.degree))
        assert orbits.reps is space.scalar_orbits[0] and orbits.orbit_of is space.scalar_orbits[1]
        assert coset_coloring(g).class_of is space.coset_labels
    assert graphs[0]._lo is graphs[1]._lo and graphs[0].steps is graphs[1].steps
    assert (space.scalar_orbits, space.coset_labels) == (fresh.scalar_orbits, fresh.coset_labels)


def test_sampling_builds_no_addition_table(monkeypatch):
    # the addition tables are built on a graph's first read, not with the
    # size's lines and universe: with affine_ids, which builds them, made
    # to fail, a fresh size still samples, and its first graph fails
    def no_affine_ids(*args):
        raise AssertionError("an addition table was built")

    monkeypatch.setattr(cayley, "affine_ids", no_affine_ids)
    _space.cache_clear()
    s = sample_connection_set(5, 4, 0.5, 1)
    with pytest.raises(AssertionError, match="an addition table was built"):
        build_graph(s)


def test_shift_table_is_automorphism():
    s = sample_connection_set(3, 2, 0.5, 3)
    g = build_graph(s)
    rng = random.Random(0)
    for _ in range(5):
        shift = tuple(rng.randrange(3) for _ in range(2))
        p = affine_ids(3, 2, 1, shift)
        assert sorted(p) == list(range(9))
        for u in range(9):
            for v in g.neighbor_ids(u):
                assert is_edge(g, p[u], p[v])


def test_write_dimacs():
    s = ConnectionSet(3, 2, [(0, 1)])
    g = build_graph(s)
    buf = io.StringIO()
    g.write_dimacs(buf)
    out = buf.getvalue().splitlines()
    assert out[0] == "p edge 9 9"
    assert len(out) == 10
    for line in out[1:]:
        _, a, b = line.split()
        assert 1 <= int(a) <= 9 and 1 <= int(b) <= 9


def test_empty_connection_set():
    s = ConnectionSet(3, 2, [])
    g = build_graph(s)
    assert g.degree == 0
    assert g.num_edges == 0
    assert g.neighbor_ids(0) == []


def test_expected_lines_at_5_5():
    # lines ~ Binomial(625, 1/2): mean 312.5, sd 12.5
    total = 0
    trials = 60
    for seed in range(trials):
        total += len(sample_connection_set(5, 5, 0.5, seed).lines)
    mean = total / trials
    assert abs(mean - 312.5) < 3 * 12.5 / trials**0.5
    s = sample_connection_set(5, 5, 0.5, 0)
    assert len(s.members) == 4 * len(s.lines)
