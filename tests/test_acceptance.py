"""End-to-end acceptance checks.

Each test covers one numbered criterion, does all its work under a timer,
and prints a single verdict line before asserting, so a full run shows
one PASS/FAIL line per criterion even under -x.
"""

import itertools
import math
import random
import time

from linecayley.autgroup import automorphism_group, is_automorphism
from linecayley.bounds import (
    aut_union_bound,
    chernoff_report,
    monte_carlo_pipeline,
    sweep_all_line_subsets,
    theorem_qn_params,
)
from linecayley.cayley import ConnectionSet, build_graph, sample_connection_set
from linecayley.cli import main
from linecayley.coloring import (
    coloring_from_classes,
    enumerate_proper_partitions,
    exact_chromatic_number,
    is_proper,
)
from linecayley.distinguishing import chi_D_exceeds_q_small
from linecayley.field import affine_ids, decode, is_prime, is_scalar_matrix
from linecayley.geometry import line_universe
from linecayley.permgroup import first_fixing_element, fixes_labels, scalar_affine_group
from oracles import (
    brute_chromatic_number,
    brute_force_automorphisms,
    brute_line_census,
    enumerate_gl,
    fixed_line_count_eigen,
    fixed_line_count_scan,
    line_orbit_count,
    preserves_line_universe,
    translation_fixing_witnesses,
    vec_dot,
)


def _finish(num, name, limit, start, failures):
    elapsed = time.perf_counter() - start
    ok = not failures and (limit is None or elapsed < limit)
    status = "PASS" if ok else "FAIL"
    bound = f" < {limit:g}s" if limit is not None else ""
    print(f"criterion {num:02d} {name}: {status} ({elapsed:.2f}s{bound})")
    assert not failures, failures[:5]
    if limit is not None:
        assert elapsed < limit


def _nonempty_instances(q, n, count, p=0.5):
    out = []
    seed = 0
    while len(out) < count:
        s = sample_connection_set(q, n, p, seed)
        if s.lines:
            out.append(s)
        seed += 1
    return out


_shared = {}


def _twenty_trials():
    if not _shared:
        _shared.update(monte_carlo_pipeline(5, 3, 20, 20260814, jobs=1))
    return _shared


def test_criterion_01_line_census():
    start = time.perf_counter()
    failures = []
    for q in (3, 5, 7):
        for n in (2, 3, 4):
            u = line_universe(q, n)
            good, total = brute_line_census(q, n)
            if len(u) != q ** (n - 1):
                failures.append(f"universe size off at {(q, n)}: {len(u)}")
            if good != q ** (n - 1):
                failures.append(f"independent count off at {(q, n)}: {good}")
            if total != (q**n - 1) // (q - 1):
                failures.append(f"total line count off at {(q, n)}: {total}")
    _finish(1, "line census", 1.0, start, failures)


def test_criterion_02_chromatic_number():
    start = time.perf_counter()
    failures = []
    for q, n in ((3, 2), (3, 3), (5, 3)):
        for s in _nonempty_instances(q, n, 50):
            g = build_graph(s)
            res = exact_chromatic_number(g)
            if res.value != q:
                failures.append(f"chi != {q} at {(q, n)} lines={s.lines}")
                continue
            if len(res.clique) != q:
                failures.append(f"clique size off at {(q, n)}")
            if res.coloring.num_colors != q or not is_proper(g, res.coloring):
                failures.append(f"coloring not a proper {q}-coloring at {(q, n)}")
            if q == 3 and n == 2:
                neighbors = [sorted(g.neighbor_ids(v)) for v in range(g.num_vertices)]
                if brute_chromatic_number(neighbors, 9) != q:
                    failures.append(f"brute-force chi disagrees on lines={s.lines}")
    _finish(2, "chromatic number", 10.0, start, failures)


def test_criterion_03_automorphism_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    universe = list(line_universe(3, 2))
    for size in (1, 2, 3):
        for subset in itertools.combinations(universe, size):
            g = build_graph(ConnectionSet(3, 2, subset))
            aut = automorphism_group(g)
            bf = brute_force_automorphisms(g)
            if not aut.complete:
                failures.append(f"search incomplete on {subset}")
                continue
            if aut.group.order() != bf.order():
                failures.append(
                    f"order mismatch on {subset}: "
                    f"{aut.group.order()} vs {bf.order()}"
                )
            if not all(bf.contains(p) for p in aut.group.generators):
                failures.append(f"solver generator outside brute group on {subset}")
            if not all(aut.group.contains(p) for p in bf.generators):
                failures.append(f"brute generator outside solver group on {subset}")
    _finish(3, "automorphism oracle equivalence", 300.0, start, failures)


def test_criterion_04_scalar_affine_subgroup():
    start = time.perf_counter()
    failures = []
    for q in (3, 5):
        for n in (2, 3):
            k = scalar_affine_group(q, n)
            if k.order() != q**n * (q - 1):
                failures.append(f"|K| off at {(q, n)}: {k.order()}")
            for lam in range(2, q):
                p = affine_ids(q, n, lam, (0,) * n)
                fixed = sum(1 for x, y in enumerate(p) if x == y)
                if fixed != 1:
                    failures.append(f"scalar {lam} fixes {fixed} points at {(q, n)}")
            for s in _nonempty_instances(q, n, 5):
                g = build_graph(s)
                for p in k.generators:
                    if not is_automorphism(g, p):
                        failures.append(f"K generator broken on {(q, n)} {s.lines}")
                        break
    _finish(4, "scalar affine subgroup", 10.0, start, failures)


def test_criterion_05_fixed_line_statistics():
    start = time.perf_counter()
    failures = []
    for q, n in ((3, 2), (3, 3)):
        u = line_universe(q, n)
        cap = q ** (n - 2) + 1
        count = 0
        for m in enumerate_gl(q, n):
            count += 1
            f_scan = fixed_line_count_scan(m, u)
            if f_scan != fixed_line_count_eigen(m, q, n):
                failures.append(f"scan/eigen mismatch at {(q, n)}: {m}")
            if not is_scalar_matrix(m) and f_scan > cap:
                failures.append(f"fixed-line cap broken at {(q, n)}: {m} -> {f_scan}")
            if preserves_line_universe(m, q, n):
                if 2 * line_orbit_count(m, u) > f_scan + len(u):
                    failures.append(f"orbit bound broken at {(q, n)}: {m}")
        expected = 48 if n == 2 else 11232
        if count != expected:
            failures.append(f"GL size off at {(q, n)}: {count}")
    _finish(5, "fixed line statistics", 120.0, start, failures)


def test_criterion_06_distinguishing_exceeds_q():
    start = time.perf_counter()
    failures = []
    # q=3, n=2, all three lines: the only proper 3-partition, kept by a
    # non-identity automorphism
    g = build_graph(ConnectionSet(3, 2, [(0, 1), (1, 1), (2, 1)]))
    aut = automorphism_group(g)
    verdict = chi_D_exceeds_q_small(g, aut)
    if not verdict.exceeds or verdict.partitions != 1:
        failures.append(f"exhaustive check off: {verdict.exceeds}, {verdict.partitions}")
    for coloring in enumerate_proper_partitions(g):
        w = first_fixing_element(aut.group, coloring.class_of)
        if w is None or w == tuple(range(9)) or not is_automorphism(g, w):
            failures.append("witness is not a non-identity automorphism")
        elif not fixes_labels(w, coloring.class_of):
            failures.append("witness moves a class")
    rows = sweep_all_line_subsets()
    if len(rows) != 7 or not all(r["chiD_exceeds_q"] for r in rows):
        failures.append("census misses a subset or a verdict")
    # every hyperplane-coset 5-partition admits a class-fixing translation
    sample_graph = build_graph(sample_connection_set(5, 3, 0.5, 42))
    rng = random.Random(60)
    for trial in range(1000):
        normal = tuple(rng.randrange(5) for _ in range(3))
        if not any(normal):
            normal = (0, 0, 1)
        classes = [[] for _ in range(5)]
        for x in range(125):
            classes[vec_dot(normal, decode(x, 5, 3), 5)].append(x)
        coloring = coloring_from_classes(classes, 125)
        ws = translation_fixing_witnesses(coloring, 5, 3)
        if len(ws) != 24:
            failures.append(f"witness count off for normal {normal}: {len(ws)}")
            break
        if trial < 10:
            for b in ws[:3]:
                if not is_automorphism(sample_graph, affine_ids(5, 3, 1, b)):
                    failures.append(f"witness not an automorphism: {b}")
    _finish(6, "distinguishing exceeds q", 300.0, start, failures)


def test_criterion_07_plus_zero_certificate():
    start = time.perf_counter()
    failures = []
    agg = _twenty_trials()
    stats = agg["aggregate"]
    if stats["trials"] != 20 or stats["solved"] != 20:
        failures.append(f"trials not all solved: {stats}")
    hits = [r for r in agg["records"] if r["equals_K"]]
    if not hits:
        failures.append("no instance with the scalar-affine group; nothing to certify")
    for r in hits:
        if r["certificate"] is not True:
            failures.append(f"certificate failed on seed {r['seed']}")
    # the certificate is tried on every solved instance, case (ii) included
    certified = sum(1 for r in agg["records"] if r["certificate"] is True)
    if stats["cert_success"] != certified or certified < len(hits):
        failures.append(
            f"aggregate cert count {stats['cert_success']} != {certified}, or below {len(hits)}"
        )
    _finish(7, "plus-zero certificate", 600.0, start, failures)


def test_criterion_08_union_bound_chain():
    start = time.perf_counter()
    failures = []
    u6 = aut_union_bound(5, 6)
    if u6["chain_holds"] is not True or u6["gl_refinement_holds"] is not True:
        failures.append(f"chain not confirmed at (5,6): {u6}")
    # integer form of the decision, no floats involved
    e3 = 5**5 - 3 * 5**4 - 3
    if not (e3 > 0 and 5 ** (6 * 36) < (1 << e3)):
        failures.append("integer chain recheck failed at (5,6)")
    if u6["rhs_log2"] - u6["lhs_log2"] <= 1.0:
        failures.append("margin at (5,6) is under one bit")
    u5 = aut_union_bound(5, 5)
    if not isinstance(u5["chain_holds"], bool):
        failures.append("no verdict reported at (5,5)")
    if u5["chain_holds"] is not False:
        failures.append("verdict at (5,5) should be negative")
    _finish(8, "union bound chain", 1.0, start, failures)


def test_criterion_09_tail_bounds():
    start = time.perf_counter()
    failures = []
    for q in (5, 7):
        for n in (4, 5):
            r = chernoff_report(q, n)
            if r["line_reading"]["le_closed_form"] is not True:
                failures.append(f"line tail above closed form at {(q, n)}")
    # fewer than one expected violation in 10^4 draws at (5,5), read exactly
    r = chernoff_report(5, 5)
    for reading in ("line_reading", "element_reading"):
        if not r[reading]["log2"] < -math.log2(10**4):
            failures.append(f"{reading} at (5,5) expects a violation in 10^4 draws: {r[reading]}")
    _finish(9, "tail bounds", 1.0, start, failures)


def test_criterion_10_prime_window_pipeline():
    agg = _twenty_trials()
    start = time.perf_counter()
    failures = []
    for k in range(4, 13):
        t = theorem_qn_params(k, n=3)
        q = t["q"]
        if not (is_prime(q) and k < q < 2 * k):
            failures.append(f"bad prime at k={k}: {q}")
        if t["check"] is not True or t["aut_below_bound"] is not True:
            failures.append(f"window check failed at k={k}")
    freq = agg["aggregate"]["equals_K_frequency"]
    if not 0.0 <= freq <= 1.0:
        failures.append(f"frequency out of range: {freq}")
    print(f"observed scalar-affine frequency over 20 trials: {freq:.2f}")
    _finish(10, "prime window pipeline", 1.0, start, failures)


def test_criterion_11_determinism(tmp_path):
    start = time.perf_counter()
    failures = []

    def run_bytes(name, *argv):
        out = tmp_path / name
        code = main(list(argv) + ["--out", str(out)])
        if code != 0:
            failures.append(f"exit {code} for {argv}")
        return out.read_bytes()

    a = run_bytes("s1.json", "sample", "--q", "5", "--n", "3", "--seed", "42", "--no-meta")
    b = run_bytes("s2.json", "sample", "--q", "5", "--n", "3", "--seed", "42", "--no-meta")
    if a != b:
        failures.append("sample bytes differ between runs")
    base = ["experiment", "--q", "5", "--n", "3", "--seed", "11", "--trials", "4",
            "--format", "csv", "--no-meta"]
    runs = [
        run_bytes("e1.csv", *base, "--jobs", "1"),
        run_bytes("e2.csv", *base, "--jobs", "1"),
        run_bytes("e3.csv", *base, "--jobs", "2"),
        run_bytes("e4.csv", *base, "--jobs", "2"),
    ]
    if len(set(runs)) != 1:
        failures.append("experiment csv differs across runs or job counts")
    jbase = ["experiment", "--q", "5", "--n", "3", "--seed", "11", "--trials", "4",
             "--no-meta"]
    jn1 = run_bytes("j1.json", *jbase, "--jobs", "1")
    jn2 = run_bytes("j2.json", *jbase, "--jobs", "2")
    if jn1 != jn2:
        failures.append("experiment json differs across job counts")
    d1 = run_bytes("g1.txt", "build", "--q", "3", "--n", "2", "--seed", "1",
                   "--format", "dimacs", "--no-meta")
    d2 = run_bytes("g2.txt", "build", "--q", "3", "--n", "2", "--seed", "1",
                   "--format", "dimacs", "--no-meta")
    if d1 != d2:
        failures.append("dimacs bytes differ between runs")
    _finish(11, "determinism", None, start, failures)
