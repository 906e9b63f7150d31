import concurrent.futures
import math
import os
import random
from fractions import Fraction

import pytest

from linecayley.bounds import (
    EXACT_TRIALS,
    aut_union_bound,
    binomial_tail_log2,
    chernoff_report,
    exact_binomial_tail,
    monte_carlo_pipeline,
    run_single_trial,
    sweep_all_line_subsets,
    theorem_qn_params,
    trial_rows,
)
from linecayley.autgroup import automorphism_group, dichotomy_check
from linecayley.cayley import build_graph, sample_connection_set
from linecayley.distinguishing import chi_D_upper_certificate


def test_exact_binomial_tail():
    # Bin(4, 1/2): P[X <= 1] = (1+4)/16
    assert exact_binomial_tail(4, 1) == Fraction(5, 16)
    assert exact_binomial_tail(4, 0) == Fraction(1, 16)
    assert exact_binomial_tail(4, 4) == 1
    assert exact_binomial_tail(1, 0) == Fraction(1, 2)
    total = sum(
        Fraction(math.comb(9, j), 2**9) for j in range(4)
    )
    assert exact_binomial_tail(9, 3) == total


def test_tails_match_comb_sums():
    # t >= n sums every term, t < 0 none
    for n_trials, t in ((1, 0), (9, 3), (40, 17), (200, 99), (301, 300), (12, 12), (12, 30), (5, -1), (5, -7)):
        total = sum(math.comb(n_trials, j) for j in range(min(t, n_trials) + 1))
        assert exact_binomial_tail(n_trials, t) == Fraction(total, 2**n_trials)
        if t < 0:
            assert binomial_tail_log2(n_trials, t) == float("-inf")
        else:
            assert abs(binomial_tail_log2(n_trials, t) - (math.log2(total) - n_trials)) < 1e-9


def test_log2_matches_exact():
    rng = random.Random(5)
    for _ in range(25):
        n_trials = rng.randrange(1, 400)
        t = rng.randrange(0, n_trials + 1)
        exact = float(math.log2(exact_binomial_tail(n_trials, t)))
        approx = binomial_tail_log2(n_trials, t)
        assert abs(exact - approx) < 1e-9


def test_log_space_tail_matches_exact():
    # past EXACT_TRIALS: chernoff_report's two readings at (5,6), (5,7) and
    # (3,9), then random tails below n_trials / 2, each against the log2 of
    # the exact fraction's numerator and denominator
    def exact_log2(n_trials, t):
        f = exact_binomial_tail(n_trials, t)
        return math.log2(f.numerator) - math.log2(f.denominator)

    for q, n in ((5, 6), (5, 7), (3, 9)):
        num_lines = q ** (n - 1)
        for t in ((num_lines - q ** (n - 2)) // 2 - 1, (q ** (n - 2) - 1) // 2):
            exact = exact_log2(num_lines, t)
            assert abs(binomial_tail_log2(num_lines, t) - exact) <= 1e-12 * abs(exact)
    rng = random.Random(6)
    for _ in range(25):
        n_trials = rng.randrange(EXACT_TRIALS + 1, 6000)
        t = rng.randrange(0, (n_trials + 1) // 2)
        assert abs(binomial_tail_log2(n_trials, t) - exact_log2(n_trials, t)) < 1e-9


def test_log_space_tail_far_past_the_exact_range():
    # the line reading at q near 10^4 and 10^5, where ln C(n_trials, t) and
    # n_trials ln 2 agree in all but their last few digits, against 50 digits
    # of mpmath: loggamma for C(n_trials, t), and the sum of the terms below
    # it in 200-bit fixed point, stopped once a term is 2^-80 of the sum
    mpmath = pytest.importorskip("mpmath")
    loggamma = mpmath.loggamma
    one = 1 << 200
    for q, n in ((10007, 3), (99991, 3), (99991, 4), (99991, 6)):
        num_lines = q ** (n - 1)
        t = (num_lines - q ** (n - 2)) // 2 - 1
        total = term = one
        for j in range(t, 0, -1):
            term = term * j // (num_lines - j + 1)
            total += term
            if term <= total >> 80:
                break
        with mpmath.workdps(50):
            log_comb = loggamma(num_lines + 1) - loggamma(t + 1) - loggamma(num_lines - t + 1)
            want = (log_comb + mpmath.log(mpmath.mpf(total) / one)) / mpmath.log(2) - num_lines
        got = binomial_tail_log2(num_lines, t)
        assert abs(got - want) <= 1e-12 * abs(want), (q, n, got, want)


def test_log_space_tail_sum_holds_its_digits_at_99991_3():
    # the line reading at (99991, 3), whose tail P is near 2^-2.66, so that
    # ln S, S the sum of the terms C(n, j) / C(n, t) below C(n, t), carries
    # most of its digits: against a Fraction S, each term read down to a
    # multiple of 2^-256 (about 10^6 of them, so S is off by under 2^-235),
    # and 50 digits of mpmath for ln C(n, t).  Summed in floats the terms
    # drifted by 2.8e-13 of the result
    mpmath = pytest.importorskip("mpmath")
    q, n = 99991, 3
    num_lines = q ** (n - 1)
    t = (num_lines - q ** (n - 2)) // 2 - 1
    one = 1 << 256
    total = term = one
    for j in range(t, 0, -1):
        term = term * j // (num_lines - j + 1)
        if not term:
            break
        total += term
    s = Fraction(total, one)
    with mpmath.workdps(50):
        loggamma = mpmath.loggamma
        log_comb = loggamma(num_lines + 1) - loggamma(t + 1) - loggamma(num_lines - t + 1)
        log_s = mpmath.log(s.numerator) - mpmath.log(s.denominator)
        want = float((log_comb + log_s) / mpmath.log(2) - num_lines)
    got = binomial_tail_log2(num_lines, t)
    assert abs(got - want) <= 1e-15 * abs(want), (got, want)


def test_bounds_far_beyond_the_exact_range(deadline):
    # 5^39 lines at n = 40: the union-bound chain compares bit lengths, and
    # neither tail sums its terms one by one
    deadline(5)
    u = aut_union_bound(5, 40)
    assert u["chain_holds"] is True
    assert u["gl_refinement_holds"] is True
    for n in (9, 10, 40):
        r = chernoff_report(5, n)
        assert r["line_reading"]["exact"] is None
        assert r["line_reading"]["le_closed_form"] is True
        assert r["element_reading"]["le_closed_form"] is True


def test_simulation_matches_sampler():
    # the line count L each experiment trial records is that of the real
    # sampler on the trial's seed, so L needs no sampling loop of its own
    for q, n, p, trials in ((3, 3, 0.5, 30), (5, 3, 0.3, 10)):
        agg = monte_carlo_pipeline(q, n, trials, 0, p=p)
        for r in agg["records"]:
            assert r["lines"] == len(sample_connection_set(q, n, p, r["seed"]).lines)
        assert agg["aggregate"]["mean_lines"] == sum(r["lines"] for r in agg["records"]) / trials


def test_chernoff_empirical():
    # the real sampler's share of (3,3) sets with L < threshold = 3 lines,
    # over seeds 0-1999, against the exact tail of chernoff_report's line
    # reading
    tail = exact_binomial_tail(9, 2)
    assert tail == Fraction(23, 256)
    short = sum(len(sample_connection_set(3, 3, 0.5, seed).lines) < 3 for seed in range(2000))
    assert short == 187
    assert abs(short / 2000 - tail) < 0.02


def test_chernoff_report_values():
    r = chernoff_report(3, 3)
    assert r["num_lines"] == 9
    assert r["threshold"] == 3
    assert abs(r["closed_form_bound"] - math.exp(-1 / 4)) < 1e-12
    assert r["line_reading"]["tail_at"] == 2
    assert r["line_reading"]["exact"] == "23/256"
    assert abs(r["line_reading"]["log2"] - math.log2(23 / 256)) < 1e-9
    assert r["line_reading"]["le_closed_form"] is True
    assert r["element_reading"]["tail_at"] == 1
    assert r["element_reading"]["exact"] == "5/256"
    assert r["element_reading"]["le_closed_form"] is True


def test_chernoff_exact_suppressed_for_large_universes():
    r = chernoff_report(5, 6)
    assert r["num_lines"] == 3125
    assert r["line_reading"]["exact"] is None
    assert r["line_reading"]["log2"] < -90
    assert r["line_reading"]["le_closed_form"] is True


def test_chernoff_both_readings_hold_for_target_sizes():
    for q, n in ((5, 4), (5, 5), (7, 4)):
        r = chernoff_report(q, n)
        assert r["line_reading"]["le_closed_form"] is True
        assert r["element_reading"]["le_closed_form"] is True


def test_chernoff_errors():
    with pytest.raises(ValueError):
        chernoff_report(3, 2)
    with pytest.raises(ValueError):
        chernoff_report(4, 3)


def test_aut_union_bound():
    u = aut_union_bound(5, 6)
    assert u["chain_holds"] is True
    assert u["gl_refinement_holds"] is True
    assert abs(u["lhs_log2"] - (36 * math.log2(5) - (3125 - 625 - 1) / 2)) < 1e-9
    assert abs(u["lhs_log2"] + 1165.9) < 0.1
    assert abs(u["rhs_log2"] + 3125 / 3) < 1e-9
    assert u["lhs_log2"] < u["rhs_log2"]
    assert u["fixed_line_bound"] == 626
    assert u["num_lines"] == 3125
    # exact integer chain recheck
    e3 = 5**5 - 3 * 5**4 - 3
    assert 5 ** (6 * 36) < (1 << e3)
    assert int(u["gl_order"]) ** 6 < (1 << e3)


def test_aut_union_bound_fails_small():
    for q, n in ((5, 5), (3, 3), (3, 2)):
        u = aut_union_bound(q, n)
        assert u["chain_holds"] is False
    with pytest.raises(ValueError):
        aut_union_bound(5, 1)
    with pytest.raises(ValueError):
        aut_union_bound(6, 4)


def test_theorem_qn_params():
    assert [theorem_qn_params(k)["q"] for k in range(4, 13)] == [
        5, 7, 7, 11, 11, 11, 11, 13, 13,
    ]
    # Bertrand's postulate, which lets theorem_qn_params search past k with
    # no upper stop, checked well beyond the paper's k
    for k in range(4, 2001):
        t = theorem_qn_params(k)
        assert t["check"] is True
        assert k < t["q"] < 2 * k
    t = theorem_qn_params(4, n=5)
    assert t["aut_order"] == "12500"
    assert t["aut_bound"] == "25000"
    assert t["aut_below_bound"] is True
    with pytest.raises(ValueError):
        theorem_qn_params(3)


def test_pipeline_certificate_counts_are_pinned():
    # 200 trials at (5,3), p = 0.5, read at eb5cbef: every search completes,
    # 161 are in case (i) and 39 in case (ii), and the (q+1) certificate
    # holds on 174, so on 13 of the case-(ii) instances
    aggregate = monte_carlo_pipeline(5, 3, 200, 0)["aggregate"]
    counts = ("solved", "equals_K", "case_ii", "cert_success")
    assert {key: aggregate[key] for key in counts} == dict(zip(counts, (200, 161, 39, 174)))


def test_pipeline_replay_deterministic():
    a1 = monte_carlo_pipeline(5, 3, 6, 11, jobs=1)
    a2 = monte_carlo_pipeline(5, 3, 6, 11, jobs=2)
    a3 = monte_carlo_pipeline(5, 3, 6, 11, jobs=1)
    for agg in (a1, a2, a3):
        for r in agg["records"]:
            r.pop("runtime_ms")
    assert a1 == a2 == a3
    assert a1["aggregate"]["trials"] == 6
    assert a1["aggregate"]["chi_exact_q"] == 6
    assert a1["aggregate"]["solved"] == 6
    assert a1["aggregate"]["equals_K"] == 4
    assert a1["aggregate"]["case_ii"] == 2
    # the certificate is tried on every solved instance, and holds on one
    # of the two whose Aut is not K
    assert a1["aggregate"]["cert_success"] == 5
    rec = a1["records"][0]
    assert rec["aut_order"] == "500"
    assert rec["chi"] == 5
    with pytest.raises(ValueError):
        monte_carlo_pipeline(5, 3, 2, None)


def test_pipeline_workers_are_capped(monkeypatch):
    # a stand-in pool, which starts no process, records its max_workers and
    # runs each task here: --jobs is capped at the trials and the CPUs, and
    # one worker runs with no pool.  The records are those of jobs=1
    pools = []

    class StandIn:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def records(agg):
        return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in agg["records"]]

    want = {trials: records(monte_carlo_pipeline(3, 2, trials, 4, jobs=1)) for trials in (1, 3, 6)}
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StandIn)
    for cpus, jobs, trials, workers in (
        (4, 100000, 1, None),
        (4, 100000, 3, 3),
        (4, 100000, 6, 4),
        (4, 2, 6, 2),
        (1, 100000, 6, None),
        (None, 100000, 6, None),
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pools.clear()
        assert records(monte_carlo_pipeline(3, 2, trials, 4, jobs=jobs)) == want[trials]
        assert pools == ([] if workers is None else [workers]), (cpus, jobs, trials)


def test_trial_rows():
    agg = monte_carlo_pipeline(3, 2, 3, 4, jobs=1)
    # the header is the records' keys; a key dropped from every record,
    # as runtime_ms is under --no-meta, leaves the header and every row
    header = "seed,lines,elements,chi,aut_order,equals_K,dichotomy,certificate"
    rows = list(trial_rows(agg["records"]))
    assert rows[0] == header + ",runtime_ms"
    assert len(rows) == 4
    assert all(row.count(",") == 8 for row in rows)
    for record in agg["records"]:
        del record["runtime_ms"]
    bare = list(trial_rows(agg["records"]))
    assert bare[0] == header
    assert [row.rsplit(",", 1)[0] for row in rows[1:]] == bare[1:]


def _direct_verdicts(connection):
    g = build_graph(connection)
    aut = automorphism_group(g)
    dich = dichotomy_check(g, aut)
    return {
        "elements": len(connection.members),
        "aut_order": str(aut.group.order()),
        "equals_K": dich["equals_K"],
        "dichotomy": dich["dichotomy"],
        "certificate": chi_D_upper_certificate(g, aut) is not None,
    }


def test_trial_records_replay_direct_calls():
    # each trial's verdicts are those of the library's own calls on the set
    # its seed samples, whatever the dichotomy says
    for q, n, p in ((3, 3, 0.75), (5, 3, 0.5)):
        records = monte_carlo_pipeline(q, n, 20, 7, p=p)["records"]
        for r in records:
            want = _direct_verdicts(sample_connection_set(q, n, p, r["seed"]))
            assert {key: r[key] for key in want} == want, (q, n, p, r["seed"])
        assert {r["dichotomy"] for r in records} == ({"ii"} if q == 3 else {"i", "ii"})


def test_trials_and_census_agree_at_3_2():
    # for every line set at (3,2), a seed that samples it gives a trial
    # whose shared verdicts are those of its census row
    rows = sweep_all_line_subsets(3, 2)
    seeds = {}
    for seed in range(100):
        lines = [list(rep) for rep in sample_connection_set(3, 2, 0.5, seed).lines]
        seeds.setdefault(str(lines), seed)
    for row in rows:
        trial = run_single_trial((3, 2, 0.5, seeds[str(row["lines"])], 200000))
        shared = trial.keys() & row.keys() - {"lines"}
        assert shared == {"elements", "chi", "aut_order", "equals_K", "dichotomy", "certificate"}
        assert {key: trial[key] for key in shared} == {key: row[key] for key in shared}


def test_sweep_all_line_subsets():
    rows = sweep_all_line_subsets()
    assert len(rows) == 7
    for r in rows:
        assert r["chi"] == 3
        assert r["equals_K"] is False
        assert r["dichotomy"] == "ii"
        assert r["chiD_exceeds_q"] is True
        assert r["certificate"] is False
    by_size = {}
    for r in rows:
        by_size.setdefault(len(r["lines"]), []).append(r)
    assert [r["partitions"] for r in by_size[1]] == [36, 36, 36]
    assert [r["partitions"] for r in by_size[2]] == [2, 2, 2]
    assert [r["partitions"] for r in by_size[3]] == [1]
    assert {r["aut_order"] for r in by_size[1]} == {"1296"}
    assert {r["aut_order"] for r in by_size[2]} == {"72"}
    assert {r["aut_order"] for r in by_size[3]} == {"1296"}
