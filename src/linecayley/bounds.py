"""Quantitative bound evaluation and the experiment drivers.

Probability bounds are evaluated exactly (big integers and rationals) with a
log2-scale rendering for quantities far below floating range, and in log
space alone past EXACT_TRIALS; nothing is estimated by drawing.  The trials
and the census read their verdicts from one instance_record.  Trials derive
independent seeds from a master seed by hashing, so any record can be
replayed in isolation and parallel runs aggregate identically.
"""

import hashlib
import itertools
import math
import os
import time
from decimal import Decimal, localcontext
from fractions import Fraction

from .autgroup import NODE_BUDGET, automorphism_group, dichotomy_check
from .cayley import ConnectionSet, build_graph, sample_connection_set
from .coloring import exact_chromatic_number
from .distinguishing import chi_D_exceeds_q_small, chi_D_upper_certificate
from .errors import BudgetExceeded
from .field import gl_order, is_prime, require_odd_prime, require_prime, require_space
from .geometry import line_universe


def _binomial_prefix_sum(n_trials, t):
    """Sum of comb(n_trials, j) for j = 0..t, by the running product
    comb(n, j + 1) = comb(n, j) * (n - j) / (j + 1), exact at every step."""
    total = term = 0 if t < 0 else 1
    for j in range(min(t, n_trials)):
        term = term * (n_trials - j) // (j + 1)
        total += term
    return total


def exact_binomial_tail(n_trials, t):
    """P(X <= t) for X ~ Binomial(n_trials, 1/2), as an exact rational."""
    return Fraction(_binomial_prefix_sum(n_trials, t), 1 << n_trials)


# the most trials whose tail is summed exactly and printed as a fraction
EXACT_TRIALS = 2048


def _log_factorial(m):
    """ln m! in the current Decimal context: exact below 20, and past it by
    Stirling's series to its fifth term, the next being below 10^-17 there."""
    if m < 20:
        return Decimal(math.factorial(m)).ln()
    m = Decimal(m)
    series = sum(1 / (c * m ** (2 * k + 1)) for k, c in enumerate((12, -360, 1260, -1680, 1188)))
    return (m + Decimal(0.5)) * m.ln() - m + Decimal(math.log(2 * math.pi)) / 2 + series


def binomial_tail_log2(n_trials, t):
    """log2 of P(X <= t) for X ~ Binomial(n_trials, 1/2).

    Past EXACT_TRIALS, for t < n_trials / 2, it is read in log space, in
    Decimal with digits enough for the n_trials ln n_trials terms of head =
    ln C(n_trials, t) - n_trials ln 2 to cancel.  The tail is head + ln S,
    S the sum of the terms C(n_trials, j) / C(n_trials, t), j <= t, each
    the last times j / (n_trials - j + 1).  Those ratios fall, so S is at
    most 1 + spread, spread = r / (1 - r) for the first ratio r, and the
    terms after one are at most it times spread.  The tail is at most 1/2,
    so |head + ln S| is at least max(ln 2, -head - ln(1 + spread)), and the
    terms are summed until those left move ln S by under 10^-17 of that, a
    tenth of a float's resolution: some tens of n_trials / (n_trials - 2t)
    terms at most, and few once |head| is large.  S is summed in integers,
    in units of 2^-128, each term floored from the last: the m terms lose
    under m^2 units together, under 10^-20 of S while m < 10^9, and m is
    1.4 10^6 at q = 99,991, n = 4.
    """
    if t < 0:
        return float("-inf")
    with localcontext() as ctx:
        ctx.prec = max(60, 30 + n_trials.bit_length() // 3)
        ln2 = Decimal(2).ln()
        if n_trials <= EXACT_TRIALS or 2 * t >= n_trials:
            return float(Decimal(_binomial_prefix_sum(n_trials, t)).ln() / ln2 - n_trials)
        head = _log_factorial(n_trials) - _log_factorial(t) - _log_factorial(n_trials - t)
        head -= n_trials * ln2
        # r / (1 - r) for r = t / (n_trials - t + 1); t = 0 sums no term
        spread = Decimal(max(t, 1)) / (n_trials - 2 * t + 1)
        tolerance = max(ln2, -head - (1 + spread).ln()) / spread / 10**17
        # the terms in fixed point, in units of 2^-128, each floored: term <
        # tolerance * total is term * ratio < total, which needs term <
        # tolerance (1 + spread) 2^128, as total is at most (1 + spread) 2^128
        one, ratio = 1 << 128, int(1 / tolerance)
        least = int(tolerance * (1 + spread) * one) + 1
        total = term = one
        for j, d in zip(range(t, 0, -1), range(n_trials - t + 1, n_trials + 1)):
            term = term * j // d
            total += term
            if term < least and term * ratio < total:
                break
        return float((head + (Decimal(total) / one).ln()) / ln2)


def _tail_reading(num_lines, t, closed_log2):
    """One size reading of chernoff_report: the tail P(X <= t), exact up to
    EXACT_TRIALS lines, and its log2 against the closed-form bound's."""
    log2 = binomial_tail_log2(num_lines, t)
    return {
        "tail_at": t,
        "exact": str(exact_binomial_tail(num_lines, t)) if num_lines <= EXACT_TRIALS else None,
        "log2": log2,
        "le_closed_form": log2 <= closed_log2,
    }


def _trial_seed(master, index):
    digest = hashlib.sha256(f"{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# The input caps of bounds, checked before any work.  |GL(n, q)| < q^(n^2) is
# printed in at most Python's default 4,300 digits: q^(n^2) has 4,253 at (5,78)
# and 4,363 at (5,79).  The line reading's tail sums about q times some tens
# of terms past EXACT_TRIALS lines (binomial_tail_log2), at most ~0.5 s at
# q = 99,991 (n = 4 and 5 the worst n) on a 2-core Xeon; at q = 10^9 + 7 it
# would run for minutes.
GL_ORDER_MAX_DIGITS = 4300
CHERNOFF_MAX_Q = 10**5


def chernoff_report(q, n):
    """Tail bounds for the size of a p=1/2 random connection set.

    Reports the closed-form bound exp(-q^(n-3)/4) next to the exact binomial
    tail under both size readings: the number L of chosen lines, and the
    number of set elements (q-1 per line).  The line reading is P(L <
    threshold), threshold = (q^(n-1) - q^(n-2))/2, the event the paper's
    Chernoff step bounds.  The direction bound, past which every class of a
    proper q-colouring is an affine hyperplane, needs L >= threshold + 1,
    one line more, so its failure is P(L <= threshold).
    A q past CHERNOFF_MAX_Q is refused before any work.
    """
    if q > CHERNOFF_MAX_Q:
        raise ValueError(f"tail bounds at q = {q} pass CHERNOFF_MAX_Q = 10^5")
    require_odd_prime(q)
    if n < 3:
        raise ValueError("tail bounds need n >= 3")
    num_lines = q ** (n - 1)
    # half of q^(n-1) - q^(n-2) = q^(n-2)(q - 1), an integer as q is odd
    threshold = (q ** (n - 1) - q ** (n - 2)) // 2
    t_lines = threshold - 1
    t_elements = (q ** (n - 2) - 1) // 2
    with localcontext() as ctx:
        ctx.prec = 60
        exponent = Decimal(q) ** (n - 3) / 4
        closed_log2 = float(-exponent / Decimal(2).ln())
        closed_value = float((-exponent).exp())
    return {
        "q": q,
        "n": n,
        "num_lines": num_lines,
        "threshold": threshold,
        "closed_form_bound": closed_value,
        "closed_form_bound_log2": closed_log2,
        "line_reading": _tail_reading(num_lines, t_lines, closed_log2),
        "element_reading": _tail_reading(num_lines, t_elements, closed_log2),
    }


def aut_union_bound(q, n):
    """The union-bound exponent chain over all linear maps, decided exactly.

    Checks n^2 log2 q - (q^(n-1)-q^(n-2)-1)/2 < -q^(n-1)/3 by clearing
    denominators to an integer comparison, made by bit length so that the
    power of 2 on its right is never built, and repeats the check with the
    exact order of the general linear group in place of q^(n^2), refusing
    an n at which that order could pass GL_ORDER_MAX_DIGITS digits.
    """
    require_prime(q)
    if n < 2:
        raise ValueError("need n >= 2")
    if n * n * math.log10(q) >= GL_ORDER_MAX_DIGITS:
        raise ValueError(f"|GL({n}, {q})| may have more than GL_ORDER_MAX_DIGITS = 4300 digits")
    a = q ** (n - 1)
    b = q ** (n - 2)
    # q^(6 n^2) < 2^(3(a-b-1) - 2a) after multiplying the log2 chain by 6
    e3 = a - 3 * b - 3
    chain_holds = e3 > 0 and (q ** (6 * n * n)).bit_length() <= e3
    gl = gl_order(q, n)
    gl_holds = e3 > 0 and (gl ** 6).bit_length() <= e3
    lhs_log2 = n * n * math.log2(q) - (a - b - 1) / 2
    rhs_log2 = -a / 3
    return {
        "q": q,
        "n": n,
        "lhs_log2": lhs_log2,
        "rhs_log2": rhs_log2,
        "chain_holds": chain_holds,
        "gl_order": str(gl),
        "gl_log2": math.log2(gl),
        "gl_refinement_holds": gl_holds,
        "fixed_line_bound": b + 1,
        "num_lines": a,
    }


def theorem_qn_params(k, n=None):
    """Smallest prime q strictly between k and 2k, with the q-1 < 2k check.
    Bertrand's postulate (Chebyshev, 1852) puts a prime strictly between k
    and 2k for every k > 1, so the search from k + 1 stops below 2k.

    With n given, also evaluates the resulting automorphism-order bound
    q^n (q-1) < 2k q^n, which follows whenever the group is scalar-affine.
    """
    if k < 4:
        raise ValueError("k must be at least 4")
    if n is not None and n < 2:
        raise ValueError("need n >= 2")
    q = k + 1
    while not is_prime(q):
        q += 1
    # q^n (q - 1) and 2k q^n, both below q^(n+2), are printed
    if n is not None and (n + 2) * math.log10(q) >= GL_ORDER_MAX_DIGITS:
        raise ValueError(f"{q}^{n} * {q - 1} may have more than GL_ORDER_MAX_DIGITS = 4300 digits")
    report = {
        "k": k,
        "q": q,
        "q_minus_1": q - 1,
        "two_k": 2 * k,
        "check": q - 1 < 2 * k,
    }
    if n is not None:
        aut = q**n * (q - 1)
        bound = 2 * k * q**n
        report["n"] = n
        report["aut_order"] = str(aut)
        report["aut_bound"] = str(bound)
        report["aut_below_bound"] = aut < bound
    return report


def instance_record(graph, node_budget):
    """The verdicts that the trials and the census share, and the AutResult
    they read: elements, chi, aut_order, equals_K, dichotomy and certificate,
    the last three "" where the search runs out of nodes (aut_order is then
    "incomplete"); the certificate is tried on every solved instance."""
    record = {"elements": len(graph.connection.members), "chi": exact_chromatic_number(graph).value}
    aut = automorphism_group(graph, node_budget)
    if not aut.complete:
        record.update(aut_order="incomplete", equals_K="", dichotomy="", certificate="")
        return record, aut
    dich = dichotomy_check(graph, aut)
    record.update(
        aut_order=str(aut.group.order()),
        equals_K=dich["equals_K"],
        dichotomy=dich["dichotomy"],
        certificate=chi_D_upper_certificate(graph, aut) is not None,
    )
    return record, aut


def run_single_trial(args):
    """One seeded experiment trial; top level so process pools can pickle it."""
    q, n, p, trial_seed, node_budget = args
    start = time.perf_counter()
    s = sample_connection_set(q, n, p, trial_seed)
    record, _ = instance_record(build_graph(s), node_budget)
    runtime_ms = int((time.perf_counter() - start) * 1000)
    return {"seed": trial_seed, "lines": len(s.lines), **record, "runtime_ms": runtime_ms}


def monte_carlo_pipeline(q, n, trials, seed, p=0.5, node_budget=NODE_BUDGET, jobs=1):
    """Sample, color, and solve `trials` independent instances.

    Per-trial records are replay-deterministic: the record depends only on
    the derived trial seed, never on scheduling, so any worker count yields
    the same rows in the same order.  So jobs is capped at the trials and
    the CPUs, and one worker runs in this process: a pool forks all its
    workers at its first task.
    """
    require_space(q, n)
    if seed is None:
        raise ValueError("a master seed is required")
    if trials < 1:
        raise ValueError("need at least one trial")
    argslist = [
        (q, n, p, _trial_seed(seed, i), node_budget) for i in range(trials)
    ]
    jobs = min(jobs, trials, os.cpu_count() or 1)
    if jobs > 1:
        # imported here: it loads multiprocessing, which no other path needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run_single_trial, argslist))
    else:
        records = [run_single_trial(a) for a in argslist]
    solved = sum(1 for r in records if r["aut_order"] != "incomplete")
    eqk = sum(1 for r in records if r["equals_K"] is True)
    aggregate = {
        "trials": trials,
        "chi_exact_q": sum(1 for r in records if r["chi"] == q),
        "mean_lines": sum(r["lines"] for r in records) / trials,
        "mean_elements": sum(r["elements"] for r in records) / trials,
        "solved": solved,
        "equals_K": eqk,
        "equals_K_frequency": eqk / solved if solved else None,
        "case_ii": sum(1 for r in records if r["dichotomy"] == "ii"),
        "cert_success": sum(1 for r in records if r["certificate"] is True),
    }
    return {
        "parameters": {
            "q": q,
            "n": n,
            "p": p,
            "trials": trials,
            "seed": seed,
            "node_budget": node_budget,
        },
        "records": records,
        "aggregate": aggregate,
    }


def trial_rows(records):
    """CSV lines: a header of the first record's keys, then each record's
    values in that order."""
    yield ",".join(records[0])
    for r in records:
        yield ",".join(map(str, r.values()))


# The most vertices, q^n, of a size the census takes on: (3,2), (5,2) and
# (3,3), whose censuses take 0.15 s, 0.78 s and 18.3 s on a 2-core Xeon.
# The next sizes up, (7,2), (5,3) and (3,4), are refused: (7,2)'s census of
# 127 subsets ran past 60 s, listing proper partitions into up to 7 classes.
SWEEP_MAX_VERTICES = 27


def sweep_all_line_subsets(q=3, n=2, node_budget=NODE_BUDGET):
    """Census of every nonempty line subset: chromatic, automorphism,
    dichotomy, and distinguishing verdicts for each instance.  Raises
    ValueError, before any work, when q^n passes SWEEP_MAX_VERTICES, and
    BudgetExceeded when an automorphism search runs out of nodes.  At the
    sizes admitted the largest partition listing, 288 at (3,3), is far
    below coloring.ENUM_LIMIT."""
    require_space(q, n)
    if q**n > SWEEP_MAX_VERTICES:
        raise ValueError(
            f"a census of every line subset at q={q}, n={n} covers {q**n} vertices,"
            f" more than SWEEP_MAX_VERTICES = {SWEEP_MAX_VERTICES}"
        )
    universe = list(line_universe(q, n))
    rows = []
    for size in range(1, len(universe) + 1):
        for subset in itertools.combinations(universe, size):
            g = build_graph(ConnectionSet(q, n, subset))
            record, aut = instance_record(g, node_budget)
            if not aut.complete:
                raise BudgetExceeded(
                    f"automorphism search exceeded {node_budget} nodes at lines {list(subset)}"
                )
            verdict = chi_D_exceeds_q_small(g, aut)
            rows.append({"lines": [list(rep) for rep in subset], **record,
                         "chiD_exceeds_q": verdict.exceeds, "partitions": verdict.partitions})
    return rows
