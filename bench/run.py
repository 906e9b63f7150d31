"""Certificate-pipeline benchmark for linecayley.

One single-threaded closed loop runs the certificate pipeline once per
random instance: sample_connection_set, build_graph, adjacency_masks,
exact_chromatic_number, automorphism_group, dichotomy_check and
chi_D_upper_certificate. Each stage is timed from outside by wrapping the
public call. Run it from the repository root:

    python3 bench/run.py --workload trials-5-3 --seed 1 --seconds 30 --trace 0

A run takes a fixed number of instances, set by the workload and --seconds,
so that the same seed always runs the same instances and fails the same
stage calls; it lasts about --seconds on the machine the rates were sized on.

It prints every metric with its unit, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. Every output is checked
outside the timed region; the run exits with status 1 when a check fails.
METRICS.md describes the workloads and what each metric should move.
"""

import argparse
import functools
import gc
import hashlib
import itertools
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import linecayley  # noqa: E402
from linecayley import (  # noqa: E402
    BudgetExceeded,
    automorphism_group,
    build_graph,
    chi_D_upper_certificate,
    coset_coloring,
    dichotomy_check,
    exact_chromatic_number,
    is_automorphism,
    is_distinguishing,
    is_proper,
    plus_zero_recolor,
    sample_connection_set,
)
from linecayley.field import is_scalar_matrix, mat_apply  # noqa: E402
from linecayley.geometry import all_projective_points, line_universe, proj_rep  # noqa: E402
from linecayley.permgroup import scalar_affine_group  # noqa: E402

import tally  # noqa: E402

if not Path(linecayley.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"linecayley was imported from {linecayley.__file__}, not from {ROOT / 'src'}")


@dataclass(frozen=True)
class Workload:
    q: int
    n: int
    p: float  # per-line inclusion probability
    cert_deadline_s: float
    # instances per second of an untraced run, checks included, on the 2-core
    # Xeon the benchmark was sized on, at a calibration speed of about 0.6
    instances_per_s: float
    # split strata by whether a homology maps S onto itself (see InstanceSeeds)
    split_symmetric: bool = False


# One (q, n) per workload: mixing sizes made the median jump between
# clusters. The certificate deadline, in reference seconds (see Calibration),
# sits far above the slowest certificate that completes on the workload and
# well below the calls it cuts, so the same instances fail on every run.
WORKLOADS = {
    # 625 vertices, Aut = K on every instance; the adjacency build takes about
    # half the time. The slowest certificate takes 0.4 s.
    "scale-5-4": Workload(5, 4, 0.5, 4.0, 0.55),
    # 125 vertices, many cheap instances, so per-call fixed costs dominate;
    # the dichotomy exceeds its GL(3, 5) scan budget whenever Aut != K.
    # Certificates take at most 0.03 s, rarely 0.25 s; about one in 500
    # (|Aut| = 2.4e8 and similar) takes over 2 s, and is cut. Of 300 sampled
    # instances, the 57 that a homology maps onto themselves were exactly
    # those with Aut != K.
    "trials-5-3": Workload(5, 3, 0.5, 1.0, 9.0, split_symmetric=True),
    # 27 vertices, Aut usually far larger than K: the search branches and the
    # dichotomy scans all of GL(3, 3). A third of the certificates hang (every
    # instance with 8 or 9 lines, 12 of the 84 with 6; none finished in 25 s);
    # the slowest that completes takes 7 ms.
    "dense-3-3": Workload(3, 3, 0.75, 0.25, 1.6),
}
DEFAULT_SEED = 0  # the seed whose answers digest.json records
DIGEST = BENCH_DIR / "digest.json"
TRACE_DIR = BENCH_DIR / "out"
SETUP_RUNS = 9
# A process that starts the interpreter and imports the standard-library
# modules run.py uses, but not linecayley; set-up is timed against it.
REFERENCE_START = "import argparse, dataclasses, hashlib, json, random, resource, signal, subprocess"
REFERENCE_START_S = 0.065  # its time on the sizing machine at calibration speed 1
CALIBRATION_SHARE = 0.1
# Every time is reported at the speed where one calibration_unit() takes this
# long, about its median on the 2-core Xeon the benchmark was sized on.
CALIBRATION_REFERENCE_S = 0.001
K_RUNS = 5
POOL = 10  # candidate trial seeds drawn per instance, at least
STAGES_BEFORE_AUT_CHECK = 5  # sample, build, adjacency, chi, aut


def calibration_unit():
    """Fixed pure-Python work that does not use linecayley: tuples, a dict and
    big-integer bit operations, the mix of the library's inner loops."""
    counts = {}
    acc = 0
    for i in range(3000):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
        acc ^= (1 << (i % 625)) | i
    return acc.bit_count() + len(counts)


class Calibration:
    """The machine's speed, from calibration units run between instances
    for CALIBRATION_SHARE of each instance's time.

    Other tenants of a shared machine slow it by up to a third for minutes at
    a time. The calibration units slow down with it, so scaling each time by
    the speed measured next to it takes that drift out of the figures.
    """

    def __init__(self):
        self.units = 0
        self.seconds = 0.0
        self.measure(0.02)  # a first reading, before any instance

    def measure(self, seconds):
        """Run units for `seconds`, at least one; returns their speed."""
        spent = 0.0
        units = 0
        while True:
            began = time.perf_counter()
            calibration_unit()
            spent += time.perf_counter() - began
            units += 1
            if spent >= seconds:
                break
        self.units += units
        self.seconds += spent
        return CALIBRATION_REFERENCE_S * units / spent

    def speed(self):
        """Reference over measured unit time; below 1 on a slow machine."""
        return CALIBRATION_REFERENCE_S * self.units / self.seconds


def homology_permutations(q, n):
    """The homologies of order 2 of PG(n-1, q), q odd: x -> x - 2 (a.x / a.c) c
    for a center c off the axis {x : a.x = 0}. Returns the index of each
    projective point and each homology as a permutation of those indices."""
    points = all_projective_points(q, n)
    index = {rep: i for i, rep in enumerate(points)}

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v)) % q

    perms = []
    for c in points:
        for a in points:
            if dot(a, c):
                f = -2 * pow(dot(a, c), -1, q) % q
                perms.append([
                    index[proj_rep(tuple((x + f * dot(a, v) * y) % q for x, y in zip(v, c)), q)]
                    for v in points
                ])
    return index, perms


class InstanceSeeds:
    """Trial seeds derived from the workload seed, stratified.

    A stratum is (lines, empty, full): how many lines S has, and how many
    hyperplanes through 0, other than x[n-1] = 0, hold none or all of their
    admissible lines in S. These set an instance's cost: at (3, 3) they tell
    apart exactly the instances whose certificate hangs. Where the workload
    splits them, a stratum also records whether a homology maps S onto
    itself; at (5, 3) that tells apart the instances with Aut != K, whose
    dichotomy fails. A stratum's share is the Binomial(L, p) share of its line
    count times the share of the rest of its key among the candidates drawn
    with that line count, POOL candidates per instance at least. Each next
    instance takes the stratum furthest behind its share, so every run has
    nearly the same mix whatever its seed; the seed picks the instances.
    """

    def __init__(self, name, wl, seed):
        self.wl = wl
        universe = line_universe(wl.q, wl.n).lines
        self.index = {rep: i for i, rep in enumerate(universe)}
        normals = [a for a in all_projective_points(wl.q, wl.n) if any(a[:-1])]
        self.hyperplanes_of = [
            [h for h, a in enumerate(normals) if sum(x * y for x, y in zip(a, rep)) % wl.q == 0]
            for rep in universe
        ]
        self.hyperplanes = len(normals)
        self.per_hyperplane = wl.q ** (wl.n - 2)  # admissible lines in each
        size = len(universe)
        self.line_share = [
            math.comb(size, k) * wl.p**k * (1 - wl.p) ** (size - k) for k in range(size + 1)
        ]
        self.drawn = Counter()
        self.drawn_lines = Counter()
        self.taken = Counter()
        self.pending = defaultdict(list)
        self.rng = random.Random(f"{name}:{seed}")

    def __iter__(self):
        return self

    def _draw(self):
        wl = self.wl
        trial = self.rng.getrandbits(63)
        lines = sample_connection_set(wl.q, wl.n, wl.p, trial).lines
        counts = [0] * self.hyperplanes
        for rep in lines:
            for h in self.hyperplanes_of[self.index[rep]]:
                counts[h] += 1
        stratum = (len(lines), counts.count(0), counts.count(self.per_hyperplane))
        if wl.split_symmetric:
            stratum += (self._symmetric(lines),)
        self.drawn[stratum] += 1
        self.drawn_lines[len(lines)] += 1
        self.pending[stratum].append(trial)

    @functools.cached_property
    def _homologies(self):
        return homology_permutations(self.wl.q, self.wl.n)

    def _symmetric(self, lines):
        """Whether some homology maps the lines of S onto themselves."""
        index, perms = self._homologies
        members = {index[rep] for rep in lines}
        return any(all(h[i] in members for i in members) for h in perms)

    def _share(self, stratum):
        k = stratum[0]
        return self.line_share[k] * self.drawn[stratum] / self.drawn_lines[k]

    def __next__(self):
        i = self.taken.total() + 1
        while self.drawn.total() < POOL * i:
            self._draw()
        stratum = max(self.drawn, key=lambda s: self._share(s) * i - self.taken[s])
        while not self.pending[stratum]:
            self._draw()
        self.taken[stratum] += 1
        return self.pending[stratum].pop(0)


class Tracer:
    """Keeps one span per stage call in memory, with counts attached."""

    def __init__(self):
        self.spans = []
        self.instance = None
        self._open = []
        self._last = None

    def call(self, name, fn, *args):
        parent = self._open[-1].span_id if self._open else None
        span = tally.Span(len(self.spans), parent, name, self.instance, 0.0, 0.0)
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            self._last = span

    def tag(self, **counts):
        """Attach counts to the span that ended last."""
        self._last.attrs.update(counts)


class Untraced:
    instance = None

    def call(self, name, fn, *args):
        return fn(*args)

    def tag(self, **counts):
        pass


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM in a call that outlived its deadline; a
    BaseException so that no handler inside the library can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def with_deadline(seconds, fn, *args):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def traced_certificate(tracer):
    """chi_D_upper_certificate, split into its public parts, one span each."""

    def certify(g, aut):
        cert = tracer.call("coloring.coset", lambda: plus_zero_recolor(coset_coloring(g)))
        if not tracer.call("coloring.proper", is_proper, g, cert):
            return None
        report = tracer.call("distinguishing.check", is_distinguishing, cert, aut)
        return cert if report.distinguishing else None

    return certify


@dataclass
class Outcome:
    """One instance: what each stage returned and which stage calls failed."""

    index: int
    trial_seed: int
    start: float = 0.0
    end: float = 0.0
    connection: object = None
    graph: object = None
    chi: object = None
    aut: object = None
    dichotomy: dict | None = None
    cert_attempted: bool = False
    cert: object = None
    attempted: int = 0
    failed: list = field(default_factory=list)
    answer: list | None = None
    speed: float = 1.0  # measured by the calibration units right after the chain
    peak_rss_before: float = 0.0

    @property
    def wall(self):
        return self.end - self.start

    @property
    def seconds(self):
        """Chain time at the reference speed, or inf when a stage call failed."""
        return math.inf if self.failed else self.wall * self.speed

    def settle(self):
        """Keep (lines, |Aut|, verdict, certificate found), with None where a
        stage gave no answer, and drop the graph and group objects so that
        memory does not grow with the number of instances."""
        lines = hashlib.sha256(repr(self.connection.lines).encode()).hexdigest()[:12]
        order = str(self.aut.group.order()) if self.aut.complete else None
        verdict = self.dichotomy["dichotomy"] if self.dichotomy else None
        cert_done = self.cert_attempted and "distinguishing.cert" not in self.failed
        self.answer = [lines, order, verdict, (self.cert is not None) if cert_done else None]
        self.connection = self.graph = self.chi = self.aut = self.dichotomy = self.cert = None


def run_chain(wl, out, t, certify, deadline):
    """Run the pipeline on one instance, recording failures in `out`."""

    def chain():
        s = out.connection = t.call(
            "cayley.sample", sample_connection_set, wl.q, wl.n, wl.p, out.trial_seed
        )
        g = out.graph = t.call("cayley.build", build_graph, s)
        t.call("cayley.adjacency", g.adjacency_masks)
        t.tag(edges=g.num_edges)
        out.chi = t.call("coloring.chi", exact_chromatic_number, g)
        aut = out.aut = t.call("autgroup.aut", automorphism_group, g)
        t.tag(nodes=aut.nodes, generators=len(aut.pool), incomplete=int(not aut.complete))
        out.attempted += STAGES_BEFORE_AUT_CHECK
        if not aut.complete:  # the node budget ran out: no group to go on with
            out.failed.append("autgroup.aut")
            return
        t.tag(base_len=len(aut.group.base()), order_log2=math.log2(aut.group.order()))
        out.attempted += 1
        try:
            out.dichotomy = t.call("autgroup.dichotomy", dichotomy_check, g, aut)
            t.tag(**{"verdict_" + out.dichotomy["dichotomy"]: 1})
        except BudgetExceeded:
            out.failed.append("autgroup.dichotomy")
            t.tag(failed=1)
        if not s.lines:  # no coset coloring exists; skipped, as run_single_trial does
            return
        out.attempted += 1
        out.cert_attempted = True
        try:
            out.cert = t.call(
                "distinguishing.cert", with_deadline, deadline, certify, g, aut
            )
            t.tag(found=int(out.cert is not None))
        except DeadlineExceeded:
            out.failed.append("distinguishing.cert")
            t.tag(timed_out=1)

    t.instance = out.index
    out.start = time.perf_counter()
    t.call("instance", chain)
    out.end = time.perf_counter()


def proper_by_masks(masks, class_of):
    """Properness from the adjacency masks, independent of is_proper."""
    class_masks = {}
    for v, c in enumerate(class_of):
        class_masks[c] = class_masks.get(c, 0) | 1 << v
    return all(not masks[v] & class_masks[c] for v, c in enumerate(class_of))


def differing_fields(got, want):
    """Indices where both answers exist and disagree."""
    return [j for j, (a, b) in enumerate(zip(got, want)) if a is not None and b is not None and a != b]


class Checker:
    """Output checks, run outside the timed region on every instance."""

    def __init__(self, wl, expected):
        self.wl = wl
        self.k_order = wl.q**wl.n * (wl.q - 1)
        self.k_gens = scalar_affine_group(wl.q, wl.n).generators
        self.expected = expected  # recorded answers, by instance index
        self.problems = []

    def check(self, out):
        """Check one instance's outputs, then settle it."""
        problems = self._problems(out)
        out.settle()
        if out.index < len(self.expected) and differing_fields(out.answer, self.expected[out.index]):
            problems.append(f"answer {out.answer} differs from digest {self.expected[out.index]}")
        self.problems += [f"instance {out.index} (trial seed {out.trial_seed}): {p}" for p in problems]

    def _problems(self, out):
        q, g, chi = self.wl.q, out.graph, out.chi
        masks = g.adjacency_masks()
        found = []
        if not out.connection.lines:
            if chi.value != 1:
                found.append(f"empty graph reported chi = {chi.value}")
        else:
            clique = set(chi.clique)
            if chi.value != q:
                found.append(f"chi = {chi.value}, expected {q}")
            if len(clique) != q or any(not masks[u] >> v & 1 for u in clique for v in clique if u != v):
                found.append("returned clique is not a q-clique")
            if len(set(chi.coloring.class_of)) > q or not is_proper(g, chi.coloring):
                found.append("returned coloring is not a proper q-coloring")
        aut = out.aut
        if not aut.complete:
            return found
        if not all(is_automorphism(g, p) for p in aut.pool):
            found.append("a generator of Aut is not an automorphism")
        order = aut.group.order()
        if not all(aut.group.contains(k) for k in self.k_gens):
            found.append("Aut does not contain K")
        if order % self.k_order:
            found.append(f"|K| = {self.k_order} does not divide |Aut| = {order}")
        if out.dichotomy:
            verdict = out.dichotomy["dichotomy"]
            if verdict not in ("i", "ii"):
                found.append(f"dichotomy verdict {verdict!r}")
            if (verdict == "i") != (order == self.k_order):
                found.append(f"verdict {verdict!r} with |Aut| = {order}")
            if verdict == "ii":
                m = out.dichotomy["witness"]
                members = out.connection.members
                if is_scalar_matrix(m) or any(mat_apply(m, s, q) not in members for s in members):
                    found.append("case (ii) witness is scalar or does not map S into S")
        if out.cert_attempted and "distinguishing.cert" not in out.failed:
            cert = out.cert
            if cert is None and order == self.k_order:
                found.append("Aut = K but the (q+1) coloring does not certify")
            if cert is not None and not (
                cert.num_colors == q + 1
                and len(set(cert.class_of)) == q + 1
                and proper_by_masks(masks, cert.class_of)
            ):
                found.append("certificate is not a proper (q+1)-coloring")
        return found


def instance_count(wl, seconds, modes):
    """How many instances a run of about `seconds` takes when each runs once
    per mode. The count does not depend on the machine's speed, so two runs
    of one seed attempt and fail the same stage calls."""
    return max(1, round(wl.instances_per_s * seconds / modes))


def run_instances(wl, trials, count, modes, checker, calibration):
    """Run the first `count` instances in order; returns one list of
    outcomes per mode.

    Each instance runs once per mode, a (tracer, certify) pair. Odd
    instances take the modes in reverse order, so that no mode gains from
    running second. Checks, garbage collection and calibration run between
    chains, outside their timings: an instance's garbage (the library's
    searches leave reference cycles) is neither timed in the next instance
    nor counted toward the memory peak of later ones.
    """
    results = [[] for _ in modes]
    for index, trial in enumerate(itertools.islice(trials, count)):
        order = range(len(modes)) if index % 2 == 0 else reversed(range(len(modes)))
        for m in order:
            tracer, certify = modes[m]
            out = Outcome(index, trial, peak_rss_before=peak_rss_mb())
            # the deadline is in reference seconds, so that a cut call costs
            # the same scaled time however busy the machine is
            run_chain(wl, out, tracer, certify, wl.cert_deadline_s / calibration.speed())
            checker.check(out)
            gc.collect()
            out.speed = calibration.measure(CALIBRATION_SHARE * out.wall)
            results[m].append(out)
    return results


def calls(outcomes):
    return sum(o.attempted for o in outcomes), sum(len(o.failed) for o in outcomes)


def setup_seconds(name, seed):
    """Median set-up time of fresh processes that start the interpreter,
    import linecayley, set up the seed stream and exit.

    Each is timed against the reference starts run just before and after it,
    which slow down with the machine as process starts do (a busy machine
    slows starting a process more than it slows the calibration units), and
    is reported at REFERENCE_START_S per reference start.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    reference = [sys.executable, "-c", REFERENCE_START]

    def wall(args):
        began = time.perf_counter()
        subprocess.run(args, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - began

    before = wall(reference)
    ratios = []
    for _ in range(SETUP_RUNS):
        setup = wall(cmd)
        after = wall(reference)
        ratios.append(2 * setup / (before + after))
        before = after
    return REFERENCE_START_S * statistics.median(ratios)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(outcomes):
    """The end-to-end metrics of the loop. The loop's wall time is that of
    the chains, without the checks; each chain is scaled by the speed
    measured right after it."""
    attempted, failed = calls(outcomes)
    verdicts = sum(not o.failed for o in outcomes)
    # a call cut by the deadline leaves a peak that depends on how far it
    # got, so the peak is read up to the first such instance
    cut = [o.peak_rss_before for o in outcomes if "distinguishing.cert" in o.failed]
    return {
        "verdicts_per_s": (verdicts / sum(o.wall * o.speed for o in outcomes), "1/s"),
        "instance_s_p50": (tally.p50([o.seconds for o in outcomes]), "s"),
        "call_success_ratio": (1 - tally.failed_ratio(attempted, failed), "ratio"),
        "peak_rss_mb": (cut[0] if cut else peak_rss_mb(), "MB"),
    }


def per_layer(spans, k_spans):
    """The per-layer metrics derived from the spans, as measured."""
    n = sum(s.name == "instance" for s in spans)
    own = tally.seconds_by_name(spans)
    whole = tally.seconds_by_name(spans, inclusive=True)

    def busy(name):  # self time per instance
        return own.get(name, 0.0) / n

    def total(name, key):
        return tally.attr_total(spans, name, key)

    certs = sum(s.name == "distinguishing.cert" for s in spans)
    metrics = {
        "cayley.sample_s": busy("cayley.sample"),
        "cayley.build_s": busy("cayley.build"),
        "cayley.adjacency_s": busy("cayley.adjacency"),
        "cayley.edges": total("cayley.adjacency", "edges"),
        "cayley.edges_per_s": tally.rate(total("cayley.adjacency", "edges"), whole["cayley.adjacency"]),
        "coloring.chi_s": busy("coloring.chi"),
        "coloring.coset_s": busy("coloring.coset"),
        "coloring.proper_s": busy("coloring.proper"),
        "autgroup.aut_s": busy("autgroup.aut"),
        "autgroup.nodes": total("autgroup.aut", "nodes"),
        "autgroup.nodes_per_s": tally.rate(total("autgroup.aut", "nodes"), whole["autgroup.aut"]),
        "autgroup.generators": total("autgroup.aut", "generators"),
        "autgroup.incomplete": total("autgroup.aut", "incomplete"),
        "autgroup.dichotomy_s": busy("autgroup.dichotomy"),
        "autgroup.dichotomy_failed": total("autgroup.dichotomy", "failed"),
        "autgroup.verdict_i": total("autgroup.dichotomy", "verdict_i"),
        "autgroup.verdict_ii": total("autgroup.dichotomy", "verdict_ii"),
        "permgroup.K_s": statistics.median(s.seconds for s in k_spans),
        "permgroup.base_len": total("autgroup.aut", "base_len"),
        "permgroup.order_log2": total("autgroup.aut", "order_log2"),
        "distinguishing.cert_s": whole.get("distinguishing.cert", 0.0) / n,
        "distinguishing.check_s": busy("distinguishing.check"),
        "distinguishing.cert_found": total("distinguishing.cert", "found"),
        "distinguishing.cert_yield": total("distinguishing.cert", "found") / certs if certs else 0.0,
        "distinguishing.timed_out": total("distinguishing.cert", "timed_out"),
        "trace.instances": n,
        "trace.span_coverage": 1 - own["instance"] / whole["instance"],
    }
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def at_reference_speed(metrics, speed):
    """Scale times by the calibration speed, and rates by its inverse."""
    scale = {"s": speed, "1/s": 1 / speed}
    return {name: (value * scale.get(unit, 1), unit) for name, (value, unit) in metrics.items()}


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_yield", "_coverage")):
        return "ratio"
    if name.endswith("_log2"):
        return "bits"
    return "count"


def write_spans(path, spans):
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(vars(s)) + "\n")


def load_digest(name):
    if not DIGEST.exists():
        return []
    return json.loads(DIGEST.read_text())["workloads"].get(name, [])


def record_digest(name, outcomes):
    data = json.loads(DIGEST.read_text()) if DIGEST.exists() else {"seed": DEFAULT_SEED, "workloads": {}}
    data["workloads"][name] = [o.answer for o in outcomes]
    DIGEST.write_text(json.dumps(data, indent=1) + "\n")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="sets how many instances run: about this long on the sizing machine")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop before the first instance (used to time set-up)")
    ap.add_argument("--record-digest", action="store_true",
                    help=f"store this run's answers in {DIGEST.name} (seed {DEFAULT_SEED} only)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    # trial seeds are drawn between instances, outside every timing: how many
    # draws a stratum takes varies with the seed
    seeds = InstanceSeeds(args.workload, wl, args.seed)
    if args.setup_only:
        return 0
    if args.record_digest and args.seed != DEFAULT_SEED:
        sys.exit(f"--record-digest needs --seed {DEFAULT_SEED}")
    signal.signal(signal.SIGALRM, _on_alarm)
    recorded = load_digest(args.workload) if args.seed == DEFAULT_SEED and not args.record_digest else []
    checker = Checker(wl, recorded)

    calibration = Calibration()
    untraced = (Untraced(), chi_D_upper_certificate)
    if not args.trace:
        count = instance_count(wl, args.seconds, 1)
        [outcomes] = run_instances(wl, seeds, count, [untraced], checker, calibration)
        if args.record_digest:
            record_digest(args.workload, outcomes)
        metrics = end_to_end(outcomes)
        metrics["setup_s"] = (setup_seconds(args.workload, args.seed), "s")
    else:
        # every instance untraced and traced: the difference is the overhead
        tracer = Tracer()
        modes = [untraced, (tracer, traced_certificate(tracer))]
        plain, outcomes = run_instances(
            wl, seeds, instance_count(wl, args.seconds, len(modes)), modes, checker, calibration
        )
        for a, b in zip(plain, outcomes):
            if a.answer != b.answer:
                checker.problems.append(
                    f"instance {a.index}: traced answer {b.answer} != untraced {a.answer}"
                )
        k_tracer = Tracer()
        for _ in range(K_RUNS):
            k_tracer.call("permgroup.K", scalar_affine_group, wl.q, wl.n)
        write_spans(
            TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
            tracer.spans + k_tracer.spans,
        )
        metrics = at_reference_speed(per_layer(tracer.spans, k_tracer.spans), calibration.speed())
        metrics["trace.overhead_s"] = (
            sum(o.wall * o.speed for o in outcomes) - sum(o.wall * o.speed for o in plain), "s"
        )

    for problem in checker.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    undefined = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    if undefined:  # instance_s_p50 when more than half the instances failed
        sys.exit(f"{', '.join(undefined)} undefined after {len(outcomes)} instances; run longer")
    attempted, failed = calls(outcomes)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(f"{'failed_ratio':28s} {tally.failed_ratio(attempted, failed):.6g} ratio")
    print(f"{'calibration_speed':28s} {calibration.speed():.6g} (times above are scaled by it)")
    result = {
        "correct": not checker.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
