"""Command-line front end.

One binary with subcommands; every randomized command takes an explicit
--seed, and identical command lines produce byte-identical output when
--no-meta suppresses timestamps and runtimes.

Exit codes: 0 success (also when the reader of stdout closes it early, as
`head` does), 2 invalid input, 3 budget exceeded, 4 internal invariant
violation.
"""

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone

from .autgroup import NODE_BUDGET, automorphism_group, dichotomy_check
from .bounds import (
    aut_union_bound,
    chernoff_report,
    monte_carlo_pipeline,
    sweep_all_line_subsets,
    theorem_qn_params,
    trial_rows,
)
from .cayley import ConnectionSet, build_graph, sample_connection_set
from .coloring import ENUM_LIMIT, Coloring, exact_chromatic_number, is_proper
from .distinguishing import chi_D_upper_certificate, is_distinguishing
from .errors import BudgetExceeded, InvariantViolation
from .geometry import line_universe


def _write_out(args, write):
    """Call write on the --out file, or on stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


def _emit_json(args, payload, **meta):
    if not args.no_meta:
        payload["meta"] = {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "runtime_ms": int((time.perf_counter() - args.start) * 1000),
            **meta,
        }
    # no indent: with one, json drops its C encoder for the pure-Python one,
    # which at (5,8) takes 2.5 s and 290 MB more on aut's generators
    _write_out(args, lambda fh: fh.write(json.dumps(payload, sort_keys=True) + "\n"))


def _load_connection(args):
    if args.infile:
        with open(args.infile) as fh:
            s = ConnectionSet.from_json_dict(json.load(fh))
        if (s.q, s.n) != (args.q, args.n):
            raise ValueError(f"--in holds a set for q={s.q}, n={s.n}, not q={args.q}, n={args.n}")
        return s
    if args.seed is None:
        raise ValueError("either --in or --seed is required")
    return sample_connection_set(args.q, args.n, args.p, args.seed)


def cmd_lines(args):
    universe = line_universe(args.q, args.n)
    payload = {
        "q": args.q,
        "n": args.n,
        "count": len(universe),
        "lines": [list(rep) for rep in universe],
    }
    _emit_json(args, payload)
    return 0


def cmd_sample(args):
    if args.seed is None:
        raise ValueError("--seed is required")
    s = sample_connection_set(args.q, args.n, args.p, args.seed)
    _emit_json(args, s.to_json_dict())
    return 0


def cmd_build(args):
    g = build_graph(_load_connection(args))
    if args.format == "dimacs":
        _write_out(args, g.write_dimacs)
        return 0
    payload = {
        "q": g.q,
        "n": g.n,
        "num_vertices": g.num_vertices,
        "degree": g.degree,
        "num_edges": g.num_edges,
        "lines": [list(rep) for rep in g.connection.lines],
    }
    _emit_json(args, payload)
    return 0


def cmd_chi(args):
    g = build_graph(_load_connection(args))
    result = exact_chromatic_number(g)
    payload = {
        "lower": result.value,
        "upper": result.value,
        "exact": True,
        "value": result.value,
        "clique": list(result.clique) if result.clique else None,
        "coloring": result.coloring.to_json_dict(),
    }
    _emit_json(args, payload)
    return 0


def cmd_aut(args):
    g = build_graph(_load_connection(args))
    aut = automorphism_group(g, node_budget=args.budget_nodes)
    if aut.complete:
        payload = {"order": str(aut.group.order()), "generators": aut.group.generators}
        payload.update(dichotomy_check(g, aut))
    else:
        # the generators found before the budget ran out, of no known order
        payload = {"order": "unknown", "generators": aut.pool}
        payload.update(equals_K=None, dichotomy=None, witness=None)
    payload.update(complete=aut.complete, nodes=aut.nodes)
    _emit_json(args, payload, **aut.counts)
    return 0 if aut.complete else 3


def cmd_distinguish(args):
    g = build_graph(_load_connection(args))
    aut = automorphism_group(g, node_budget=args.budget_nodes)
    if not aut.complete:
        _emit_json(args, {"complete": False, "nodes": aut.nodes})
        return 3
    if args.coloring:
        with open(args.coloring) as fh:
            c = Coloring.from_json_dict(json.load(fh))
        payload = is_distinguishing(c, aut).to_json_dict()
        # a file is the one source of a coloring that can be improper
        payload["proper"] = is_proper(g, c)
        payload["coloring"] = c.to_json_dict()
    else:
        cert = chi_D_upper_certificate(g, aut)
        if cert is None:
            payload = {"certificate_found": False}
        else:
            # chi_D_upper_certificate returns only a distinguishing coloring
            payload = {"distinguishing": True, "fixing_order": "1", "certificate_found": True}
            payload["coloring"] = cert.to_json_dict()
    _emit_json(args, payload)
    return 0


def cmd_experiment(args):
    if args.sweep_all_subsets:
        if args.format != "json":
            raise ValueError("--sweep-all-subsets prints its census as JSON only")
        rows = sweep_all_line_subsets(
            args.q, args.n, enum_limit=args.budget_enum, node_budget=args.budget_nodes
        )
        _emit_json(args, {"census": rows})
        return 0
    if args.seed is None:
        raise ValueError("--seed is required")
    report = monte_carlo_pipeline(
        args.q,
        args.n,
        args.trials,
        args.seed,
        p=args.p,
        node_budget=args.budget_nodes,
        jobs=args.jobs,
    )
    if args.no_meta:
        for record in report["records"]:
            del record["runtime_ms"]
    if args.format == "csv":
        lines = trial_rows(report["records"])
        _write_out(args, lambda fh: fh.write("\n".join(lines) + "\n"))
        return 0
    _emit_json(args, report)
    return 0


def cmd_bounds(args):
    if args.k is not None:
        payload = theorem_qn_params(args.k, args.n)
    else:
        if args.q is None or args.n is None:
            raise ValueError("either --k or both --q and --n are required")
        payload = {"union_bound": aut_union_bound(args.q, args.n)}
        if args.n >= 3:
            payload["chernoff"] = chernoff_report(
                args.q, args.n, trials=args.trials or 0, seed=args.seed
            )
    _emit_json(args, payload)
    return 0


def _add_common(sub, q=True, n=True, sample=False, infile=False, node_budget=False):
    if q:
        sub.add_argument("--q", type=int, required=True, help="odd prime field size")
    if n:
        sub.add_argument("--n", type=int, required=True, help="dimension")
    if sample:
        sub.add_argument("--p", type=float, default=0.5, help="per-line probability")
        sub.add_argument("--seed", type=int, default=None, help="random seed")
    if infile:
        sub.add_argument("--in", dest="infile", default=None, help="connection set JSON")
    if node_budget:
        sub.add_argument("--budget-nodes", type=_positive_int, default=NODE_BUDGET)
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--no-meta", action="store_true", help="omit timestamps and runtimes")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="linecayley",
        description="Cayley graphs from random line unions: construction and verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("lines", help="list the line universe")
    _add_common(sub)
    sub.set_defaults(func=cmd_lines)

    sub = subs.add_parser("sample", help="sample a random connection set")
    _add_common(sub, sample=True)
    sub.set_defaults(func=cmd_sample)

    sub = subs.add_parser("build", help="materialize the Cayley graph")
    _add_common(sub, sample=True, infile=True)
    sub.add_argument("--format", choices=("json", "dimacs"), default="json")
    sub.set_defaults(func=cmd_build)

    sub = subs.add_parser("chi", help="chromatic number with certificates")
    _add_common(sub, sample=True, infile=True)
    sub.set_defaults(func=cmd_chi)

    sub = subs.add_parser("aut", help="automorphism group and dichotomy")
    _add_common(sub, sample=True, infile=True, node_budget=True)
    sub.set_defaults(func=cmd_aut)

    sub = subs.add_parser("distinguish", help="distinguishing verdicts")
    _add_common(sub, sample=True, infile=True, node_budget=True)
    sub.add_argument("--coloring", default=None, help="coloring JSON to test")
    sub.set_defaults(func=cmd_distinguish)

    sub = subs.add_parser("experiment", help="seeded Monte-Carlo trials")
    _add_common(sub, sample=True, node_budget=True)
    sub.add_argument("--budget-enum", type=_positive_int, default=ENUM_LIMIT)
    sub.add_argument("--trials", type=int, default=20)
    sub.add_argument("--jobs", type=_positive_int, default=1)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--sweep-all-subsets", action="store_true")
    sub.set_defaults(func=cmd_experiment)

    sub = subs.add_parser("bounds", help="closed-form bound evaluation")
    sub.add_argument("--q", type=int, default=None)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--trials", type=int, default=0)
    sub.add_argument("--seed", type=int, default=None)
    _add_common(sub, q=False, n=False)
    sub.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.start = time.perf_counter()  # the one clock of meta.runtime_ms
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # the reader has all it wants; stdout goes to devnull so that the
        # flush at interpreter exit does not fail on the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
