"""Run every workload over a range of seeds and summarise the end-to-end
metrics: median, quartiles and spread (quartile distance over median).

    python3 bench/trajectory.py --seeds 1-10
    python3 bench/trajectory.py --seeds 1-10 --record "what changed"

With --record the summary, one traced run per workload (its per-layer
metrics) and the machine's nproc and Python version are appended to
trajectory.json as the next point. Run it from the repository root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
TRAJECTORY = BENCH_DIR / "trajectory.json"


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--record", metavar="CHANGE", help="append a point for this change")
    args = ap.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"change": args.record, "nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "run_seconds": seconds,
             "seeds": args.seeds, "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        runs = [run(w, seed, seconds, 0) for seed in range(first, last + 1)]
        names = runs[0]["metrics"]
        metrics = {
            name: {**summarise([r["metrics"][name]["value"] for r in runs]),
                   "unit": names[name]["unit"]}
            for name in names
        }
        point["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
        }
        for name, m in metrics.items():
            mark = "" if name == "setup_s" or m["spread"] <= bounds[name] / 3 else "  above bound/3"
            print(f"{w:11s} {name:20s} median {m['median']:<12.6g} {m['unit']:6s}"
                  f"spread {m['spread']:.4f} (bound {bounds[name]}){mark}", flush=True)
    if args.record:
        for w in point["workloads"]:
            traced = run(w, first, seconds, 1)
            point["workloads"][w]["per_layer"] = {
                name: m["value"] for name, m in traced["metrics"].items()
            }
        data = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else {"points": []}
        point = {"point": len(data["points"]), **point}
        data["points"].append(point)
        TRAJECTORY.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
