"""Repeat the benchmark over seeds and summarise, or compare two summaries.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline/set1.json
    python3 perfbench/baseline.py --seeds 1 --trace 1 --out perfbench/baseline/trace.json
    python3 perfbench/baseline.py --compare perfbench/baseline/set1.json perfbench/baseline/set2.json

A set runs `run.py` once per workload and seed, one process at a time, with
the `run_seconds` of BENCHMARK.json, and records every value plus the
median and quartiles of each metric. Its spread is (q3 - q1) / median as
`statistics.quantiles(values, n=4)` gives the quartiles; a metric is steady
when that spread is below a third of its bound (setup_s is exempt).
`--compare` checks that no median of the second set is worse than the
first by more than the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402  (sibling module, after the path is set)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def one_run(workload, seed, seconds, trace):
    tic = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - tic
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {"seed": seed, "wall_s": wall, "report": lines[:-1], **result}


def summarise(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        out.update(bound=bound, steady=spread < bound / 3)
    return out


def run_set(args):
    spec = load_spec()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    out = {"stamp": bench.stamp(), "run_seconds": spec["run_seconds"], "trace": args.trace,
           "seeds": seeds, "workloads": {}}
    for name in workloads:
        runs = []
        for seed in seeds:
            r = one_run(name, seed, spec["run_seconds"], args.trace)
            runs.append(r)
            print(f"{name} seed {seed}: {r['wall_s']:.1f}s correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", flush=True)
        summary = {}
        if len(runs) >= 2:
            for m in metrics:
                vals = [r["metrics"][m["name"]]["value"] for r in runs]
                bound = None if m["name"] == "setup_s" or args.trace else m.get("bound")
                summary[m["name"]] = summarise(vals, bound)
        out["workloads"][name] = {"runs": runs, "summary": summary}
        for m, s in summary.items():
            flag = "" if s.get("steady", True) else "  NOT STEADY"
            print(f"  {m:<36} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"{'  bound/3 %.4f' % (s['bound'] / 3) if 'bound' in s else ''}{flag}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    steady = all(s.get("steady", True) for w in out["workloads"].values() for s in w["summary"].values())
    correct = all(r["correct"] for w in out["workloads"].values() for r in w["runs"])
    return 0 if steady and correct else 1


def compare(first_path, second_path):
    spec = load_spec()
    with open(first_path, encoding="utf-8") as fh:
        first = json.load(fh)
    with open(second_path, encoding="utf-8") as fh:
        second = json.load(fh)
    ok = True
    for m in spec["end_to_end"]:
        for name, w in first["workloads"].items():
            a = w["summary"][m["name"]]["median"]
            b = second["workloads"][name]["summary"][m["name"]]["median"]
            worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
            good = worse <= m["bound"]
            ok &= good
            print(f"{name:<14} {m['name']:<28} {a:.6g} -> {b:.6g}  worse by {worse:+.4f}"
                  f" (bound {m['bound']}){'' if good else '  REGRESSED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("--out is required unless --compare is given")
    return run_set(args)


if __name__ == "__main__":
    sys.exit(main())
