"""Seconds-long self-check of the benchmark harness on tiny shapes.

    python3 perfbench/selfcheck.py

Runs a tiny training workload (200 entities, 1 and 2 workers) through the
same code as run.py and asserts that: every metric in BENCHMARK.json is
emitted with its unit, untraced and traced; the text report names
dp_speedup and ops_failed_share with units; a deliberately corrupted
checkpoint shows up as failed operations; and the benchmark refuses to
run, printing no result, when the program's sources are absent. Exits 0
when every assertion holds.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402  (sibling module, after the path is set)

TINY_TRAIN = bench.Workload("tiny_train", entities=200, batch=32, epochs=2, workers=(1, 2), setup_reps=2,
                            passes=2, fit_reps=1, eval_reps=1, contrast_check=False)


def spec():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def report_units(report):
    """name -> unit from the text report's '  name value unit' lines."""
    units = {}
    for line in report[1:]:
        parts = line.split()
        if len(parts) >= 3 and parts[0] != "failed:":
            units[parts[0]] = parts[2]
    return units


def check_emitted(result, report, listed):
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in listed}
    assert emitted == expected, f"metrics/units differ from BENCHMARK.json: {emitted} vs {expected}"
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    shown = report_units(report)
    for name, unit in expected.items():
        assert shown.get(name) == unit, f"report line for {name} missing or without unit {unit}"


def check_untraced(caspr, sp):
    result, report = bench.run_workload(caspr, TINY_TRAIN, seed=3, seconds=0, trace=0)
    assert result["correct"] and result["failed"] == 0, report
    check_emitted(result, report, sp["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values()), result
    shown = report_units(report)
    assert shown.get("ops_failed_share") == "ratio", report
    if len(os.sched_getaffinity(0)) >= 2:
        assert shown.get("dp_speedup") == "ratio", report
    print("PASS untraced: every end-to-end metric emitted with its unit")


def check_traced(caspr, sp):
    result, report = bench.run_workload(caspr, TINY_TRAIN, seed=3, seconds=0, trace=1)
    assert result["correct"], report
    check_emitted(result, report, sp["per_layer"])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    steps = TINY_TRAIN.epochs * math.ceil(TINY_TRAIN.entities / TINY_TRAIN.batch)
    assert values["pretrain.steps"] == 2 * steps, values       # serial run + 2-worker run
    assert values["transformer.multi_head_calls"] > 0 and values["autodiff.nodes_per_step"] > 0
    assert values["pretrain.dp_msgs_per_step"] >= 4, values    # a send and a recv per worker
    assert values["pretrain.dp_bytes_per_step"] > 0 and values["pretrain.dp_recv_wait_s"] > 0
    print("PASS traced: every per-layer metric emitted with its unit")


def check_corrupt_checkpoint(caspr):
    save = caspr.pretrain.save_checkpoint

    def save_truncated(ck, path):
        save(ck, path)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)

    caspr.pretrain.save_checkpoint = save_truncated
    try:
        result, report = bench.run_workload(caspr, TINY_TRAIN, seed=3, seconds=0, trace=0)
    finally:
        caspr.pretrain.save_checkpoint = save
    share = float(next(line.split()[1] for line in report if line.split()[0] == "ops_failed_share"))
    assert not result["correct"] and result["failed"] > 0 and share > 0, report
    print(f"PASS corrupted checkpoint: ops_failed_share {share:.3f} "
          f"({result['failed']} of {result['attempted']} operations)")


def check_refuses_without_sources():
    """Only BENCHMARK.json and perfbench/ present: non-zero exit, no result line."""
    bare = os.path.join(bench.ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", "baseline"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "train_b48", "--seed", "1",
             "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, (proc.returncode, proc.stdout)
    print(f"PASS without sources: exit {proc.returncode}, no result printed")


def main():
    caspr = bench.load_caspr()
    sp = spec()
    check_untraced(caspr, sp)
    check_traced(caspr, sp)
    check_corrupt_checkpoint(caspr)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
