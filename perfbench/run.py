"""Pipeline benchmark: runs caspr's CLI end to end and reports throughput.

    python3 perfbench/run.py --workload train_b48 --seed 1 --seconds 55 --trace 0

Each run is one process that imports caspr from `src/` of the checkout it
sits in and calls `caspr.cli.main` in process, one command at a time, on an
activity log that `caspr synth` generates from --seed. The load is a closed
loop of one client: after set-up, the workload's passes run with a round
of its short commands between them, then further rounds while another
round fits in --seconds. Each metric is a median over the run's samples;
times other than pretrain's are scaled to a fixed host speed (see
SPEED_PROBE_S). Every command exit and every output check is one operation;
`failed` counts the ones that went wrong. With --trace 1 the run makes an
untraced, a traced and an untraced pass and reports per-layer self times
and counts from the traced one (see layertrace.py). The last line of stdout
is the JSON result; the lines before it are a human-readable report.
perfbench/README.md explains the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import gc
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

# One BLAS thread, set before numpy loads. A two-thread matmul waits for
# its slower thread: on the 2-core baseline host, a small one took 12 times
# as long while another process kept the second core busy. With one
# thread, the 2-worker pretrain runs exactly as many threads as cores.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402  (after the thread setting)

from layertrace import RECV_SPAN, SEND_SPAN, SPANS, Tracer, span_metric  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

TRAIN_SEED = 0          # seed of every pretrain and eval command
CONTRAST_MIN_AUROC = 0.8
RFM_AUROC_BAND = (0.4, 0.6)


@dataclass(frozen=True)
class Workload:
    name: str
    entities: int          # entities in the generated log
    batch: int
    epochs: int
    workers: tuple         # worker counts of the measured pretrain runs, serial first
    setup_reps: int = 3    # setups before the first pass; every round adds one more
    passes: int = 2        # passes per run; >= 2 lets a run compare repeated artifacts byte for byte
    fit_reps: int = 2      # fit commands before each other command of a round
    eval_reps: int = 2     # rfm + eval pairs per round; eval is the noisiest command per call
    contrast_check: bool = True   # embedding probe >= 0.8 and RFM probe at 0.5 +- 0.1


WORKLOADS = {
    w.name: w for w in (
        Workload("train_b48", entities=2000, batch=48, epochs=2, workers=(1,)),
        Workload("train_b512_dp", entities=2048, batch=512, epochs=2, workers=(1, 2)),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_entity_epochs_per_s": "entity-epoch/s",
    "embed_entities_per_s": "entities/s",
    "fit_rows_per_s": "rows/s",
    "rfm_entities_per_s": "entities/s",
    "eval_s": "s",
    "probe_auroc": "1",
    "peak_rss_mb": "MiB",
}


def load_caspr():
    """Import caspr from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "caspr", "cli.py")):
        raise SystemExit(f"perfbench: no caspr sources under {SRC}")
    sys.path.insert(0, SRC)
    import caspr.cli
    if not os.path.abspath(caspr.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported caspr from {caspr.cli.__file__}, not {SRC}")
    return caspr


def stamp():
    """Host and build facts that every result is read against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "commit": _git_commit(),
    }


def _blas_threads(np):
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return fn()
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
           if k in os.environ}
    return env or "unknown"


def _git_commit():
    """HEAD of the checkout read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# The host's speed drifts by a fifth or more over tens of seconds, and every
# command drifts with it, so a run's medians move with the moment it ran.
# A fixed speed probe -- row parsing as in ingest and rfm, then small
# matmuls as in the model -- is timed just before and just after each
# command. A command's wall is scaled by SPEED_PROBE_S over the median
# speed probe time within SPEED_WINDOW_S of it; a single probe is too
# noisy. The reported times of synth, fit, embed, rfm and eval are thus
# times at one fixed host speed, the speed at which the probe takes
# SPEED_PROBE_S (about the baseline host's median). pretrain is not
# scaled: its wall does not follow the probe's. The probe does not touch
# caspr, so a change to the program moves the scaled times exactly as
# much as the walls.
SPEED_PROBE_S = 0.0016
SPEED_WINDOW_S = 10.0
_SPEED_ROWS = [f"e{i:05d},{1600000000 + 37 * i},{i * 0.37:.4f},item_{i % 50:03d},ch_{i % 4}"
               for i in range(400)]
_SPEED_RNG = np.random.default_rng(0)
_SPEED_X = _SPEED_RNG.standard_normal((720, 64))
_SPEED_W = _SPEED_RNG.standard_normal((64, 64))


def _speed_probe_once():
    tic = time.perf_counter()
    groups = {}
    for line in _SPEED_ROWS:
        _, ts, amount, item, _ = line.split(",")
        groups.setdefault(item, []).append(float(amount) + int(ts) % 7)
    x = _SPEED_X
    for _ in range(3):
        x = np.tanh(x @ _SPEED_W)
        x = x - x.mean(axis=1, keepdims=True)
    return time.perf_counter() - tic


def speed_probe_s(reps=3):
    """The speed probe's time now: the median of reps probes."""
    return statistics.median(_speed_probe_once() for _ in range(reps))


@dataclass(frozen=True)
class Timing:
    """Wall seconds of one command, or of several back to back, and when they ran."""
    wall: float
    start: float
    end: float
    scale: bool = True      # report the wall at the speed probe's nominal host speed

    def __add__(self, other):
        return Timing(self.wall + other.wall, min(self.start, other.start), max(self.end, other.end),
                      self.scale and other.scale)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class Pipeline:
    """Runs CLI commands in process and counts operations and failures."""

    def __init__(self, caspr, work):
        self.cli = caspr.cli
        self.work = work
        self.attempted = 0
        self.failures = []
        self.speed_probes = []        # (perf_counter, probe seconds), two per command

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok

    def guarded(self, what, fn, *args):
        """One output check; a check that raises counts as failed."""
        try:
            return self.check(fn(*args), what)
        except Exception as exc:  # a malformed artifact must fail the check, not the run
            return self.check(False, f"{what}: {type(exc).__name__}: {exc}")

    def speed_probe(self):
        self.speed_probes.append((time.perf_counter(), speed_probe_s()))

    def speed(self, timing):
        """Host speed around a timing: SPEED_PROBE_S over the median probe within SPEED_WINDOW_S."""
        lo, hi = timing.start - SPEED_WINDOW_S, timing.end + SPEED_WINDOW_S
        return SPEED_PROBE_S / statistics.median(s for t, s in self.speed_probes if lo <= t <= hi)

    def scaled(self, timing):
        """A timing's wall at the nominal host speed, or its bare wall if it is not scaled."""
        return timing.wall * self.speed(timing) if timing.scale else timing.wall

    def host_speed(self):
        return SPEED_PROBE_S / statistics.median(s for _, s in self.speed_probes)

    def cmd(self, *argv, scale=True):
        """Run one CLI command between two speed probes and return its Timing.

        A non-zero exit is a failed operation.
        """
        out = io.StringIO()
        gc.collect()  # the previous command's garbage is not this command's cost
        self.speed_probe()
        tic = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = self.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rc = "traceback"
        toc = time.perf_counter()
        self.speed_probe()
        self.check(rc == 0, f"caspr {argv[0]} exited {rc}")
        return Timing(toc - tic, tic, toc, scale)

    def synth(self, entities, seed):
        return self.cmd("synth", "--out", self.path("data"), "--n-entities", str(entities),
                        "--seed", str(seed))

    def fit(self, data, out):
        return self.cmd("fit", "--schema", self.path("data", "schema.json"), "--data", data,
                        "--out", out)

    def pretrain(self, data, out, w, workers):
        return self.cmd("pretrain", "--fitted", self.path("fitted.json"), "--data", data,
                        "--out", out, "--epochs", str(w.epochs), "--batch-size", str(w.batch),
                        "--seed", str(TRAIN_SEED), "--workers", str(workers), scale=False)

    def eval(self, features, out):
        return self.cmd("eval", "--features", features, "--labels", self.path("data", "labels.csv"),
                        "--task", "binary", "--out", out, "--seed", str(TRAIN_SEED))


def loss_log_ok(path, epochs):
    rows = read_csv(path)[1:]
    losses = [float(r[1]) for r in rows]
    return len(losses) == epochs and all(map(math.isfinite, losses)) and losses[-1] < losses[0]


def epoch_walls(path):
    return [float(r[2]) for r in read_csv(path)[1:]]


def feature_csv_ok(path, entities, width):
    rows = read_csv(path)
    body = rows[1:]
    return (rows[0][0] == "entity" and len(rows[0]) == width + 1 and len(body) == entities
            and len({r[0] for r in body}) == entities
            and all(len(r) == width + 1 and all(math.isfinite(float(x)) for x in r[1:]) for r in body))


def report_auroc(path):
    return {name: float(value) for name, value in read_csv(path)[1:]}["auroc"]


def ratio(num, den):
    return num / den if den > 0 else float("nan")


def count_rows(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


class WorkloadRun:
    """Set-up, measured passes and output checks of one workload in one work directory.

    A throughput is the median over the run's samples of work / time, and
    a time the median time, each time scaled to the speed probe's nominal host
    speed: on a host whose speed comes in bursts, the median of many
    samples spread over the run moves less from run to run than a total or
    a mean, which one slow burst pulls.
    """

    def __init__(self, caspr, w, seed, work):
        self.caspr = caspr
        self.w = w
        self.seed = seed
        self.p = Pipeline(caspr, work)
        self.emb_out = caspr.transformer.ModelConfig().emb_out
        self.samples = {}       # metric -> [(work, Timing)]
        self.dp_pairs = []      # (1-worker, 2-worker) pretrain Timings
        self.dp_extra = []      # first-epoch wall minus median later epoch wall, 2-worker runs
        self.first = {}         # artifact -> sha256 of its first version
        self.aurocs = {}
        self.recording = True   # off during a traced pass
        self.round_setup = True  # off in a traced run, so that its three passes do the same work
        self.dp_counts = {}
        self.last_round = 0.0

    def add(self, metric, work, timing):
        if self.recording:
            self.samples.setdefault(metric, []).append((work, timing))

    def rate(self, metric):
        rates = [ratio(work, self.p.scaled(t)) for work, t in self.samples.get(metric, [])]
        return statistics.median(rates) if rates else float("nan")

    def median_time(self, metric):
        pairs = self.samples.get(metric, [])
        return statistics.median(self.p.scaled(t) for _, t in pairs) if pairs else float("nan")

    def dp_speedup(self):
        pairs = [(self.p.scaled(a), self.p.scaled(b)) for a, b in self.dp_pairs]
        return statistics.median(ratio(a, b) for a, b in pairs) if pairs else float("nan")

    # -- setup ------------------------------------------------------------

    def setup(self):
        for _ in range(self.w.setup_reps):
            self.set_up_once()
        self.rows = count_rows(self.p.path("data", "data.csv"))
        self.fitted_sha = sha256(self.p.path("fitted.json"))

    def set_up_once(self):
        """synth + fit, timed as one set-up; the regenerated log must not change."""
        p = self.p
        self.add("setup", 1, p.synth(self.w.entities, self.seed) + p.fit(p.path("data", "data.csv"),
                                                                        p.path("fitted.json")))
        self.same("synth output", os.path.join("data", "data.csv"))

    # -- measured work ----------------------------------------------------

    def run_pass(self, tracer=None, serial=True):
        """A pretrain run per worker count, then one round of the short commands.

        serial=False skips the serial run of a data-parallel workload: only
        dp_speedup and the traced pass need it, and it would take the time
        of three rounds.
        """
        w, p = self.w, self.p
        timings = {}
        for workers in w.workers if serial else w.workers[-1:]:
            run_dir = p.path(f"run_w{workers}")
            before = dict(tracer.counts) if tracer else {}
            timings[workers] = p.pretrain(p.path("data", "data.csv"), run_dir, w, workers)
            p.guarded(f"loss log ({workers} workers)", loss_log_ok,
                      os.path.join(run_dir, "loss_log.csv"), w.epochs)
            self.same(f"checkpoint ({workers} workers)", os.path.join(run_dir, "checkpoint.bin"))
            if workers > 1:
                self.dp_pass(run_dir, before, tracer)
        first, last = w.workers[0], w.workers[-1]
        self.add("train", w.entities * w.epochs, timings[last])
        if first != last and first in timings and self.recording:
            self.dp_pairs.append((timings[first], timings[last]))
        self.checkpoint = p.path(f"run_w{last}", "checkpoint.bin")
        self.run_round()

    def fits(self):
        """fit_reps fit commands. They sit between the other commands of a round,
        so that the run's shortest command samples the whole run, not one moment."""
        data = self.p.path("data", "data.csv")
        for _ in range(self.w.fit_reps):
            self.add("fit", self.rows, self.p.fit(data, self.p.path("fitted.json")))
            self.same("fit output", "fitted.json", expect=self.fitted_sha)

    def run_round(self):
        """A set-up, then fits, embed and eval_reps eval rounds, with their checks.

        Repeating the set-up in every round samples its time across the
        whole run, as for the other commands; a few set-ups at the start
        alone would catch only the host's speed at that moment.
        """
        w, p = self.w, self.p
        tic = time.perf_counter()
        data = p.path("data", "data.csv")
        emb = p.path("embeddings.csv")
        if self.round_setup:  # synth is the load generator; a traced run leaves set-up out
            self.set_up_once()
        self.fits()
        self.add("embed", w.entities, p.cmd("embed", "--checkpoint", self.checkpoint, "--data", data,
                                            "--out", emb))
        p.guarded("embeddings: one finite row per entity", feature_csv_ok, emb, w.entities, self.emb_out)
        self.same("embeddings", "embeddings.csv")
        for _ in range(w.eval_reps):
            self.eval_round(data, emb)
        self.last_round = time.perf_counter() - tic

    def eval_round(self, data, emb):
        """fits, rfm, fits, then eval on the embeddings and on the RFM table, with their checks."""
        w, p = self.w, self.p
        rfm_csv = p.path("rfm.csv")
        self.fits()
        self.add("rfm", w.entities, p.cmd("rfm", "--schema", p.path("data", "schema.json"),
                                          "--data", data, "--out", rfm_csv))
        p.guarded("rfm table: one finite row per entity", feature_csv_ok, rfm_csv, w.entities,
                  len(self.caspr.rfm.FEATURE_NAMES))
        self.fits()
        self.add("eval", 1, p.eval(emb, p.path("report_emb.csv")) + p.eval(rfm_csv, p.path("report_rfm.csv")))
        for which in ("emb", "rfm"):
            try:
                self.aurocs[which] = report_auroc(p.path(f"report_{which}.csv"))
            except (OSError, KeyError, ValueError, IndexError):
                self.aurocs[which] = float("nan")
        if w.contrast_check:
            emb_auroc, rfm_auroc = self.aurocs["emb"], self.aurocs["rfm"]
            p.check(emb_auroc >= CONTRAST_MIN_AUROC,
                    f"embedding probe AUROC {emb_auroc:.4f} < {CONTRAST_MIN_AUROC}")
            lo, hi = RFM_AUROC_BAND
            p.check(lo <= rfm_auroc <= hi, f"RFM probe AUROC {rfm_auroc:.4f} outside [{lo}, {hi}]")

    def dp_pass(self, run_dir, before, tracer):
        walls = epoch_walls(os.path.join(run_dir, "loss_log.csv"))
        if self.recording:
            self.dp_extra.append(walls[0] - statistics.median(walls[1:]))
        if tracer:
            delta = {k: tracer.counts[k] - before.get(k, 0) for k in tracer.counts}
            steps = delta.get("pretrain.steps", 0)
            self.dp_counts = {
                "pretrain.dp_bytes_per_step": ratio(delta.get("pretrain.dp_bytes", 0), steps),
                "pretrain.dp_msgs_per_step": ratio(delta.get("pretrain.dp_msgs", 0), steps),
            }

    def same(self, what, path, expect=None):
        """Determinism: an artifact must be byte-identical every time the run makes it."""
        try:
            digest = sha256(self.p.path(path))
        except OSError as exc:
            return self.p.check(False, f"{what}: {exc}")
        if expect is None:
            expect = self.first.setdefault(path, digest)
        return self.p.check(digest == expect, f"{what} differs between runs of the same seed")

    # -- results ------------------------------------------------------------

    def end_to_end(self):
        return {
            "setup_s": self.median_time("setup"),
            "train_entity_epochs_per_s": self.rate("train"),
            "embed_entities_per_s": self.rate("embed"),
            "fit_rows_per_s": self.rate("fit"),
            "rfm_entities_per_s": self.rate("rfm"),
            "eval_s": self.median_time("eval"),
            "probe_auroc": self.aurocs.get("emb", float("nan")),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def per_layer_names():
    names = [span_metric(layer, func) for layer, func in SPANS] + [SEND_SPAN, RECV_SPAN]
    return names + list(PER_LAYER_UNITS)


# Per-layer metrics that are not span self times, with their units
PER_LAYER_UNITS = {
    "ingest.rows": "count", "transformer.multi_head_calls": "count",
    "autodiff.nodes_per_step": "count", "pretrain.steps": "count",
    "pretrain.dp_bytes_per_step": "bytes", "pretrain.dp_msgs_per_step": "count",
    "pretrain.dp_first_epoch_extra_s": "s", "pretrain.dp_speedup": "ratio",
    "bench.traced_wall_ratio": "ratio",
}


def per_layer_unit(name):
    return PER_LAYER_UNITS.get(name, "s")


def measure(run, w, seconds):
    """The passes with a round between each two, then rounds while another fits in --seconds.

    The rounds between passes spread the few pretrain samples over the run,
    so that they do not all fall into one fast or slow spell of the host.
    """
    start = time.perf_counter()
    for i in range(w.passes):
        if i:
            run.run_round()
        run.run_pass(serial=i == 0)
    while time.perf_counter() - start + run.last_round <= seconds:
        run.run_round()


def measure_traced(run, tracer):
    """Untraced, traced, untraced pass; returns the traced wall over its neighbours' mean.

    Both neighbours share the traced pass's warm-up state, so their mean
    stands for its untraced wall.
    """
    walls = []
    run.round_setup = False
    for active in (False, True, False):
        tracer.active = active
        run.recording = not active
        tic = time.perf_counter()
        run.run_pass(tracer if active else None)
        walls.append(time.perf_counter() - tic)
        tracer.active = False
    run.recording = True
    return walls[1] / statistics.mean(walls[::2])


def layer_metrics(run, tracer, traced_wall_ratio, dp_speedup):
    values = {name: 0.0 for name in per_layer_names()}
    values.update(tracer.self_s)
    steps = tracer.calls["pretrain.compute_gradients_s"]
    values.update(run.dp_counts)
    values.update({
        "ingest.rows": tracer.counts["ingest.rows"],
        "transformer.multi_head_calls": tracer.calls["transformer.multi_head_s"],
        "autodiff.nodes_per_step": ratio(tracer.counts["autodiff.step_nodes"], steps),
        "pretrain.steps": tracer.counts["pretrain.steps"],
        "pretrain.dp_first_epoch_extra_s": statistics.median(run.dp_extra) if run.dp_extra else 0.0,
        "pretrain.dp_speedup": dp_speedup,
        "bench.traced_wall_ratio": traced_wall_ratio,
    })
    return {k: {"value": _num(values[k]), "unit": per_layer_unit(k)} for k in per_layer_names()}


def run_workload(caspr, w, seed, seconds, trace):
    """Set up and measure one workload; returns (result dict, text report lines)."""
    work = os.path.join(ROOT, ".perfbench_work", f"{w.name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = WorkloadRun(caspr, w, seed, work)
    tracer = None
    try:
        run.setup()
        if trace:
            tracer = Tracer()
            tracer.install()
            traced_wall_ratio = measure_traced(run, tracer)
        else:
            measure(run, w, seconds)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    e2e = run.end_to_end()
    failed, attempted = len(run.p.failures), run.p.attempted
    multi_core = len(os.sched_getaffinity(0)) >= 2
    dp_speedup = run.dp_speedup() if multi_core else float("nan")
    report = [f"workload {w.name} seed {seed}: {json.dumps(stamp(), sort_keys=True)}"]
    report += [f"  {k:<28} {v:.6g} {END_TO_END_UNITS[k]}" for k, v in e2e.items()]
    if math.isfinite(dp_speedup):
        report.append(f"  {'dp_speedup':<28} {dp_speedup:.6g} ratio")
    report.append(f"  {'host_speed':<28} {run.p.host_speed():.6g} ratio "
                  f"(over {len(run.p.speed_probes)} speed probes; a scaled time is its wall times the "
                  "host speed around it)")
    report.append(f"  {'ops_failed_share':<28} {failed / max(attempted, 1):.6g} ratio "
                  f"({failed} of {attempted} operations failed)")
    report += [f"  failed: {what}" for what in run.p.failures]
    if trace:
        metrics = layer_metrics(run, tracer, traced_wall_ratio, dp_speedup)
        report += [f"  {k:<36} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    else:
        metrics = {k: {"value": _num(v), "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def _num(value):
    value = float(value)
    return value if math.isfinite(value) else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    caspr = load_caspr()
    result, report = run_workload(caspr, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print("\n".join(report))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
