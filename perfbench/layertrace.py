"""Per-layer tracing for the pipeline benchmark, applied from outside `src/`.

`Tracer.install` replaces each traced function with a wrapper at every
caspr module that holds a reference to it, so a function imported by name
elsewhere (`pretrain.encoder_forward`, `metrics.adam_step`) is traced at
that call site too. Each wrapper records one span; a span's self time is
its duration minus the durations of the spans it directly encloses. Spans
are aggregated per name while they close instead of being stored, because
a traced training run opens well over a million of them.

The parent's side of data-parallel training is traced by wrapping the pipe
`Connection` methods: `send` and `recv` become spans and the byte-level
methods count payload bytes. Forked workers inherit the wrappers but the
tracer switches itself off in every child, so only the parent is measured.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from multiprocessing import connection

MODULES = ("caspr", "caspr.ingest", "caspr.transformer", "caspr.autodiff", "caspr.pretrain",
           "caspr.metrics", "caspr.rfm", "caspr.cli")

# (home module, function): traced as span "<layer>.<function without leading _>"
SPANS = (
    ("ingest", "fit_schema"), ("ingest", "load_dataset"),
    ("transformer", "prepare_batch"), ("transformer", "encoder_forward"),
    ("transformer", "decoder_forward"), ("transformer", "multi_head"), ("transformer", "_ffn"),
    ("transformer", "reconstruction_heads"), ("transformer", "embed"),
    ("autodiff", "backward"), ("autodiff", "softmax"), ("autodiff", "layer_norm"),
    ("autodiff", "matmul"),
    ("pretrain", "train"), ("pretrain", "apply_mask"), ("pretrain", "reconstruction_loss"),
    ("pretrain", "compute_gradients"), ("pretrain", "adam_step"), ("pretrain", "checkpoint_from"),
    ("pretrain", "save_checkpoint"), ("pretrain", "load_checkpoint"),
    ("metrics", "train_linear_probe"),
    ("rfm", "rfm_events_from_csv"), ("rfm", "rfm_table"),
    ("cli", "atomic_write"), ("cli", "main"),
)

SEND_SPAN = "pretrain.dp_send_s"
RECV_SPAN = "pretrain.dp_recv_wait_s"


def span_metric(layer, func):
    return f"{layer}.{func.lstrip('_')}_s"


class Tracer:
    """Aggregated spans and counts; records only while `active` is true."""

    def __init__(self):
        self.active = False
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._open = Counter()   # span name -> currently open depth
        self._stack = []         # per open span: seconds covered by its children
        self._patches = []

    def _span(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            stack.append(0.0)
            tracer._open[name] += 1
            tic = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - tic
                tracer._open[name] -= 1
                tracer.self_s[name] += dur - stack.pop()
                tracer.calls[name] += 1
                if count:
                    tracer.counts[count] += 1
                if stack:
                    stack[-1] += dur

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, home, func, make_wrapper):
        """Replace `home.func` in every module that holds it; make_wrapper(site, original)."""
        original = getattr(importlib.import_module(f"caspr.{home}"), func)
        for mod in [importlib.import_module(m) for m in MODULES]:
            if getattr(mod, func, None) is original:
                self._patch(mod, func, make_wrapper(mod.__name__, original))

    def install(self):
        for home, func in SPANS:
            name = span_metric(home, func)
            # pretrain's own Adam calls are training steps; the probe's are not
            steps = "pretrain.steps" if func == "adam_step" else None
            self._patch_everywhere(home, func, lambda site, original, name=name, steps=steps: self._span(
                name, original, count=steps if site == "caspr.pretrain" else None))
        self._count_graph_nodes()
        self._count_rows()
        self._trace_pipes()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.active = False

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _count_graph_nodes(self):
        """Autograd nodes made inside compute_gradients, i.e. by training steps."""
        tracer = self
        autodiff = importlib.import_module("caspr.autodiff")
        make = autodiff._make
        in_step = "pretrain.compute_gradients_s"

        def counted_make(data, parents, backward_fn):
            if tracer.active and tracer._open[in_step]:
                tracer.counts["autodiff.step_nodes"] += 1
            return make(data, parents, backward_fn)

        self._patch(autodiff, "_make", counted_make)

    def _count_rows(self):
        tracer = self
        ingest = importlib.import_module("caspr.ingest")
        iter_rows = ingest.iter_raw_rows

        def counted_rows(path, schema):
            for rec in iter_rows(path, schema):
                if tracer.active:
                    tracer.counts["ingest.rows"] += 1
                yield rec

        self._patch_everywhere("ingest", "iter_raw_rows", lambda site, original: counted_rows)

    def _trace_pipes(self):
        tracer = self
        conn = connection.Connection
        send_bytes, recv_bytes = conn._send_bytes, conn._recv_bytes

        def counted_send_bytes(self, buf):
            if tracer.active:
                tracer.counts["pretrain.dp_bytes"] += len(buf)
            return send_bytes(self, buf)

        def counted_recv_bytes(self, maxsize=None):
            buf = recv_bytes(self, maxsize)
            if tracer.active:
                tracer.counts["pretrain.dp_bytes"] += buf.getbuffer().nbytes
            return buf

        self._patch(conn, "_send_bytes", counted_send_bytes)
        self._patch(conn, "_recv_bytes", counted_recv_bytes)
        self._patch(conn, "send", self._span(SEND_SPAN, conn.send, count="pretrain.dp_msgs"))
        self._patch(conn, "recv", self._span(RECV_SPAN, conn.recv, count="pretrain.dp_msgs"))
