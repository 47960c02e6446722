"""The benchmark looks up caspr names; keep those names resolvable.

perfbench/layertrace.py wraps each (module, function) in its SPANS with
getattr and no default, and replaces autodiff._make to count graph nodes
and ingest.iter_raw_rows to count rows, so a rename in caspr would crash
`perfbench/run.py --trace 1`.
perfbench/run.py also reads ModelConfig().emb_out as the embedding width it
checks and rfm.FEATURE_NAMES as the RFM table's width. This test reads
perfbench/ and changes nothing there; its last test runs
perfbench/selfcheck.py, which works under the ignored .perfbench_work/.
"""
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

import pytest

from caspr import autodiff, cli, ingest, pretrain, rfm, transformer
from caspr.cli import main

LAYERTRACE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layertrace.py")


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_layertrace().SPANS


@pytest.mark.parametrize("home, func", SPANS, ids=[f"{h}.{f}" for h, f in SPANS])
def test_span_resolves(home, func):
    assert callable(getattr(importlib.import_module(f"caspr.{home}"), func))


def test_widths_read_by_the_benchmark_resolve():
    assert type(transformer.ModelConfig().emb_out) is int
    assert isinstance(rfm.FEATURE_NAMES, list) and all(type(n) is str for n in rfm.FEATURE_NAMES)


def test_node_counter_hook_resolves():
    inspect.signature(autodiff._make).bind(None, (), None)  # the tracer's call shape


def test_row_counter_hook_resolves(tmp_path):
    """layertrace counts rows by wrapping ingest.iter_raw_rows(path, schema) as a generator of
    the CSV's header, then its records."""
    path = tmp_path / "log.csv"
    path.write_text('entity,ts\ne1,5\n"e,2",6\n')
    schema = ingest.Schema([ingest.ColumnSpec("entity", "entity_id"), ingest.ColumnSpec("ts", "timestamp")])
    rows = ingest.iter_raw_rows(path, schema)
    assert inspect.isgenerator(rows)
    assert list(rows) == [["entity", "ts"], ["e1", "5"], ["e,2", "6"]]


def test_training_steps_are_counted_at_pretrain():
    """layertrace counts a step per adam_step called from pretrain's namespace."""
    pretrain = importlib.import_module("caspr.pretrain")
    assert pretrain.adam_step is autodiff.adam_step
    assert "adam_step(" in inspect.getsource(pretrain.train)


def test_probe_fit_is_traced_at_eval():
    """layertrace times the probe fit as metrics.train_linear_probe, so eval calls it by that
    name; another path to the fit would leave metrics.train_linear_probe_s at 0."""
    assert "metrics.train_linear_probe(" in inspect.getsource(cli.evaluate_features)


def test_embed_is_traced_at_embed_and_rank():
    """layertrace times the pooled embedding pass as transformer.embed, and the benchmark's
    embed_entities_per_s times `caspr embed`, so both commands' shared loader calls it by
    that name; another path would leave transformer.embed_s at 0."""
    assert "transformer.embed(" in inspect.getsource(cli._embed_log)


def test_one_compute_gradients_call_per_step(monkeypatch):
    """layertrace counts steps and graph nodes per step from pretrain.compute_gradients
    calls, so a step whose batch spans several tiles must still be one call, serial or
    data-parallel."""
    from test_pretrain import MODEL, tiny_dataset

    real_compute = pretrain.compute_gradients
    monkeypatch.setattr(transformer, "TILE", 4)
    for workers in (1, 2):
        calls = []

        def spy(weights, batch, **kwargs):
            calls.append(len(batch.entities))
            return real_compute(weights, batch, **kwargs)

        monkeypatch.setattr(pretrain, "compute_gradients", spy)
        _, log = pretrain.train(tiny_dataset(n=20), transformer.ModelConfig(**MODEL),
                                pretrain.TrainConfig(epochs=2, seed=0, batch_size=12, workers=workers))
        assert calls == [12, 8, 12, 8] and len(log) == 2, workers


def test_pretrain_saves_through_save_checkpoint(tmp_path, monkeypatch):
    """perfbench/selfcheck.py injects a corrupt checkpoint by replacing
    pretrain.save_checkpoint with a (ck, path) function."""
    real_save = pretrain.save_checkpoint
    calls = []

    def spy(ck, path):
        calls.append(os.path.abspath(path))
        real_save(ck, path)

    monkeypatch.setattr(pretrain, "save_checkpoint", spy)
    data, out = tmp_path / "data", tmp_path / "run"
    assert main(["synth", "--out", str(data), "--n-entities", "8", "--seed", "1"]) == 0
    assert main(["fit", "--schema", str(data / "schema.json"), "--data", str(data / "data.csv"),
                 "--out", str(tmp_path / "fitted.json")]) == 0
    config = tmp_path / "tiny.json"
    config.write_text('{"model": {"hidden": 4, "ff_dim": 4, "layers": 1, "heads": 2, "t": 4}}')
    assert main(["pretrain", "--config", str(config), "--fitted", str(tmp_path / "fitted.json"),
                 "--data", str(data / "data.csv"), "--out", str(out), "--epochs", "1"]) == 0
    assert calls and all(os.path.dirname(path) == str(out) for path in calls)


def test_benchmark_selfcheck_passes():
    """perfbench/selfcheck.py runs the benchmark on tiny shapes, traced and untraced, so a
    src change that breaks what the benchmark patches or reads fails here."""
    selfcheck = os.path.join(os.path.dirname(LAYERTRACE), "selfcheck.py")
    proc = subprocess.run([sys.executable, selfcheck], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
