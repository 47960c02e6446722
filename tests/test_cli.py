"""End-to-end CLI pipeline tests: synth -> fit -> pretrain -> embed -> eval,
plus rfm/rank/bench surfaces, exit codes and artifact determinism."""
import csv
import hashlib
import json

import numpy as np
import pytest

from caspr import cli
from caspr.cli import main


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small synth -> fit -> pretrain pipeline shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert main(["synth", "--out", str(data_dir), "--n-entities", "60", "--seed", "5"]) == 0
    fitted = root / "fitted.json"
    assert main(["fit", "--schema", str(data_dir / "schema.json"),
                 "--data", str(data_dir / "data.csv"), "--out", str(fitted)]) == 0
    run_dir = root / "run"
    cfg = root / "run.json"
    cfg.write_text(json.dumps({
        "model": {"hidden": 8, "ff_dim": 16, "layers": 1, "heads": 2, "t": 8,
                  "dropout": 0.0, "emb_out": 8},
        "train": {"epochs": 2, "batch_size": 30, "seed": 1},
    }))
    assert main(["pretrain", "--config", str(cfg), "--fitted", str(fitted),
                 "--data", str(data_dir / "data.csv"), "--out", str(run_dir)]) == 0
    return {"root": root, "data_dir": data_dir, "fitted": fitted, "run_dir": run_dir,
            "cfg": cfg}


def test_synth_writes_three_artifacts(workspace):
    d = workspace["data_dir"]
    assert (d / "data.csv").exists() and (d / "labels.csv").exists() and (d / "schema.json").exists()


def test_synth_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["synth", "--out", str(out), "--n-entities", "30", "--seed", "9"]) == 0
    assert sha256(a / "data.csv") == sha256(b / "data.csv")
    assert sha256(a / "labels.csv") == sha256(b / "labels.csv")


def test_fit_output_is_valid_fitted_schema(workspace):
    obj = json.loads(workspace["fitted"].read_text())
    assert set(obj) == {"schema", "vocab", "means", "stds", "embed_dims"}
    assert obj["schema"]["monetary"] == "amount"


def test_pretrain_writes_checkpoint_and_log(workspace):
    run_dir = workspace["run_dir"]
    assert (run_dir / "checkpoint.bin").exists()
    rows = read_csv(run_dir / "loss_log.csv")
    assert rows[0] == ["epoch", "mean_loss", "wall_seconds"]
    assert len(rows) == 3


def test_pretrain_zero_epochs_valid_checkpoint(workspace, tmp_path):
    out = tmp_path / "zero"
    assert main(["pretrain", "--config", str(workspace["cfg"]),
                 "--fitted", str(workspace["fitted"]),
                 "--data", str(workspace["data_dir"] / "data.csv"),
                 "--out", str(out), "--epochs", "0"]) == 0
    from caspr.pretrain import load_checkpoint
    ck = load_checkpoint(out / "checkpoint.bin")
    assert ck.epoch == 0 and ck.tensors


def test_embed_row_per_entity(workspace, tmp_path):
    out = tmp_path / "emb.csv"
    assert main(["embed", "--checkpoint", str(workspace["run_dir"] / "checkpoint.bin"),
                 "--data", str(workspace["data_dir"] / "data.csv"), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 61  # header + one row per entity
    assert rows[0][0] == "entity"


def test_embed_deterministic(workspace, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["embed", "--checkpoint", str(workspace["run_dir"] / "checkpoint.bin"),
                     "--data", str(workspace["data_dir"] / "data.csv"), "--out", str(out)]) == 0
    assert sha256(a) == sha256(b)


def test_rfm_table_output(workspace, tmp_path):
    out = tmp_path / "rfm.csv"
    assert main(["rfm", "--schema", str(workspace["data_dir"] / "schema.json"),
                 "--data", str(workspace["data_dir"] / "data.csv"), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 61
    assert len(rows[0]) == 20  # entity + 19 features


def test_eval_pipeline_composes(workspace, tmp_path):
    emb = tmp_path / "emb.csv"
    main(["embed", "--checkpoint", str(workspace["run_dir"] / "checkpoint.bin"),
          "--data", str(workspace["data_dir"] / "data.csv"), "--out", str(emb)])
    report = tmp_path / "report.csv"
    assert main(["eval", "--features", str(emb), "--labels",
                 str(workspace["data_dir"] / "labels.csv"), "--task", "binary",
                 "--out", str(report), "--seed", "0"]) == 0
    rows = read_csv(report)
    assert rows[0] == ["metric", "value"]
    names = {r[0] for r in rows[1:]}
    assert names == {"auroc", "f1_pos"}


def test_rank_pipeline(workspace, tmp_path):
    # relevance: last item of each entity
    data_rows = read_csv(workspace["data_dir"] / "data.csv")
    header, body = data_rows[0], data_rows[1:]
    ei, ii = header.index("entity"), header.index("item")
    last_item = {}
    for rec in body:
        last_item[rec[ei]] = rec[ii]
    relevance = tmp_path / "relevance.csv"
    with open(relevance, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity", "relevant_items"])
        for entity in sorted(last_item):
            writer.writerow([entity, last_item[entity]])
    report = tmp_path / "rank.csv"
    assert main(["rank", "--checkpoint", str(workspace["run_dir"] / "checkpoint.bin"),
                 "--data", str(workspace["data_dir"] / "data.csv"),
                 "--relevance", str(relevance), "--out", str(report)]) == 0
    names = {r[0] for r in read_csv(report)[1:]}
    assert names == {"map", "prec_at_1", "success5_count", "success5_hit", "ndcg_at_3"}
    rankings = read_csv(tmp_path / "rank_rankings.csv")
    assert rankings[0] == ["entity", "ranked_items", "relevant_items"]
    assert len(rankings) == 61


def test_eval_report_write_is_atomic(workspace, tmp_path, monkeypatch):
    emb = tmp_path / "emb.csv"
    assert main(["embed", "--checkpoint", str(workspace["run_dir"] / "checkpoint.bin"),
                 "--data", str(workspace["data_dir"] / "data.csv"), "--out", str(emb)]) == 0
    report = tmp_path / "report.csv"
    report.write_text("metric,value\nauroc,0.5\n")
    before = report.read_bytes()
    monkeypatch.setattr(cli, "evaluate_features", lambda *a, **k: {"auroc": 0.9, "f1_pos": "n/a"})
    with pytest.raises(ValueError):
        main(["eval", "--features", str(emb), "--labels", str(workspace["data_dir"] / "labels.csv"),
              "--task", "binary", "--out", str(report)])
    assert report.read_bytes() == before
    assert not list(tmp_path.glob(".tmp-*"))


def test_full_pipeline_from_one_config_file(tmp_path):
    """fit -> pretrain -> embed -> eval driven entirely by one RunConfig."""
    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir), "--n-entities", "40", "--seed", "3"]) == 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": {"hidden": 8, "ff_dim": 16, "layers": 1, "heads": 2, "t": 8,
                  "dropout": 0.0, "emb_out": 8},
        "train": {"epochs": 1, "batch_size": 20, "seed": 4},
        "paths": {
            "schema": str(data_dir / "schema.json"),
            "data": str(data_dir / "data.csv"),
            "fitted": str(tmp_path / "fitted.json"),
            "out": str(tmp_path / "run"),
            "checkpoint": str(tmp_path / "run" / "checkpoint.bin"),
            "embeddings": str(tmp_path / "embeddings.csv"),
            "features": str(tmp_path / "embeddings.csv"),
            "labels": str(data_dir / "labels.csv"),
        },
    }))
    assert main(["fit", "--config", str(cfg)]) == 0
    assert main(["pretrain", "--config", str(cfg)]) == 0
    assert main(["embed", "--config", str(cfg)]) == 0
    report = tmp_path / "report.csv"
    assert main(["eval", "--config", str(cfg), "--task", "binary", "--out", str(report)]) == 0
    assert {r[0] for r in read_csv(report)[1:]} == {"auroc", "f1_pos"}


def test_bench_csv_layout(workspace, tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--fitted", str(workspace["fitted"]),
                 "--data", str(workspace["data_dir"] / "data.csv"),
                 "--workers", "1,2", "--epochs", "1", "--batch-size", "30",
                 "--config", str(workspace["cfg"]), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["workers", "epoch_time_s", "total_worker_time_s"]
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    for r in rows[1:]:
        # columns are rounded to 6 decimals, so allow that much slack
        np.testing.assert_allclose(float(r[2]), int(r[0]) * float(r[1]), atol=1e-5)


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["fit", "--schema", str(tmp_path / "none.json"),
                     "--data", str(tmp_path / "none.csv"), "--out", str(tmp_path / "out.json")])
        assert code == 5
        assert "error: IoError" in capsys.readouterr().err

    def test_parse_error_is_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("entity,ts,amount,item,channel\ne1,notatime,1.0,item_001,ch_0\n")
        code = main(["fit", "--schema", str(workspace["data_dir"] / "schema.json"),
                     "--data", str(bad), "--out", str(tmp_path / "out.json")])
        assert code == 2
        assert "ParseError" in capsys.readouterr().err

    def test_schema_mismatch_is_3(self, workspace, tmp_path, capsys):
        bad = tmp_path / "short.csv"
        bad.write_text("entity,ts\ne1,100\n")
        code = main(["fit", "--schema", str(workspace["data_dir"] / "schema.json"),
                     "--data", str(bad), "--out", str(tmp_path / "out.json")])
        assert code == 3
        assert "SchemaMismatch" in capsys.readouterr().err

    def test_missing_path_reports_config_error(self, tmp_path, capsys):
        code = main(["rfm", "--data", str(tmp_path / "x.csv"),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "ConfigError" in capsys.readouterr().err

    def test_data_parallel_divergence_is_4(self, workspace, tmp_path, capfd):
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps({
            "model": {"hidden": 8, "ff_dim": 16, "layers": 1, "heads": 2, "t": 8, "dropout": 0.0},
            "train": {"lr": 1e8, "epochs": 30, "batch_size": 30, "seed": 1},
        }))
        with np.errstate(all="ignore"):
            code = main(["pretrain", "--config", str(cfg), "--workers", "2",
                         "--fitted", str(workspace["fitted"]),
                         "--data", str(workspace["data_dir"] / "data.csv"),
                         "--out", str(tmp_path / "run")])
        assert code == 4
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: DivergenceError")

    def test_flag_overrides_config(self, workspace, tmp_path):
        out = tmp_path / "override"
        assert main(["pretrain", "--config", str(workspace["cfg"]),
                     "--fitted", str(workspace["fitted"]),
                     "--data", str(workspace["data_dir"] / "data.csv"),
                     "--out", str(out), "--epochs", "1"]) == 0
        rows = read_csv(out / "loss_log.csv")
        assert len(rows) == 2  # header + single epoch
