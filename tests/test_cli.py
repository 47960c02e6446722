"""End-to-end CLI pipeline tests: synth -> fit -> pretrain -> embed -> eval,
plus rfm/rank surfaces, exit codes and artifact determinism."""
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from caspr import cli, ingest, pretrain, synthgen, transformer
from caspr.cli import main
from caspr.errors import EmptyDataset, ParseError


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def run_cli_process(argv):
    """`python -m caspr.cli *argv` in its own process, whose numpy RuntimeWarnings reach its
    real stderr, which capsys would not see."""
    src_dir = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "caspr.cli", *argv], capture_output=True, text=True, env=env,
                          timeout=120)


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
    assert set(obj) == {"schema", "vocab", "means", "stds"}
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
    assert ck.epoch == 0 and ck.flat.size


def test_embed_row_per_entity(workspace, tmp_path):
    out = tmp_path / "emb.csv"
    assert main(["embed", "--checkpoint", str(workspace["run_dir"] / "checkpoint.bin"),
                 "--data", str(workspace["data_dir"] / "data.csv"), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 61  # header + one row per entity
    assert rows[0][0] == "entity"


def test_embed_runs_no_random_init(workspace, tmp_path, monkeypatch):
    """Weights come straight from the checkpoint tensors."""
    def no_init(*args, **kwargs):
        raise AssertionError("build_weights called")

    monkeypatch.setattr(transformer, "build_weights", no_init)
    assert main(["embed", "--checkpoint", str(workspace["run_dir"] / "checkpoint.bin"),
                 "--data", str(workspace["data_dir"] / "data.csv"), "--out", str(tmp_path / "e.csv")]) == 0


def test_embed_deterministic(workspace, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["embed", "--checkpoint", str(workspace["run_dir"] / "checkpoint.bin"),
                     "--data", str(workspace["data_dir"] / "data.csv"), "--out", str(out)]) == 0
    assert sha256(a) == sha256(b)


def test_empty_categorical_vocab_pretrains_and_embeds(workspace, tmp_path):
    """A categorical column with no vocab has a one-logit head, which is still scored as categorical."""
    fitted = json.loads(workspace["fitted"].read_text())
    fitted["vocab"]["channel"] = []
    path = tmp_path / "fitted.json"
    path.write_text(json.dumps(fitted))
    data = str(workspace["data_dir"] / "data.csv")
    assert main(["pretrain", "--config", str(workspace["cfg"]), "--fitted", str(path), "--data", data,
                 "--out", str(tmp_path / "run")]) == 0
    out = tmp_path / "emb.csv"
    assert main(["embed", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"), "--data", data,
                 "--out", str(out)]) == 0
    assert len(read_csv(out)) == 61


def test_embed_tiles_match_one_whole_dataset_chunk(workspace, monkeypatch):
    ck = pretrain.load_checkpoint(workspace["run_dir"] / "checkpoint.bin")
    weights = transformer.ModelWeights(ck.model_cfg, ck.fitted, ck.flat)
    ds = ingest.load_dataset(workspace["data_dir"] / "data.csv", ck.fitted, ck.model_cfg.t)
    batch = transformer.prepare_batch(ds, slice(None), ck.model_cfg)
    monkeypatch.setattr(transformer, "TILE", len(ds.entities))
    whole = transformer.embed(batch, weights)
    monkeypatch.setattr(transformer, "TILE", 16)  # 60 entities: tiles of 16, 16, 16 and 12
    tiled = transformer.embed(batch, weights)
    assert tiled.shape == whole.shape == (len(ds.entities), ck.model_cfg.emb_out)
    assert tiled.tobytes() == whole.tobytes()


def test_rfm_table_output(workspace, tmp_path):
    out = tmp_path / "rfm.csv"
    assert main(["rfm", "--schema", str(workspace["data_dir"] / "schema.json"),
                 "--data", str(workspace["data_dir"] / "data.csv"), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 61
    assert len(rows[0]) == 20  # entity + 19 features


def test_feature_table_is_csv_writer_s_bytes_and_reads_back_exactly(tmp_path):
    ids = ["a,b", 'q"x', "cr\rx", "lf\nx", "crlf\r\nx", "", " lead", "trail ", "é中"]
    values = [-0.0, 5e-324, 1e300, 0.1, float(np.float32(0.1))]
    matrix = np.array([values[i:] + values[:i] for i in range(len(ids))])
    names = [f"f{i}" for i in range(len(values))]
    out = tmp_path / "features.csv"
    cli._write_features(out, names, ids, matrix)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["entity", *names])
    writer.writerows([e, *map(repr, row)] for e, row in zip(ids, matrix.tolist()))
    assert out.read_bytes() == expected.getvalue().encode("utf-8")
    got_ids, got_names, got = cli.read_feature_csv(out)
    assert (got_ids, got_names) == (ids, names)
    assert got.tobytes() == matrix.tobytes()  # -0.0 keeps its sign bit


TABLES = {  # reader -> (header, row i's cells)
    "features": (["entity", "f0", "f1"], lambda i: [f"e{i:02d}", repr(i * 0.37), str(-i)]),
    "labels": (["entity", "label"], lambda i: [f"e{i:02d}", str(i % 2)]),
    "relevance": (["entity", "relevant_items"], lambda i: [f"e{i:02d}", f"item_{i}|item_{i + 1}"]),
}


def oracle_table(path, kind):
    """What cli's table reader of `kind` must give, read row at a time by csv.reader: header
    checks, then each row's width, its repeat (a feature or relevance file), its cells and
    its label check, in row order."""
    with ingest.open_csv(path) as reader:
        header, records = next(reader, None), list(reader)
    if header is None:
        raise EmptyDataset(f"{path}: no header row")
    if kind == "labels" and header[:2] != ["entity", "label"]:
        raise ParseError(f"{path}: expected header entity,label")
    if kind != "labels" and header[:1] != ["entity"]:
        raise ParseError(f"{path}: expected header starting with 'entity'" +
                         (" and an items column" if kind == "relevance" else ""))
    if len(header) == 1:
        raise ParseError(f"{path}: no feature columns after 'entity'" if kind == "features" else
                         f"{path}: expected header starting with 'entity' and an items column")
    out, row_of = {}, {}
    for i, rec in enumerate(records):
        if len(rec) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(rec)}", i)
        if kind != "labels" and rec[0] in row_of:
            raise ParseError(f"{path}: entity {rec[0]!r} is already on row {row_of[rec[0]]}", i)
        row_of.setdefault(rec[0], i)
        if kind == "features":
            out[rec[0]] = [ingest._parse_number(x, name, i) for x, name in zip(rec[1:], header[1:])]
        elif kind == "labels":
            label = ingest._parse_number(rec[1], "label", i)
            if out.get(rec[0], label) != label:
                raise ParseError(f"{path}: entity {rec[0]!r} has label {out[rec[0]]!r} on an earlier row "
                                 f"and {label!r} here", i)
            out[rec[0]] = label
        else:
            out[rec[0]] = [x for x in rec[1].split("|") if x]
    if kind == "features":
        return list(out), header[1:], np.array(list(out.values()), dtype=np.float64).reshape(len(out), len(header) - 1)
    return out


def table_text(kind, n, faults=(), end="\n"):
    """A `kind` table of n rows, csv.writer quoting, lines ending in `end`, with `faults` applied in order:
    (row, "quote") gives the row's id a comma; (row, "repeat", other) the id of row `other`; (row, "cell", text)
    its second cell; (row, "short"/"long") one field less or more; (row, "cr") a bare CR line end;
    (row, "blank") a blank line before it."""
    header, make = TABLES[kind]
    rows, ends, blanks = [make(i) for i in range(n)], [end] * n, set()
    for row, fault, *arg in faults:
        if fault == "quote":
            rows[row][0] = f"e,{row:02d}"
        elif fault == "repeat":
            rows[row][0] = rows[arg[0]][0]
        elif fault == "cell":
            rows[row][1] = arg[0]
        elif fault in ("short", "long"):
            rows[row] = rows[row][:-1] if fault == "short" else rows[row] + ["x"]
        elif fault == "cr":
            ends[row] = "\r"
        else:
            blanks.add(row)

    def line(cells):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(cells)
        return buf.getvalue()

    return line(header) + end + "".join((end if i in blanks else "") + line(r) + e
                                        for i, (r, e) in enumerate(zip(rows, ends)))


def table_outcomes(path, kind):
    """cli's reader of `kind` and oracle_table on `path`: each one's result, its feature matrix as
    bytes, or its error as (type, message, row index)."""
    read = {"features": cli.read_feature_csv, "labels": cli.read_labels_csv, "relevance": cli.read_relevance_csv}[kind]
    outcomes = []
    for fn in (read, lambda path: oracle_table(path, kind)):
        try:
            got = fn(path)
            outcomes.append(got[:2] + (got[2].shape, got[2].tobytes()) if kind == "features" else got)
        except (ParseError, EmptyDataset) as exc:
            outcomes.append((type(exc), str(exc), getattr(exc, "row_index", None)))
    return outcomes


TABLE_CASES = {  # with 3-row chunks, rows 0-2 are the first chunk
    "plain": [],
    "quote mid-file": [(5, "quote")],
    "quote, then repeat": [(4, "quote"), (8, "repeat", 1)],
    "repeat in a split chunk": [(7, "repeat", 2)],
    "repeat within one chunk": [(4, "repeat", 3)],
    "bad cell": [(4, "cell", "x")],
    "non-finite cell": [(7, "cell", "nan")],
    "bad cell, then repeat": [(6, "cell", "x"), (7, "repeat", 0)],
    "repeat, then bad cell": [(6, "repeat", 1), (7, "cell", "x")],  # labels: 0 on row 6, 1 on row 1
    "repeat, then bad cell, one chunk apart": [(4, "repeat", 0), (9, "cell", "oops")],
    "short row": [(6, "short")],
    "long row": [(2, "long")],
    "short row after a quote": [(3, "quote"), (5, "short")],
    "bad cell before a short row": [(4, "cell", "x"), (5, "short")],
    "bare CR": [(4, "cr")],
    "blank line": [(5, "blank")],
    "equal label repeated": [(8, "repeat", 1), (8, "cell", "1.0")],
}


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", sorted(TABLE_CASES))
@pytest.mark.parametrize("kind", sorted(TABLES))
def test_table_readers_match_a_row_at_a_time_oracle(tmp_path, monkeypatch, kind, case, end):
    """Feature, labels and relevance files read through ingest.open_columns in 3-row chunks,
    split at commas or by csv.reader, as csv.reader reads them a row at a time."""
    monkeypatch.setattr(ingest, "CHUNK_ROWS", 3)
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(table_text(kind, 11, TABLE_CASES[case], end).encode("utf-8"))
    new, old = table_outcomes(path, kind)
    assert new == old


@pytest.mark.parametrize("text", ["", "entity\n", "id,x\n", "\n", "entity,label\n", "entity,label,note\n"])
@pytest.mark.parametrize("kind", sorted(TABLES))
def test_table_readers_match_the_oracle_on_headers(tmp_path, kind, text):
    path = tmp_path / f"{kind}.csv"
    path.write_text(text)
    new, old = table_outcomes(path, kind)
    assert new == old


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
        for entity in sorted(last_item, reverse=True):  # the rankings come back sorted all the same
            writer.writerow([entity, last_item[entity]])
    report = tmp_path / "rank.csv"
    assert main(["rank", "--checkpoint", str(workspace["run_dir"] / "checkpoint.bin"),
                 "--data", str(workspace["data_dir"] / "data.csv"),
                 "--relevance", str(relevance), "--out", str(report)]) == 0
    names = {r[0] for r in read_csv(report)[1:]}
    assert names == {"map", "prec_at_1", "success5_count", "success5_hit", "ndcg_at_3"}
    rankings = read_csv(tmp_path / "rank_rankings.csv")
    assert rankings[0] == ["entity", "ranked_items", "relevant_items"]
    assert [row[0] for row in rankings[1:]] == sorted(last_item)
    assert all(row[2] == last_item[row[0]] for row in rankings[1:])


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


def test_synth_write_is_atomic(tmp_path, monkeypatch):
    out = tmp_path / "data"
    out.mkdir()
    (out / "data.csv").write_text("entity,ts,amount,item,channel\ne0,1,1.0,item_000,ch_0\n")
    before = (out / "data.csv").read_bytes()
    rows, labels = synthgen.generate_rows(synthgen.SynthConfig(n_entities=4, seed=1))
    rows[2]["amount"] = "not a number"  # fails inside the :.4f format of its row
    monkeypatch.setattr(synthgen, "generate_rows", lambda cfg: (rows, labels))
    with pytest.raises(ValueError):
        main(["synth", "--out", str(out), "--n-entities", "4", "--seed", "1"])
    assert (out / "data.csv").read_bytes() == before
    assert not list(out.glob(".tmp-*"))


def test_artifacts_get_the_mode_open_gives(workspace, tmp_path):
    (tmp_path / "plain").write_text("")
    expected = (tmp_path / "plain").stat().st_mode
    emb = tmp_path / "emb.csv"
    assert main(["embed", "--checkpoint", str(workspace["run_dir"] / "checkpoint.bin"),
                 "--data", str(workspace["data_dir"] / "data.csv"), "--out", str(emb)]) == 0
    for path in (workspace["data_dir"] / "data.csv", workspace["data_dir"] / "schema.json",
                 workspace["run_dir"] / "loss_log.csv", workspace["run_dir"] / "checkpoint.bin", emb):
        assert path.stat().st_mode == expected, path


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


class TestExitCodes:
    @pytest.mark.parametrize("command, key", [("fit", "fitted"), ("embed", "embeddings")])
    def test_output_path_is_the_flag_then_the_command_s_key_then_paths_out(self, workspace, tmp_path, capsys,
                                                                            command, key):
        inputs = {"fit": ["--schema", str(workspace["data_dir"] / "schema.json")],
                  "embed": ["--checkpoint", str(workspace["run_dir"] / "checkpoint.bin")]}[command]
        argv = [command, "--data", str(workspace["data_dir"] / "data.csv"), *inputs]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: ConfigError: missing --out (or paths.{key} in the config file)"]
        cfg = tmp_path / "cfg.json"
        for paths, written in (({"out": "a", key: "b"}, "b"), ({"out": "a"}, "a")):
            cfg.write_text(json.dumps({"paths": {name: str(tmp_path / value) for name, value in paths.items()}}))
            assert main(argv + ["--config", str(cfg)]) == 0
            assert (tmp_path / written).exists()
            (tmp_path / written).unlink()

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

    @pytest.mark.parametrize("command", ["fit", "rfm", "pretrain", "embed"])
    @pytest.mark.parametrize("amount", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_number_is_parse_error(self, workspace, tmp_path, capsys, command, amount):
        bad = tmp_path / "bad.csv"
        bad.write_text("entity,ts,amount,item,channel\n"
                       f"e1,100,1.0,item_001,ch_0\ne1,200,{amount},item_001,ch_0\n")
        schema, out = str(workspace["data_dir"] / "schema.json"), str(tmp_path / "out")
        args = {"fit": ["--schema", schema], "rfm": ["--schema", schema],
                "pretrain": ["--config", str(workspace["cfg"]), "--fitted", str(workspace["fitted"])],
                "embed": ["--checkpoint", str(workspace["run_dir"] / "checkpoint.bin")]}[command]
        code = main([command, "--data", str(bad), "--out", out] + args)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ParseError: row 1: non-finite number")
        assert "'amount'" in err[0]

    @staticmethod
    def write_eval_inputs(tmp_path, labels, features=None):
        """A one-feature table and its labels for entities e00, e01, ...; returns eval's file flags."""
        feats, labs = tmp_path / "features.csv", tmp_path / "labels.csv"
        features = features or [repr(float(y)) if y in ("0", "1") else "0.5" for y in labels]
        feats.write_text("entity,f0\n" + "".join(f"e{i:02d},{x}\n" for i, x in enumerate(features)))
        labs.write_text("entity,label\n" + "".join(f"e{i:02d},{y}\n" for i, y in enumerate(labels)))
        return ["--features", str(feats), "--labels", str(labs), "--out", str(tmp_path / "report.csv")]

    @pytest.mark.parametrize("task", ["binary", "regression"])
    @pytest.mark.parametrize("bad_file", ["features", "labels"])
    def test_non_finite_eval_input_is_parse_error(self, tmp_path, capsys, task, bad_file):
        labels = ["0", "1"] * 10
        features = [str(i % 3) for i in range(20)]
        (features if bad_file == "features" else labels)[4] = "nan"
        code = main(["eval", "--task", task] + self.write_eval_inputs(tmp_path, labels, features))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ParseError: row 4: non-finite number")
        assert ("'f0'" if bad_file == "features" else "'label'") in err[0]

    @pytest.mark.parametrize("fault", ["long cell", "unclosed quote"])
    def test_text_csv_cannot_read_is_one_parse_error_naming_its_line(self, workspace, tmp_path, capsys, fault):
        """A cell above csv's field limit (131,072 characters), or a quote left open over more than
        that, is a ParseError naming the file and the line where csv stopped, not a traceback."""
        rows = [f"e{i:04d},{100_000 + i},1.0,item_001,ch_0\n" for i in range(7000)]
        if fault == "long cell":
            rows[0], line = f"e1,100,1.0,{'i' * 140_000},ch_0\n", 2
        else:  # the quote opens on line 2002, in the second chunk of records
            rows[2000], line, chars = 'e1,103,1.0,"item_001,ch_0\n', 2002, len("item_001,ch_0\n")
            while chars <= 131_072:
                line += 1
                chars += len(rows[line - 2])
        bad = tmp_path / "bad.csv"
        bad.write_text("entity,ts,amount,item,channel\n" + "".join(rows))
        code = main(["fit", "--schema", str(workspace["data_dir"] / "schema.json"),
                     "--data", str(bad), "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error: ParseError: {bad}: line {line}: field larger than field limit (131072)"]
        assert not (tmp_path / "out.json").exists()

    def test_a_labels_cell_above_csv_s_field_limit_is_one_parse_error(self, tmp_path, capsys):
        labels = ["0", "1"] * 10
        labels[3] = "1" * 140_000
        code = main(["eval", "--task", "binary"] + self.write_eval_inputs(tmp_path, labels))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error: ParseError: {tmp_path / 'labels.csv'}: line 5: field larger than field limit (131072)"]

    @pytest.mark.parametrize("label", ["2", "0.5", "-1"])
    def test_out_of_range_held_out_binary_label_is_label_error(self, tmp_path, capsys, label):
        """The bad label sits in the held-out split, which the probe's own check never sees."""
        labels = ["0", "1"] * 15
        labels[cli.split_train_test(len(labels), 0)[1][0]] = label
        code = main(["eval", "--task", "binary", "--seed", "0"] + self.write_eval_inputs(tmp_path, labels))
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: LabelError: binary labels must be 0 or 1")

    def test_rfm_timestamp_outside_the_calendar_is_parse_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("entity,ts,amount,item,channel\n"
                       "e1,100,1.0,item_001,ch_0\ne1,100000000000000000000,2.0,item_001,ch_0\n")
        code = main(["rfm", "--schema", str(workspace["data_dir"] / "schema.json"),
                     "--data", str(bad), "--out", str(tmp_path / "rfm.csv")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ParseError: row 1: timestamp")

    @pytest.mark.parametrize("command", ["fit", "pretrain", "embed", "rank", "rfm"])
    def test_log_without_data_rows_is_one_empty_dataset_line(self, workspace, tmp_path, capsys, command):
        empty, relevance = tmp_path / "empty.csv", tmp_path / "relevance.csv"
        empty.write_text("entity,ts,amount,item,channel\n")
        relevance.write_text("entity,relevant_items\ne1,item_001\n")
        schema = str(workspace["data_dir"] / "schema.json")
        checkpoint = str(workspace["run_dir"] / "checkpoint.bin")
        args = {"fit": ["--schema", schema], "rfm": ["--schema", schema],
                "pretrain": ["--config", str(workspace["cfg"]), "--fitted", str(workspace["fitted"])],
                "embed": ["--checkpoint", checkpoint],
                "rank": ["--checkpoint", checkpoint, "--relevance", str(relevance)]}[command]
        code = main([command, "--data", str(empty), "--out", str(tmp_path / "out")] + args)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["error: EmptyDataset: the activity log has no data rows"]
        assert not (tmp_path / "out").exists()

    def test_rank_refuses_an_entity_repeated_in_the_relevance_file(self, workspace, tmp_path, capsys):
        relevance = tmp_path / "relevance.csv"
        relevance.write_text("entity,relevant_items\ne00001,item_001\ne00002,item_003\ne00001,item_002\n")
        code = main(["rank", "--checkpoint", str(workspace["run_dir"] / "checkpoint.bin"),
                     "--data", str(workspace["data_dir"] / "data.csv"), "--relevance", str(relevance),
                     "--out", str(tmp_path / "rank.csv")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: ParseError: row 2: {relevance}: entity 'e00001' is already on row 0"]
        assert not (tmp_path / "rank.csv").exists()

    @pytest.mark.parametrize("command", ["fit", "pretrain", "embed", "rank"])
    def test_timestamp_outside_64_bits_is_one_parse_error_naming_its_row(self, workspace, tmp_path, capsys,
                                                                         command):
        bad, relevance = tmp_path / "bad.csv", tmp_path / "relevance.csv"
        bad.write_text("entity,ts,amount,item,channel\n"
                       "e1,100,1.0,item_001,ch_0\ne1,99999999999999999999,2.0,item_001,ch_0\n")
        relevance.write_text("entity,relevant_items\ne1,item_001\n")
        checkpoint = str(workspace["run_dir"] / "checkpoint.bin")
        args = {"fit": ["--schema", str(workspace["data_dir"] / "schema.json")],
                "pretrain": ["--config", str(workspace["cfg"]), "--fitted", str(workspace["fitted"])],
                "embed": ["--checkpoint", checkpoint],
                "rank": ["--checkpoint", checkpoint, "--relevance", str(relevance)]}[command]
        code = main([command, "--data", str(bad), "--out", str(tmp_path / "out")] + args)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: ParseError: row 1: timestamp '99999999999999999999' lies outside the 64-bit range"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "rfm"])
    def test_header_repeating_a_schema_column_is_schema_mismatch(self, workspace, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_text("entity,ts,amount,item,channel,amount\ne1,100,1.0,item_001,ch_0,2.0\n")
        code = main([command, "--schema", str(workspace["data_dir"] / "schema.json"), "--data", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: SchemaMismatch: {bad}: columns repeated in CSV header: ['amount']"]

    def test_rfm_overflow_is_one_error_line(self, workspace, tmp_path):
        """Run as its own process: numpy's RuntimeWarnings reach the real stderr, not capsys."""
        data = tmp_path / "wide.csv"
        data.write_text("entity,ts,amount,item,channel\n"
                        "e1,100,1e308,item_001,ch_0\ne1,200,-1e308,item_001,ch_0\n")
        proc = run_cli_process(["rfm", "--schema", str(workspace["data_dir"] / "schema.json"),
                                "--data", str(data), "--out", str(tmp_path / "rfm.csv")])
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "error: SchemaMismatch: rfm_features produced a non-finite mon_amount_std for entity 'e1'"]
        assert not (tmp_path / "rfm.csv").exists()

    def test_eval_feature_file_without_feature_columns_is_parse_error(self, tmp_path, capsys):
        argv = self.write_eval_inputs(tmp_path, ["0", "1"] * 10)
        features = tmp_path / "features.csv"
        features.write_text("entity\n" + "".join(f"e{i:02d}\n" for i in range(20)))
        code = main(["eval", "--task", "binary", "--seed", "0"] + argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error: ParseError: {features}: no feature columns after 'entity'"]
        assert not (tmp_path / "report.csv").exists()

    def test_eval_feature_file_repeating_an_entity_is_parse_error(self, tmp_path, capsys):
        """A second row for an entity could land in the held-out split and leak it."""
        argv = self.write_eval_inputs(tmp_path, ["0", "1"] * 10)
        features = tmp_path / "features.csv"
        features.write_text("entity,f0\n" + "".join(f"e{i:02d},{i % 2}.0\n" for i in range(20)) + "e03,1.0\n")
        code = main(["eval", "--task", "binary", "--seed", "0"] + argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error: ParseError: row 20: {features}: entity 'e03' is already on row 3"]
        assert not (tmp_path / "report.csv").exists()

    def test_eval_labels_file_repeating_an_entity_with_another_label_is_parse_error(self, tmp_path, capsys):
        argv = self.write_eval_inputs(tmp_path, ["0", "1"] * 10)
        labels = tmp_path / "labels.csv"
        labels.write_text(labels.read_text() + "e05,1.0\n")  # an equal label may repeat
        assert main(["eval", "--task", "binary", "--seed", "0"] + argv) == 0
        labels.write_text(labels.read_text() + "e04,1\n")
        code = main(["eval", "--task", "binary", "--seed", "0"] + argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error: ParseError: row 21: {labels}: entity 'e04' has label 0.0 on an earlier row "
                       "and 1.0 here"]

    @pytest.mark.parametrize("cells, message", [
        ({(2, 2): "inf", (5, 1): "x"}, "row 2: non-finite number 'inf' in column 'f1'"),
        ({(2, 2): "x", (5, 1): "inf"}, "row 2: bad number 'x' in column 'f1'"),
        ({(4, 2): "x", (4, 1): "-inf"}, "row 4: non-finite number '-inf' in column 'f0'"),
    ])
    def test_eval_feature_file_error_names_the_earlier_bad_cell(self, tmp_path, capsys, cells, message):
        """As the per-cell reader did: the first bad cell in row order, then column order."""
        argv = self.write_eval_inputs(tmp_path, ["0", "1"] * 10)
        rows = [[f"e{i:02d}", str(i % 2), str(i % 3)] for i in range(20)]
        for (row, col), text in cells.items():
            rows[row][col] = text
        rows[7].append("9")  # a long row after both bad cells
        (tmp_path / "features.csv").write_text("entity,f0,f1\n" + "".join(",".join(r) + "\n" for r in rows))
        code = main(["eval", "--task", "binary", "--seed", "0"] + argv)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: ParseError: {message}"]

    def test_a_labels_row_narrower_than_the_header_is_parse_error(self, tmp_path, capsys):
        argv = self.write_eval_inputs(tmp_path, ["0", "1"] * 10)
        rows = [f"e{i:02d},{i % 2},n{i}\n" for i in range(20)]
        rows[5] = "e05,1\n"
        (tmp_path / "labels.csv").write_text("entity,label,note\n" + "".join(rows))
        assert main(["eval", "--task", "binary"] + argv) == 2
        assert capsys.readouterr().err.splitlines() == ["error: ParseError: row 5: expected 3 fields, got 2"]
        assert not (tmp_path / "report.csv").exists()

    def test_a_relevance_row_wider_than_the_header_is_parse_error(self, workspace, tmp_path, capsys):
        """The second item of e1,item_001,item_002 used to be dropped without a word."""
        relevance = tmp_path / "relevance.csv"
        relevance.write_text("entity,relevant_items\ne00001,item_001\ne00002,item_001,item_002\n")
        code = main(["rank", "--checkpoint", str(workspace["run_dir"] / "checkpoint.bin"),
                     "--data", str(workspace["data_dir"] / "data.csv"), "--relevance", str(relevance),
                     "--out", str(tmp_path / "rank.csv")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["error: ParseError: row 1: expected 2 fields, got 3"]
        assert not (tmp_path / "rank.csv").exists()

    def test_eval_feature_file_short_row_before_a_bad_cell_is_named(self, tmp_path, capsys):
        argv = self.write_eval_inputs(tmp_path, ["0", "1"] * 10)
        features = tmp_path / "features.csv"
        features.write_text("entity,f0\ne00,0.0\ne01\ne02,x\n")
        assert main(["eval", "--task", "binary"] + argv) == 2
        assert capsys.readouterr().err.splitlines() == ["error: ParseError: row 1: expected 2 fields, got 1"]

    @pytest.mark.parametrize("task, far, message", [
        ("binary", None, "probe feature column 'f0': its mean or standard deviation overflows"),
        ("regression", None, "probe feature column 'f0': its mean or standard deviation overflows"),
        ("binary", "1.7e308", "the probe's score of held-out feature row {row} is not finite"),
        ("regression", "1e200", "rmse is inf: an error is too large to square"),
    ], ids=["mean-binary", "mean-regression", "held-out-score", "rmse"])
    def test_eval_overflow_is_one_error_line(self, tmp_path, task, far, message):
        """Run as its own process: numpy's RuntimeWarnings reach the real stderr, not capsys.

        Without `far`, the feature column alternates 1e308 and 9e307, whose sum
        overflows; with it, one held-out value lies far outside the training spread.
        """
        labels = ["0", "1"] * 10
        row = int(cli.split_train_test(len(labels), 0)[1][0])
        values = ["1e308", "9e307"] * 10
        if far:
            values = [str(i % 3) for i in range(20)]
            values[row] = far
        argv = self.write_eval_inputs(tmp_path, labels, values)
        proc = run_cli_process(["eval", "--task", task, "--seed", "0"] + argv)
        assert proc.returncode == 4
        assert proc.stderr.splitlines() == [f"error: NumericError: {message.format(row=row)}"]
        assert not (tmp_path / "report.csv").exists()

    def test_eval_huge_regression_label_is_one_error_line(self, tmp_path):
        """A label of 1e200 on a training row makes the probe's squared-loss objective overflow."""
        labels = [str(i) for i in range(20)]
        labels[cli.split_train_test(len(labels), 0)[0][0]] = "1e200"
        argv = self.write_eval_inputs(tmp_path, labels, [str(i % 3) for i in range(20)])
        proc = run_cli_process(["eval", "--task", "regression", "--seed", "0"] + argv)
        assert proc.returncode == 4
        assert proc.stderr.splitlines() == ["error: NumericError: the probe's objective overflows: "
                                            "a label is too large to square"]
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("command", ["eval", "synth"])
    def test_closed_stdout_ends_the_command_quietly(self, tmp_path, command, unbuffered):
        """`caspr eval … | head -0`: the reader is gone before the command prints.

        The read end of stdout is closed before the process starts, so every
        write to it fails, both on the print itself (unbuffered) and on the
        flush at exit (buffered).
        """
        if command == "eval":
            argv = ["eval", "--task", "binary"] + self.write_eval_inputs(tmp_path, ["0", "1"] * 10)
            artifact = tmp_path / "report.csv"
        else:
            argv = ["synth", "--out", str(tmp_path / "data"), "--n-entities", "8", "--seed", "1"]
            artifact = tmp_path / "data" / "labels.csv"
        read_end, write_end = os.pipe()
        os.close(read_end)
        src_dir = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src_dir, "PYTHONUNBUFFERED": unbuffered}
        try:
            proc = subprocess.run([sys.executable, "-m", "caspr.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert artifact.exists()

    def test_fit_keeps_statistics_finite_at_the_float_range(self, workspace, tmp_path):
        data, out = tmp_path / "wide.csv", tmp_path / "fitted.json"
        data.write_text("entity,ts,amount,item,channel\n"
                        "e1,100,1e308,item_001,ch_0\ne2,200,-1e308,item_001,ch_0\n")
        assert main(["fit", "--schema", str(workspace["data_dir"] / "schema.json"),
                     "--data", str(data), "--out", str(out)]) == 0
        fitted = ingest.load_fitted_json(out)
        assert fitted.means["amount"] == 0.0 and fitted.stds["amount"] == 1e308

    def test_failed_checkpoint_write_keeps_the_old_checkpoint(self, workspace, tmp_path, capsys, monkeypatch):
        run = tmp_path / "run"
        argv = ["pretrain", "--config", str(workspace["cfg"]), "--fitted", str(workspace["fitted"]),
                "--data", str(workspace["data_dir"] / "data.csv"), "--out", str(run), "--epochs", "1"]
        assert main(argv) == 0
        before = (run / "checkpoint.bin").read_bytes()
        capsys.readouterr()

        def disk_full(ck, path):
            with open(path, "wb") as fh:
                fh.write(b"CSPR1")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(pretrain, "save_checkpoint", disk_full)
        assert main(argv) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: IoError: ")
        assert str(run / "checkpoint.bin") in err[0] and "No space left on device" in err[0]
        assert (run / "checkpoint.bin").read_bytes() == before
        assert sorted(p.name for p in run.iterdir()) == ["checkpoint.bin", "loss_log.csv"]

    def test_missing_path_reports_config_error(self, tmp_path, capsys):
        code = main(["rfm", "--data", str(tmp_path / "x.csv"),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "ConfigError" in capsys.readouterr().err

    @pytest.mark.parametrize("precision", ["f16", "float64"])
    def test_unknown_precision_is_refused_before_the_log_is_read(self, workspace, tmp_path, capsys, precision):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": {"precision": precision}}))
        code = main(["pretrain", "--config", str(cfg), "--fitted", str(workspace["fitted"]),
                     "--data", str(tmp_path / "no-such-log.csv"), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError") and "precision" in err[0]

    def test_divergence_on_the_last_step_keeps_the_first_checkpoint(self, workspace, tmp_path, capfd):
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps({"model": json.loads(workspace["cfg"].read_text())["model"],
                                   "train": {"lr": 1e300, "epochs": 1, "batch_size": 60}}))
        with np.errstate(all="ignore"):
            code = main(["pretrain", "--config", str(cfg), "--fitted", str(workspace["fitted"]),
                         "--data", str(workspace["data_dir"] / "data.csv"), "--out", str(tmp_path / "run")])
        assert code == 4
        ck = pretrain.load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        assert ck.epoch == 0 and np.isfinite(ck.flat).all()
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: DivergenceError: weights diverged at epoch 1")

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
        # the last good checkpoint survives, and the one error line names its epoch
        ck = pretrain.load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        assert np.isfinite(ck.flat).all()
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["checkpoint.bin"]
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: DivergenceError")
        assert f"(epoch {ck.epoch})" in err[0]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("lr, epochs", [(1e8, 30), (1e300, 1)])
    def test_divergence_prints_only_its_error_line(self, workspace, tmp_path, lr, epochs, workers):
        """In its own process, where numpy's overflow warnings would reach stderr ahead of the error."""
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps({"model": json.loads(workspace["cfg"].read_text())["model"],
                                   "train": {"lr": lr, "epochs": epochs, "batch_size": 30, "seed": 1}}))
        proc = run_cli_process(["pretrain", "--config", str(cfg), "--workers", str(workers),
                                "--fitted", str(workspace["fitted"]), "--data", str(workspace["data_dir"] / "data.csv"),
                                "--out", str(tmp_path / "run")])
        assert proc.returncode == 4
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: DivergenceError"), proc.stderr

    def test_worker_exception_is_one_error_line(self, workspace, tmp_path, capfd, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(pretrain, "_tile_gradients", out_of_memory)
        code = main(["pretrain", "--config", str(workspace["cfg"]), "--workers", "2",
                     "--fitted", str(workspace["fitted"]),
                     "--data", str(workspace["data_dir"] / "data.csv"),
                     "--out", str(tmp_path / "run")])
        assert code != 0
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "worker 0" in err[0] and "MemoryError" in err[0]

    @pytest.mark.parametrize("text, what", [
        ('{"model": {"hidden": 8, "no_such_knob": 1}}', "no_such_knob"),
        ('{"train": {"epochs": 1, "no_such_knob": 1}}', "no_such_knob"),
        ('{"train": {"epochs": 1,}', "malformed JSON"),
        ('{"paths": ["run"]}', "section 'paths'"),
        ('{"train": {"epochs": "2"}}', "field 'epochs' must be int, got str"),
        ('{"model": {"hidden": "16"}}', "field 'hidden' must be int, got str"),
        ('{"train": {"lr": "0.01"}}', "field 'lr' must be float, got str"),
        ('{"train": {"epochs": true}}', "field 'epochs' must be int, got bool"),
        ('{"paths": {"out": 5}}', "paths.out must be a string, got int"),
        ('{"model": {"pooling": "mean"}}', "pooling"),
        ('{"train": {"mask_mode": "bernoulli"}}', "mask_mode"),
        ('{"train": {"loss_scope": "all"}}', "loss_scope"),
        ('{"train": {"lr": NaN}}', "lr must be positive and finite, got nan"),
        ('{"train": {"lr": Infinity}}', "lr must be positive and finite, got inf"),
        ('{"train": {"epochs": -1}}', "epochs must be >= 0, got -1"),
    ])
    def test_bad_config_is_config_error(self, workspace, tmp_path, capsys, text, what):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        code = main(["pretrain", "--config", str(cfg), "--fitted", str(workspace["fitted"]),
                     "--data", str(workspace["data_dir"] / "data.csv"),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError") and what in err[0]

    @pytest.mark.parametrize("command, target, content, error", [
        ("fit", "schema", b'{"columns": {"entity": "entity_id",', "ParseError"),
        ("fit", "schema", b'["entity", "ts"]', "SchemaMismatch"),
        ("fit", "data", b"entity,ts,amount,item,channel\ne1,100,1.0,item_\xff,ch_0\n", "ParseError"),
        ("pretrain", "fitted", b'{"schema": {"columns": {', "ParseError"),
        ("pretrain", "fitted", lambda ws: json.dumps({**json.loads(ws["fitted"].read_text()),
                                                      "means": {"amount": "x"}}).encode(), "SchemaMismatch"),
        pytest.param("pretrain", "fitted",
                     lambda ws: json.dumps({**json.loads(ws["fitted"].read_text()),
                                            "vocab": {"channel": "ch_0ch_1"}}).encode(),
                     "SchemaMismatch", id="pretrain-fitted-vocab-as-string-SchemaMismatch"),
        pytest.param("pretrain", "fitted",
                     lambda ws: json.dumps({**json.loads(ws["fitted"].read_text()),
                                            "stds": {"amount": 0.0}}).encode(),
                     "SchemaMismatch", id="pretrain-fitted-zero-std-SchemaMismatch"),
    ])
    def test_malformed_input_file_is_one_error_line(self, workspace, tmp_path, capsys,
                                                    command, target, content, error):
        paths = {"schema": workspace["data_dir"] / "schema.json",
                 "data": workspace["data_dir"] / "data.csv", "fitted": workspace["fitted"]}
        paths[target] = tmp_path / f"bad-{target}"
        paths[target].write_bytes(content(workspace) if callable(content) else content)
        argv = [command, "--data", str(paths["data"]), "--out", str(tmp_path / "out")]
        if command == "fit":
            argv += ["--schema", str(paths["schema"])]
        else:
            argv += ["--config", str(workspace["cfg"]), "--fitted", str(paths["fitted"])]
        code = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == {"ParseError": 2, "SchemaMismatch": 3}[error]
        assert len(err) == 1 and err[0].startswith(f"error: {error}")

    @pytest.mark.parametrize("target, entry, value, error", [
        ("model", "heads", 0, "ConfigError"),
        ("model", "heads", -2, "ConfigError"),
        ("model", "hidden", 0, "ConfigError"),
        ("model", "emb_out", 0, "ConfigError"),
        ("model", "ff_dim", 0, "ConfigError"),
        ("model", "t", 0, "ConfigError"),
        # arrays past any address space: refused at once, whatever the host's overcommit setting
        ("model", "t", 2 ** 50, "ConfigError"),
        ("model", "hidden", 2 ** 40, "ConfigError"),
        ("fitted", "vocab.channel", None, "SchemaMismatch"),
        ("fitted", "means.amount", None, "SchemaMismatch"),
    ])
    def test_bad_model_config_or_fitted_schema_is_one_error_line(self, workspace, tmp_path, capfd,
                                                                 target, entry, value, error):
        """The dotted `entry` of the run config's model section or of the fitted schema is set to
        `value`, or deleted for None."""
        files = {"model": json.loads(workspace["cfg"].read_text()),
                 "fitted": json.loads(workspace["fitted"].read_text())}
        table = files[target]["model"] if target == "model" else files[target]
        keys = entry.split(".")
        for key in keys[:-1]:
            table = table[key]
        if value is None:
            del table[keys[-1]]
        else:
            table[keys[-1]] = value
        for name, obj in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        code = main(["pretrain", "--config", str(tmp_path / "model.json"), "--fitted", str(tmp_path / "fitted.json"),
                     "--data", str(workspace["data_dir"] / "data.csv"), "--out", str(tmp_path / "run")])
        err = capfd.readouterr().err
        assert code == {"CasprError": 1, "ConfigError": 1, "SchemaMismatch": 3}[error]
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {error}")

    @pytest.mark.parametrize("command", ["fit", "embed", "rfm", "rank"])
    def test_seed_is_a_usage_error_where_nothing_reads_it(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_int_accepted_for_float_field(self):
        cfg = cli._config(pretrain.TrainConfig, {"train": {"lr": 1}}, "train", {})
        assert cfg.lr == 1

    def test_corrupt_checkpoint_is_one_io_error_line(self, workspace, tmp_path, capsys):
        data = bytearray((workspace["run_dir"] / "checkpoint.bin").read_bytes())
        data[data.index(b'"adam_steps"') + 1] ^= 0x01  # the header key no longer matches
        ck = tmp_path / "flipped.bin"
        ck.write_bytes(bytes(data))
        code = main(["embed", "--checkpoint", str(ck), "--data", str(workspace["data_dir"] / "data.csv"),
                     "--out", str(tmp_path / "emb.csv")])
        assert code == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: CorruptFile")

    def test_flag_overrides_config(self, workspace, tmp_path):
        out = tmp_path / "override"
        assert main(["pretrain", "--config", str(workspace["cfg"]),
                     "--fitted", str(workspace["fitted"]),
                     "--data", str(workspace["data_dir"] / "data.csv"),
                     "--out", str(out), "--epochs", "1"]) == 0
        rows = read_csv(out / "loss_log.csv")
        assert len(rows) == 2  # header + single epoch


# ------------------------------------------------------------------ config fuzz

FUZZ_VALUES = st.one_of(st.integers(-3, 0), st.sampled_from([-1.5, -0.0, math.nan, math.inf, -math.inf]),
                        st.booleans(), st.sampled_from(["", "2", "x"]))
# small enough that a config the fuzz leaves valid runs in milliseconds; one batch holds the whole log
FUZZ_BASE = {"model": {"hidden": 4, "ff_dim": 4, "layers": 1, "heads": 2, "t": 4, "emb_out": 4},
             "train": {"epochs": 1, "batch_size": 64}, "synth": {"n_entities": 6}}


def fuzzed(cls):
    """Up to two fields of `cls` set to values that are negative, zero, NaN, infinite, bools or strings."""
    return st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(cls)]), FUZZ_VALUES, max_size=2)


@pytest.fixture(scope="module")
def fuzz_inputs(workspace):
    rfm_path = workspace["root"] / "fuzz-rfm.csv"
    assert main(["rfm", "--schema", str(workspace["data_dir"] / "schema.json"),
                 "--data", str(workspace["data_dir"] / "data.csv"), "--out", str(rfm_path)]) == 0
    return {**workspace, "rfm": rfm_path}


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model=fuzzed(transformer.ModelConfig), train=fuzzed(pretrain.TrainConfig),
       synth=fuzzed(synthgen.SynthConfig), seed=st.sampled_from([None, -1, 0, 2]))
@example(model={}, train={"lr": math.nan}, synth={}, seed=None)
@example(model={}, train={"lr": math.inf}, synth={}, seed=None)
@example(model={}, train={"lr": 1e300}, synth={}, seed=None)  # finite, but the one step leaves no finite weight
@example(model={}, train={"epochs": -1}, synth={}, seed=None)
@example(model={}, train={}, synth={"item_vocab": 0}, seed=None)
@example(model={}, train={}, synth={"channel_vocab": 0}, seed=None)
@example(model={}, train={}, synth={"t_mean": math.nan}, seed=None)
@example(model={}, train={}, synth={}, seed=-1)
# sizes that numpy refuses: past the address space, or past int64
@example(model={"t": 2 ** 62}, train={}, synth={}, seed=None)
@example(model={"t": 2 ** 70}, train={}, synth={}, seed=None)
@example(model={}, train={}, synth={"n_entities": 2 ** 62}, seed=None)
@example(model={}, train={}, synth={"item_vocab": 10 ** 20}, seed=None)
@example(model={}, train={}, synth={"channel_vocab": 10 ** 20}, seed=None)
@example(model={}, train={}, synth={"min_len": 10 ** 20, "max_len": 10 ** 20}, seed=None)
def test_config_fuzz_exits_0_or_prints_one_error_line(fuzz_inputs, model, train, synth, seed):
    """synth, pretrain and eval, run on a config of fuzzed values, each exit 0 with their artifacts
    (pretrain: a finite checkpoint and one loss row per configured epoch) or print exactly one
    `error:` line and exit with a documented code. numpy's floating-point warnings are left out."""
    cfg = {name: {**FUZZ_BASE[name], **drawn} for name, drawn in (("model", model), ("train", train), ("synth", synth))}
    flags = [] if seed is None else ["--seed", str(seed)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        run_dir = os.path.join(tmp, "run")
        commands = {
            "synth": ["synth", "--out", os.path.join(tmp, "synth")],
            "pretrain": ["pretrain", "--fitted", str(fuzz_inputs["fitted"]), "--out", run_dir,
                         "--data", str(fuzz_inputs["data_dir"] / "data.csv")],
            "eval": ["eval", "--task", "binary", "--features", str(fuzz_inputs["rfm"]),
                     "--labels", str(fuzz_inputs["data_dir"] / "labels.csv"), "--out", os.path.join(tmp, "report.csv")],
        }
        for command, argv in commands.items():
            out, err = io.StringIO(), io.StringIO()
            with np.errstate(all="ignore"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + ["--config", path] + flags)
            lines = err.getvalue().splitlines()
            if code:
                assert code in (1, 2, 3, 4, 5) and len(lines) == 1 and lines[0].startswith("error: "), (command, lines)
            else:
                assert lines == [] and out.getvalue().startswith(("wrote", "auroc")), (command, out.getvalue())
            if command == "pretrain" and code in (0, 4):  # a divergence keeps the last good checkpoint
                assert np.isfinite(pretrain.load_checkpoint(os.path.join(run_dir, "checkpoint.bin")).flat).all()
            if command == "pretrain" and code == 0:
                assert len(read_csv(os.path.join(run_dir, "loss_log.csv"))) == 1 + cfg["train"]["epochs"]
