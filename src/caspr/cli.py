"""Command-line pipelines over the library modules.

Subcommands: synth, fit, pretrain, embed, rfm, eval, rank, bench. Options
can come from one JSON config file (--config) with command-line flags
winning on conflict. Artifacts are written atomically (temp file + rename)
and reruns with the same seed produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import tempfile

import numpy as np

from . import ingest, metrics, pretrain, rfm, synthgen, transformer
from .errors import CasprError, ConfigError, IoError, LabelError, ParseError, SchemaMismatch

log = logging.getLogger("caspr")


def _setup_logging():
    level = os.environ.get("CASPR_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


def atomic_write(path, write_fn, mode="w"):
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8", newline=None if "b" in mode else "") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise IoError(f"cannot write {path}: {exc}") from exc
    except Exception:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require(path, what):
    if not os.path.exists(path):
        raise IoError(f"{what} not found: {path}")
    return path


def _load_config(path):
    if path is None:
        return {}
    with open(_require(path, "config file"), encoding="utf-8") as fh:
        return json.load(fh)


def _path(args, cfg_file, key, required=True):
    """Resolve a path from flags first, then the config's "paths" section."""
    value = getattr(args, key, None) or cfg_file.get("paths", {}).get(key)
    if value is None and required:
        raise ConfigError(f"missing --{key.replace('_', '-')} (or paths.{key} in the config file)")
    return value


def _model_config(args, cfg_file):
    obj = dict(cfg_file.get("model", {}))
    if getattr(args, "precision", None):
        obj["precision"] = args.precision
    return transformer.ModelConfig.from_json(obj)


def _train_config(args, cfg_file):
    obj = dict(cfg_file.get("train", {}))
    for flag in ("seed", "epochs", "batch_size", "workers"):
        value = getattr(args, flag, None)
        if value is not None:
            obj[flag] = value
    return pretrain.TrainConfig.from_json(obj)


def _write_embeddings(records, path):
    if not records:
        raise LabelError("no embeddings to write")
    dim = len(records[0].vector)

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["entity"] + [f"e{i}" for i in range(dim)])
        for rec in records:
            writer.writerow([rec.entity] + [repr(float(x)) for x in rec.vector])

    atomic_write(path, write)


def read_feature_csv(path):
    """entity column plus float feature columns; returns (ids, matrix)."""
    with open(_require(path, "feature file"), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "entity":
            raise ParseError(f"{path}: expected header starting with 'entity'")
        ids, rows = [], []
        for i, rec in enumerate(reader):
            if len(rec) != len(header):
                raise ParseError(f"{path}: expected {len(header)} fields", i)
            ids.append(rec[0])
            try:
                rows.append([float(x) for x in rec[1:]])
            except ValueError:
                raise ParseError(f"{path}: non-numeric feature value", i) from None
    return ids, np.array(rows, dtype=np.float64)


def read_labels_csv(path):
    with open(_require(path, "labels file"), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["entity", "label"]:
            raise ParseError(f"{path}: expected header entity,label")
        out = {}
        for i, rec in enumerate(reader):
            try:
                out[rec[0]] = float(rec[1])
            except (IndexError, ValueError):
                raise ParseError(f"{path}: bad label row", i) from None
    return out


def split_train_test(n, test_frac, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = max(1, int(round(n * test_frac)))
    return perm[n_test:], perm[:n_test]


def evaluate_features(features, labels, task, seed=0, test_frac=0.3):
    """Split, fit the linear probe, score held-out data."""
    train_idx, test_idx = split_train_test(len(features), test_frac, seed)
    probe = metrics.train_linear_probe(features[train_idx], labels[train_idx], task)
    scores = probe.scores(features[test_idx])
    held = labels[test_idx]
    if task == "binary":
        return {"auroc": metrics.auroc(scores, held),
                "f1_pos": metrics.f1_positive(1.0 / (1.0 + np.exp(-scores)), held)}
    return {"rmse": metrics.rmse(scores, held)}


def cmd_synth(args):
    cfg_file = _load_config(args.config)
    obj = dict(cfg_file.get("synth", {}))
    if args.n_entities is not None:
        obj["n_entities"] = args.n_entities
    if args.seed is not None:
        obj["seed"] = args.seed
    if args.signal is not None:
        obj["signal"] = args.signal
    cfg = synthgen.SynthConfig.from_json(obj)
    out_dir = _path(args, cfg_file, "out")
    data_path, labels_path, schema_path = synthgen.generate(cfg, out_dir)
    print(f"wrote {data_path}, {labels_path}, {schema_path}")
    return 0


def cmd_fit(args):
    cfg_file = _load_config(args.config)
    schema_path = _path(args, cfg_file, "schema")
    data_path = _path(args, cfg_file, "data")
    paths_cfg = cfg_file.get("paths", {})
    out = args.out or paths_cfg.get("fitted") or paths_cfg.get("out")
    if out is None:
        raise ConfigError("missing --out (or paths.fitted in the config file)")
    schema = ingest.load_schema_json(_require(schema_path, "schema file"))
    fitted = ingest.fit_schema(ingest.iter_raw_rows(_require(data_path, "data file"), schema), schema)
    atomic_write(out, lambda fh: json.dump(fitted.to_json(), fh, indent=2, sort_keys=True))
    print(f"wrote {out}")
    return 0


def cmd_pretrain(args):
    cfg_file = _load_config(args.config)
    model_cfg = _model_config(args, cfg_file)
    train_cfg = _train_config(args, cfg_file)
    fitted = ingest.load_fitted_json(_require(_path(args, cfg_file, "fitted"), "fitted schema"))
    data_path = _path(args, cfg_file, "data")
    out_dir = _path(args, cfg_file, "out")
    dataset = ingest.load_dataset(_require(data_path, "data file"), fitted, model_cfg.t)
    log.info("pretraining on %d sequences for %d epochs (workers=%d)",
             len(dataset.sequences), train_cfg.epochs, train_cfg.workers)
    ck, loss_log = pretrain.train(dataset, model_cfg, train_cfg)
    os.makedirs(out_dir, exist_ok=True)
    ck_path = os.path.join(out_dir, "checkpoint.bin")
    tmp = ck_path + ".tmp"
    pretrain.save_checkpoint(ck, tmp)
    os.replace(tmp, ck_path)

    def write_log(fh):
        fh.write("epoch,mean_loss,wall_seconds\n")
        for epoch, mean_loss, wall in loss_log:
            fh.write(f"{epoch},{mean_loss!r},{wall:.6f}\n")

    atomic_write(os.path.join(out_dir, "loss_log.csv"), write_log)
    print(f"wrote {ck_path}")
    return 0


def _weights_from_checkpoint(path):
    ck = pretrain.load_checkpoint(_require(path, "checkpoint"))
    rng = np.random.default_rng(0)
    weights = transformer.build_weights(ck.model_cfg, ck.fitted, rng)
    weights.load_arrays(ck.tensors)
    return ck, weights


def _embed_all(weights, dataset, batch_size=512):
    records = []
    for start in range(0, len(dataset.sequences), batch_size):
        chunk = dataset.sequences[start:start + batch_size]
        records.extend(transformer.embed(chunk, weights))
    return records


def cmd_embed(args):
    cfg_file = _load_config(args.config)
    ck, weights = _weights_from_checkpoint(_path(args, cfg_file, "checkpoint"))
    data_path = _path(args, cfg_file, "data")
    paths_cfg = cfg_file.get("paths", {})
    out = args.out or paths_cfg.get("embeddings") or paths_cfg.get("out")
    if out is None:
        raise ConfigError("missing --out (or paths.embeddings in the config file)")
    dataset = ingest.load_dataset(_require(data_path, "data file"), ck.fitted, ck.model_cfg.t)
    records = _embed_all(weights, dataset)
    _write_embeddings(records, out)
    print(f"wrote {out} ({len(records)} entities)")
    return 0


def cmd_rfm(args):
    cfg_file = _load_config(args.config)
    schema = ingest.load_schema_json(_require(_path(args, cfg_file, "schema"), "schema file"))
    data_path = _path(args, cfg_file, "data")
    out = _path(args, cfg_file, "out")
    by_entity = rfm.rfm_events_from_csv(_require(data_path, "data file"), schema)
    table = rfm.rfm_table(by_entity)

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["entity"] + rfm.FEATURE_NAMES)
        for entity, vec in table:
            writer.writerow([entity] + [repr(float(x)) for x in vec])

    atomic_write(out, write)
    print(f"wrote {out} ({len(table)} entities)")
    return 0


def cmd_eval(args):
    cfg_file = _load_config(args.config)
    ids, feats = read_feature_csv(_path(args, cfg_file, "features"))
    label_map = read_labels_csv(_path(args, cfg_file, "labels"))
    missing = [e for e in ids if e not in label_map]
    if missing:
        raise SchemaMismatch(f"{len(missing)} entities have no label (first: {missing[0]!r})")
    labels = np.array([label_map[e] for e in ids], dtype=np.float64)
    report = evaluate_features(feats, labels, args.task, seed=args.seed or 0)
    atomic_write(_path(args, cfg_file, "out"), lambda fh: metrics.write_report_csv(report, fh))
    print(metrics.format_report(report))
    return 0


def read_relevance_csv(path):
    """entity,relevant_items with pipe-separated item ids."""
    with open(_require(path, "relevance file"), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "entity":
            raise ParseError(f"{path}: expected header starting with 'entity'")
        out = {}
        for i, rec in enumerate(reader):
            if len(rec) < 2:
                raise ParseError(f"{path}: bad relevance row", i)
            out[rec[0]] = [x for x in rec[1].split("|") if x]
    return out


def cmd_rank(args):
    cfg_file = _load_config(args.config)
    ck, weights = _weights_from_checkpoint(_path(args, cfg_file, "checkpoint"))
    item_col = ck.fitted.schema.item
    if item_col is None:
        raise SchemaMismatch("schema declares no item column; cannot rank")
    out = _path(args, cfg_file, "out")
    data_path = _path(args, cfg_file, "data")
    dataset = ingest.load_dataset(_require(data_path, "data file"), ck.fitted, ck.model_cfg.t)
    relevant = read_relevance_csv(_path(args, cfg_file, "relevance"))

    records = _embed_all(weights, dataset)
    entity_vecs = {r.entity: r.vector for r in records}
    vocab = ck.fitted.vocab[item_col]
    table = weights[f"emb/{item_col}"].data.astype(np.float64)
    item_vecs = table[1:]  # row 0 is padding/OOV

    projection = None
    if item_vecs.shape[1] != len(next(iter(entity_vecs.values()))):
        pairs_i, pairs_e = [], []
        code = {v: i for i, v in enumerate(vocab)}
        for entity, items in relevant.items():
            if entity not in entity_vecs:
                continue
            for item in items:
                if item in code:
                    pairs_i.append(item_vecs[code[item]])
                    pairs_e.append(entity_vecs[entity])
        if not pairs_i:
            raise SchemaMismatch("no (entity, item) pairs available to fit the width projection")
        projection = metrics.fit_item_projection(np.array(pairs_i), np.array(pairs_e))

    cases = metrics.rank_items(entity_vecs, list(vocab), item_vecs, relevant, projection)
    report = metrics.ranking_metrics(cases)
    atomic_write(out, lambda fh: metrics.write_report_csv(report, fh))

    ranking_path = os.path.splitext(out)[0] + "_rankings.csv"

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["entity", "ranked_items", "relevant_items"])
        for entity, case in zip(sorted(relevant), cases):
            writer.writerow([entity, "|".join(case.ranked_items), "|".join(sorted(case.relevant))])

    atomic_write(ranking_path, write)
    print(metrics.format_report(report))
    return 0


def cmd_bench(args):
    cfg_file = _load_config(args.config)
    model_cfg = _model_config(args, cfg_file)
    train_cfg = _train_config(args, cfg_file)
    fitted = ingest.load_fitted_json(_require(_path(args, cfg_file, "fitted"), "fitted schema"))
    data_path = _path(args, cfg_file, "data")
    out = _path(args, cfg_file, "out")
    dataset = ingest.load_dataset(_require(data_path, "data file"), fitted, model_cfg.t)
    worker_list = [int(x) for x in args.workers_list.split(",")]
    rows = []
    for w in worker_list:
        cfg = pretrain.TrainConfig.from_json({**train_cfg.to_json(), "workers": w})
        _, loss_log = pretrain.train(dataset, model_cfg, cfg)
        epoch_times = [wall for _, _, wall in loss_log]
        epoch_s = float(np.median(epoch_times))
        rows.append((w, epoch_s, w * epoch_s))
        log.info("bench workers=%d epoch=%.3fs", w, epoch_s)

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["workers", "epoch_time_s", "total_worker_time_s"])
        for w, epoch_s, total in rows:
            writer.writerow([w, f"{epoch_s:.6f}", f"{total:.6f}"])

    atomic_write(out, write)
    for w, epoch_s, total in rows:
        print(f"workers={w} epoch_time_s={epoch_s:.3f} total_worker_time_s={total:.3f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="caspr", description="Activity-sequence embeddings and baselines")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, help="random seed")

    p = sub.add_parser("synth", help="generate a synthetic activity log")
    common(p)
    p.add_argument("--out", help="output directory")
    p.add_argument("--n-entities", type=int, dest="n_entities")
    p.add_argument("--signal", choices=["trend_churn", "none"])
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("fit", help="fit vocabularies and normalization statistics")
    common(p)
    p.add_argument("--schema")
    p.add_argument("--data")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("pretrain", help="run masked-recovery pretraining")
    common(p)
    p.add_argument("--fitted", help="fitted schema JSON from `caspr fit`")
    p.add_argument("--data")
    p.add_argument("--out", help="output directory")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--workers", type=int)
    p.add_argument("--precision", choices=["f32", "f64"])
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("embed", help="export entity embeddings from a checkpoint")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("rfm", help="compute the RFM baseline feature table")
    common(p)
    p.add_argument("--schema")
    p.add_argument("--data")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_rfm)

    p = sub.add_parser("eval", help="train a linear probe and report metrics")
    common(p)
    p.add_argument("--features")
    p.add_argument("--labels")
    p.add_argument("--task", choices=["binary", "regression"], required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("rank", help="rank items per entity and report ranking metrics")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--relevance")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("bench", help="scaling benchmark over worker counts")
    common(p)
    p.add_argument("--fitted")
    p.add_argument("--data")
    p.add_argument("--workers", required=True, dest="workers_list",
                   help="comma-separated worker counts, e.g. 1,2,4")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--precision", choices=["f32", "f64"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CasprError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: IoError: {exc}", file=sys.stderr)
        return IoError.exit_code


if __name__ == "__main__":
    sys.exit(main())
