"""Command-line pipelines over the library modules.

Subcommands: synth, fit, pretrain, embed, rfm, eval, rank. Options
can come from one JSON config file (--config) with command-line flags
winning on conflict. Artifacts are written atomically (temp file + rename)
and reruns with the same seed produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import os
import sys
import tempfile
import typing

import numpy as np

from . import ingest, metrics, pretrain, rfm, synthgen, transformer
from .errors import CasprError, ConfigError, DivergenceError, IoError, NumericError, ParseError, SchemaMismatch

log = logging.getLogger("caspr")

TEST_FRAC = 0.3      # share of entities the probe is scored on


def _setup_logging():
    level = os.environ.get("CASPR_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


@contextlib.contextmanager
def _replacing(path):
    """Yield a temp path in `path`'s directory and rename it onto `path` on a clean exit.

    The temp file gets the mode open() would give, not mkstemp's 0600, and
    is removed whenever the rename did not happen.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    os.close(fd)
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.chmod(tmp, 0o666 & ~umask)
        yield tmp
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):  # only when the rename did not happen
            os.unlink(tmp)


def atomic_write(path, write_fn):
    """Write UTF-8 text via a temp file in the same directory, then rename into place."""
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        write_fn(fh)


def _require(path, what):
    if not os.path.exists(path):
        raise IoError(f"{what} not found: {path}")
    return path


def _load_config(path):
    if path is None:
        return {}
    with open(_require(path, "config file"), encoding="utf-8") as fh:
        try:
            cfg_file = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ConfigError(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(cfg_file, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    for section in ("model", "train", "synth", "paths"):
        if not isinstance(cfg_file.get(section, {}), dict):
            raise ConfigError(f"{path}: config section {section!r} must be a JSON object")
    for key, value in cfg_file.get("paths", {}).items():
        if not isinstance(value, str):
            raise ConfigError(f"{path}: paths.{key} must be a string, got {type(value).__name__}")
    return cfg_file


def _config(cls, cfg_file, section, overrides):
    """Build a config dataclass from a config-file section plus flag overrides.

    Each value must have its field's type: an int field takes no bool, a
    float field also takes an int.
    """
    values = {**cfg_file.get(section, {}), **overrides}
    fields = typing.get_type_hints(cls)
    for key, value in values.items():
        want = fields.get(key)
        accepted = (int, float) if want is float else want
        if want is not None and (isinstance(value, bool) or not isinstance(value, accepted)):
            raise ConfigError(f"config section {section!r}: field {key!r} must be {want.__name__}, "
                              f"got {type(value).__name__}")
    try:
        return cls(**values)
    except TypeError as exc:  # unknown key
        raise ConfigError(f"config section {section!r}: {exc}") from None


def _path(args, cfg_file, key):
    """Resolve a path from flags first, then the config's "paths" section."""
    value = getattr(args, key, None) or cfg_file.get("paths", {}).get(key)
    if value is None:
        raise ConfigError(f"missing --{key.replace('_', '-')} (or paths.{key} in the config file)")
    return value


def _write_features(path, names, entities, matrix):
    """One CSV row per entity: its id, then the `repr` of each float of its row of `matrix`."""
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["entity", *names])
        writer.writerows([entity, *map(repr, row)] for entity, row in zip(entities, matrix.tolist()))

    atomic_write(path, write)


def _read_records(path, what):
    """The header (None for an empty file) and the data records of a CSV file."""
    with ingest.open_csv(_require(path, what)) as reader:
        return next(reader, None), list(reader)


def read_feature_csv(path):
    """entity column plus at least one float feature column; returns (ids, feature names, matrix).

    Each entity has one row. The records are checked in order: the first of
    the wrong width or repeating an entity is a ParseError, unless a bad cell
    before it is.
    """
    header, records = _read_records(path, "feature file")
    if not header or header[0] != "entity":
        raise ParseError(f"{path}: expected header starting with 'entity'")
    if len(header) == 1:
        raise ParseError(f"{path}: no feature columns after 'entity'")
    row_of = {}
    for end, rec in enumerate(records):
        if len(rec) != len(header) or rec[0] in row_of:
            break
        row_of[rec[0]] = end
    else:
        end = len(records)
    cols = list(zip(*records[:end])) or [()] * len(header)
    matrix = ingest.parse_numbers(0, cols[1:], header[1:])
    if end < len(records):
        rec = records[end]
        if len(rec) != len(header):
            raise ParseError(f"{path}: expected {len(header)} fields", end)
        raise ParseError(f"{path}: entity {rec[0]!r} is already on row {row_of[rec[0]]}", end)
    # Row-major: the probe's column means and spreads sum the rows in this layout's order.
    return list(cols[0]), header[1:], np.ascontiguousarray(matrix.T)


def read_labels_csv(path):
    """entity -> label. An entity may repeat only with an equal label.

    A bad cell is a ParseError before any repeat is checked; a short row
    is one after the rows before it are checked.
    """
    header, records = _read_records(path, "labels file")
    if not header or header[:2] != ["entity", "label"]:
        raise ParseError(f"{path}: expected header entity,label")
    end = next((i for i, rec in enumerate(records) if len(rec) < 2), len(records))
    labels = ingest.parse_numbers(0, [[rec[1] for rec in records[:end]]], ["label"])[0].tolist()
    out = {}
    for i, (rec, label) in enumerate(zip(records, labels)):
        if out.get(rec[0], label) != label:
            raise ParseError(f"{path}: entity {rec[0]!r} has label {out[rec[0]]!r} on an earlier row "
                             f"and {label!r} here", i)
        out[rec[0]] = label
    if end < len(records):
        raise ParseError(f"{path}: bad label row", end)
    return out


def split_train_test(n, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = max(1, int(round(n * TEST_FRAC)))
    return perm[n_test:], perm[:n_test]


def evaluate_features(features, labels, task, seed=0, columns=None):
    """Check every label, split, fit the linear probe, score held-out data.

    `columns` names the feature columns in errors; a held-out score that is
    not finite is a NumericError naming its row of `features`.
    """
    metrics.check_labels(labels, task)
    train_idx, test_idx = split_train_test(len(features), seed)
    probe = metrics.train_linear_probe(features[train_idx], labels[train_idx], task, columns)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        scores = probe.scores(features[test_idx])
    if not np.isfinite(scores).all():
        row = int(test_idx[np.argmin(np.isfinite(scores))])
        raise NumericError(f"the probe's score of held-out feature row {row} is not finite")
    held = labels[test_idx]
    if task == "binary":
        with np.errstate(over="ignore"):  # the sigmoid of a far score is 0 or 1
            probs = 1.0 / (1.0 + np.exp(-scores))
        return {"auroc": metrics.auroc(scores, held), "f1_pos": metrics.f1_positive(probs, held)}
    return {"rmse": metrics.rmse(scores, held)}


def cmd_synth(args):
    cfg_file = _load_config(args.config)
    overrides = {flag: getattr(args, flag) for flag in ("n_entities", "seed", "signal")
                 if getattr(args, flag) is not None}
    cfg = _config(synthgen.SynthConfig, cfg_file, "synth", overrides)
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
    fitted = ingest.fit_schema(ingest.read_columns(_require(data_path, "data file"), schema), schema)
    atomic_write(out, lambda fh: json.dump(fitted.to_json(), fh, indent=2, sort_keys=True))
    print(f"wrote {out}")
    return 0


def _write_checkpoint(ck, out_dir):
    """Save `ck` as <out_dir>/checkpoint.bin via a temp file and a rename."""
    ck_path = os.path.join(out_dir, "checkpoint.bin")
    with _replacing(ck_path) as tmp:
        pretrain.save_checkpoint(ck, tmp)
    return ck_path


def cmd_pretrain(args):
    cfg_file = _load_config(args.config)
    model_cfg = _config(transformer.ModelConfig, cfg_file, "model",
                        {"precision": args.precision} if args.precision else {})
    train_cfg = _config(pretrain.TrainConfig, cfg_file, "train",
                        {flag: getattr(args, flag) for flag in ("seed", "epochs", "batch_size", "workers")
                         if getattr(args, flag) is not None})
    fitted = ingest.load_fitted_json(_require(_path(args, cfg_file, "fitted"), "fitted schema"))
    data_path = _path(args, cfg_file, "data")
    out_dir = _path(args, cfg_file, "out")
    dataset = ingest.load_dataset(_require(data_path, "data file"), fitted, model_cfg.t)
    log.info("pretraining on %d sequences for %d epochs (workers=%d)",
             len(dataset.entities), train_cfg.epochs, train_cfg.workers)
    try:
        ck, loss_log = pretrain.train(dataset, model_cfg, train_cfg)
    except DivergenceError as exc:
        if exc.checkpoint is None:
            raise
        ck_path = _write_checkpoint(exc.checkpoint, out_dir)
        raise DivergenceError(f"{exc}; kept the last good checkpoint (epoch {exc.checkpoint.epoch}) "
                              f"at {ck_path}", checkpoint=exc.checkpoint) from exc
    ck_path = _write_checkpoint(ck, out_dir)

    def write_log(fh):
        fh.write("epoch,mean_loss,wall_seconds\n")
        for epoch, mean_loss, wall in loss_log:
            fh.write(f"{epoch},{mean_loss!r},{wall:.6f}\n")

    atomic_write(os.path.join(out_dir, "loss_log.csv"), write_log)
    print(f"wrote {ck_path}")
    return 0


def _embed_log(args, cfg_file):
    """(checkpoint, weights, dataset, vectors): every entity of the log embedded by the checkpoint."""
    ck = pretrain.load_checkpoint(_require(_path(args, cfg_file, "checkpoint"), "checkpoint"))
    weights = transformer.ModelWeights(ck.model_cfg, ck.fitted, ck.flat)
    dataset = ingest.load_dataset(_require(_path(args, cfg_file, "data"), "data file"), ck.fitted, ck.model_cfg.t)
    vectors = transformer.embed(transformer.prepare_batch(dataset, slice(None), ck.model_cfg), weights)
    return ck, weights, dataset, vectors


def cmd_embed(args):
    cfg_file = _load_config(args.config)
    paths_cfg = cfg_file.get("paths", {})
    out = args.out or paths_cfg.get("embeddings") or paths_cfg.get("out")
    if out is None:
        raise ConfigError("missing --out (or paths.embeddings in the config file)")
    _, _, dataset, vectors = _embed_log(args, cfg_file)
    _write_features(out, [f"e{i}" for i in range(vectors.shape[1])], dataset.entities, vectors)
    print(f"wrote {out} ({len(dataset.entities)} entities)")
    return 0


def cmd_rfm(args):
    cfg_file = _load_config(args.config)
    schema = ingest.load_schema_json(_require(_path(args, cfg_file, "schema"), "schema file"))
    data_path = _path(args, cfg_file, "data")
    out = _path(args, cfg_file, "out")
    entities, matrix = rfm.rfm_table(rfm.rfm_events_from_csv(_require(data_path, "data file"), schema))
    _write_features(out, rfm.FEATURE_NAMES, entities, matrix)
    print(f"wrote {out} ({len(entities)} entities)")
    return 0


def cmd_eval(args):
    cfg_file = _load_config(args.config)
    seed = args.seed or 0
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    ids, names, feats = read_feature_csv(_path(args, cfg_file, "features"))
    label_map = read_labels_csv(_path(args, cfg_file, "labels"))
    missing = [e for e in ids if e not in label_map]
    if missing:
        raise SchemaMismatch(f"{len(missing)} entities have no label (first: {missing[0]!r})")
    labels = np.array([label_map[e] for e in ids], dtype=np.float64)
    report = evaluate_features(feats, labels, args.task, seed=seed, columns=names)
    atomic_write(_path(args, cfg_file, "out"), lambda fh: metrics.write_report_csv(report, fh))
    print(metrics.format_report(report))
    return 0


def read_relevance_csv(path):
    """entity,relevant_items with pipe-separated item ids; each entity has one row."""
    header, records = _read_records(path, "relevance file")
    if not header or header[0] != "entity":
        raise ParseError(f"{path}: expected header starting with 'entity'")
    out, row_of = {}, {}
    for i, rec in enumerate(records):
        if len(rec) < 2:
            raise ParseError(f"{path}: bad relevance row", i)
        if rec[0] in row_of:
            raise ParseError(f"{path}: entity {rec[0]!r} is already on row {row_of[rec[0]]}", i)
        row_of[rec[0]] = i
        out[rec[0]] = [x for x in rec[1].split("|") if x]
    return out


def cmd_rank(args):
    cfg_file = _load_config(args.config)
    out = _path(args, cfg_file, "out")
    relevant = read_relevance_csv(_path(args, cfg_file, "relevance"))
    ck, weights, dataset, vectors = _embed_log(args, cfg_file)
    item_col = ck.fitted.schema.item
    if item_col is None:
        raise SchemaMismatch("schema declares no item column; cannot rank")
    entity_vecs = dict(zip(dataset.entities, vectors))
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


def build_parser():
    parser = argparse.ArgumentParser(prog="caspr", description="Activity-sequence embeddings and baselines")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--config", help="JSON config file; flags override its values")
        if seed:
            p.add_argument("--seed", type=int, help="random seed")

    p = sub.add_parser("synth", help="generate a synthetic activity log")
    common(p, seed=True)
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
    common(p, seed=True)
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
    common(p, seed=True)
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

    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's exit
        return code
    except BrokenPipeError:  # whoever read stdout stopped reading; the command has done its work
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit's flush is quiet too
        return 0
    except CasprError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: IoError: {exc}", file=sys.stderr)
        return IoError.exit_code


if __name__ == "__main__":
    sys.exit(main())
