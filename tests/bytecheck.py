"""Run the seeded pipeline into a directory, so that two checkouts can be compared byte for byte.

    PYTHONPATH=src python tests/bytecheck.py OUT_DIR
    PYTHONPATH=../other/src python tests/bytecheck.py OTHER_OUT_DIR
    diff -r OUT_DIR OTHER_OUT_DIR

Every command runs as `python -m caspr.cli`, so the `caspr` on PYTHONPATH is the
one checked. For each of two logs, `synth --seed 1` at 300 and at 2000 entities,
it runs `fit`; `pretrain --epochs 2 --seed 0` at batch 48 on 1 worker, batch 512
on 2 workers and batch 16 on 3 workers; `embed` and `rank` of each checkpoint,
against each entity's last item; `rfm`; and a binary `eval` of each feature
file. Three more logs run the same commands with the batch-48 pretraining
only, each written back through csv.writer: the 300-entity log with ids that csv
must quote or that are not ASCII (`e,00001`, `e"00002"`, `é00003`); the same log
unchanged but for its CRLF line ends, which are split at commas as LF lines
are; and the 2000-entity log with LF line ends and its last entity's id
as `e,01999`, which csv.reader reads from the chunk of that entity's first row
on, after the rows before it have been split at commas. Two more runs of
the 300-entity log, also with the batch-48 pretraining only, change its schema:
one keeps `amount` alone, so the model has no embedding table and skips `rank`;
one makes `channel` a `static_categorical` column. The `wall_seconds`
column is dropped from each loss_log.csv: it is the only output that depends on
timing. BLAS runs one thread unless the environment says otherwise.
"""
from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

LOGS = (300, 2000)
PRETRAIN = (("b48_w1", 48, 1), ("b512_w2", 512, 2), ("b16_w3", 16, 3))
SCHEMAS = {
    "n300_numeric_only": {"columns": {"entity": "entity_id", "ts": "timestamp", "amount": "numerical"},
                          "monetary": "amount"},
    "n300_static_channel": {"columns": {"entity": "entity_id", "ts": "timestamp", "amount": "numerical",
                                        "item": "categorical", "channel": "static_categorical"},
                            "monetary": "amount", "item": "item"},
}


def caspr(*argv):
    subprocess.run([sys.executable, "-m", "caspr.cli", *map(str, argv)], check=True, stdout=subprocess.DEVNULL)


def drop_wall_seconds(path):
    with open(path, newline="") as fh:
        rows = [row[:2] for row in csv.reader(fh)]
    assert rows[0] == ["epoch", "mean_loss"], rows[0]
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_relevance(data_path, out_path):
    """entity,relevant_items: each entity's last item in file order."""
    with open(data_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        last = {rec["entity"]: rec["item"] for rec in reader}
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([("entity", "relevant_items"), *sorted(last.items())])


def rewrite_ids(data, new_id, lineterminator="\r\n"):
    """Write `data`'s data.csv and labels.csv back through csv.writer, each entity id as new_id(id)."""
    for name in ("data.csv", "labels.csv"):
        path = os.path.join(data, name)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            rows = [header, *([new_id(row[0]), *row[1:]] for row in rows)]
            csv.writer(fh, lineterminator=lineterminator).writerows(rows)


def awkward(entity):
    """An id that csv quotes or that is not ASCII."""
    digits = entity[1:]
    return (f"é{digits}", f"e,{digits}", f'e"{digits}"')[int(digits) % 3]


REWRITES = {  # log name: entities, and the rewrite of its synth data directory
    "n300_awkward": (300, lambda data: rewrite_ids(data, awkward)),
    "n300_crlf": (300, lambda data: rewrite_ids(data, str)),
    "n2000_late_quote": (2000, lambda data: rewrite_ids(data, lambda e: "e,01999" if e == "e01999" else e, "\n")),
}


def run_log(out, n_entities, pretrain=PRETRAIN, rewrite=None, schema_json=None):
    """Every command on one synth log; `rewrite(data directory)` edits its files, `schema_json` replaces its
    schema, and `rank` runs only with an item column."""
    data = os.path.join(out, "data")
    caspr("synth", "--out", data, "--n-entities", n_entities, "--seed", 1)
    if rewrite is not None:
        rewrite(data)
    log, labels, schema = (os.path.join(data, name) for name in ("data.csv", "labels.csv", "schema.json"))
    if schema_json is not None:
        with open(schema, "w", encoding="utf-8") as fh:
            json.dump(schema_json, fh)
    ranks = schema_json is None or "item" in schema_json
    fitted = os.path.join(out, "fitted.json")
    caspr("fit", "--schema", schema, "--data", log, "--out", fitted)
    relevance = os.path.join(out, "relevance.csv")
    write_relevance(log, relevance)
    features = [os.path.join(out, "rfm.csv")]
    caspr("rfm", "--schema", schema, "--data", log, "--out", features[0])
    for name, batch_size, workers in pretrain:
        run = os.path.join(out, name)
        caspr("pretrain", "--fitted", fitted, "--data", log, "--out", run, "--epochs", 2,
              "--batch-size", batch_size, "--workers", workers, "--seed", 0)
        drop_wall_seconds(os.path.join(run, "loss_log.csv"))
        checkpoint = os.path.join(run, "checkpoint.bin")
        features.append(os.path.join(run, "embeddings.csv"))
        caspr("embed", "--checkpoint", checkpoint, "--data", log, "--out", features[-1])
        if ranks:
            caspr("rank", "--checkpoint", checkpoint, "--data", log, "--relevance", relevance,
                  "--out", os.path.join(run, "rank_report.csv"))
    for path in features:
        caspr("eval", "--features", path, "--labels", labels, "--task", "binary", "--seed", 0,
              "--out", os.path.splitext(path)[0] + "_report.csv")


def main(out):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    for n_entities in LOGS:
        run_log(os.path.join(out, f"n{n_entities}"), n_entities)
    for name, (n_entities, rewrite) in REWRITES.items():
        run_log(os.path.join(out, name), n_entities, PRETRAIN[:1], rewrite=rewrite)
    for name, schema_json in SCHEMAS.items():
        run_log(os.path.join(out, name), 300, PRETRAIN[:1], schema_json=schema_json)
    files = sum(len(names) for _, _, names in os.walk(out))
    print(f"wrote {files} files under {out}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
