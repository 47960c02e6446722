"""Downstream evaluation: a deterministic linear probe plus classification,
regression and ranking metrics.

The probe standardizes its inputs, then minimizes a logistic or
least-squares objective (L2 penalty 1e-4 on the weights, not the bias) with
the shared Adam on hand-derived gradients: `logistic_grad` below for the
binary task, 2(z − y)/n for regression. Probe quality thus reflects only
the representation it is fed.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .autodiff import adam_step, init_moments
from .errors import CaseError, LabelError, NumericError, SchemaMismatch

PROBE_L2 = 1e-4
PROBE_STEPS = 600
PROBE_LR = 0.05


@dataclass
class LinearProbe:
    task: str                # binary | regression
    w: np.ndarray            # weights in standardized feature space
    b: float
    feat_mean: np.ndarray
    feat_std: np.ndarray

    def scores(self, features):
        x = (np.asarray(features, dtype=np.float64) - self.feat_mean) / self.feat_std
        return x @ self.w + self.b


def check_labels(labels, task):
    """LabelError unless every label is finite, and 0 or 1 for a binary task."""
    labels = np.asarray(labels, dtype=np.float64)
    if task == "binary" and not np.isin(labels, (0.0, 1.0)).all():
        raise LabelError("binary labels must be 0 or 1")
    if not np.isfinite(labels).all():
        raise LabelError("labels must be finite")


def logistic_grad(z, y, c):
    """c times the gradient of the logistic loss Σ −log σ(±z) w.r.t. the scores z, for 0/1 labels y.

    This is the z column of `autodiff.cross_entropy`'s gradient on logits
    [0, z] at weight c, taken in that kernel's order of operations, so the
    two agree bit for bit: with m = max(z, 0) and s1 = z − m,
    dz = exp(s1 − log(exp(0 − m) + exp(s1)))·c − c·y.
    """
    m = np.maximum(z, 0.0)
    s1 = z - m
    dz = np.exp(s1 - np.log(np.exp(-m) + np.exp(s1)))
    dz *= c
    dz -= c * y
    return dz


def train_linear_probe(features, labels, task, columns=None):
    """Fit the probe by full-batch Adam on hand-derived gradients.

    The weights and bias share one flat array, and their gradient another;
    each step forms the data gradient dz of the scores z = xs·w + b, then
    dW = xsᵀdz + 2λw and db = Σdz. A feature column whose mean or spread
    overflows is a NumericError naming it by its entry in `columns`, or
    by its index; so is a fit whose gradient overflows.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or len(x) != len(y):
        raise LabelError(f"features {x.shape} and labels {y.shape} are misaligned")
    if len(x) < 2:
        raise LabelError("probe needs at least 2 examples")
    if task not in ("binary", "regression"):
        raise LabelError(f"unknown probe task {task!r}")
    if not np.isfinite(x).all():
        raise LabelError("probe features must be finite")
    check_labels(y, task)
    if task == "binary" and len(np.unique(y)) < 2:
        raise LabelError("binary probe requires labels {0,1} with both classes present")

    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        mean = x.mean(axis=0)
        std = x.std(axis=0)
    overflow = ~(np.isfinite(mean) & np.isfinite(std))
    if overflow.any():
        j = int(np.argmax(overflow))
        name = repr(columns[j]) if columns is not None else j
        raise NumericError(f"probe feature column {name}: its mean or standard deviation overflows")
    std[std == 0] = 1.0
    xs = (x - mean) / std

    n, d = xs.shape
    params, grad = np.zeros(d + 1), np.empty(d + 1)
    w, dw = params[:d], grad[:d]
    moments = init_moments(params)
    ones = np.ones(n)
    scale = np.asarray(1.0 / n)

    with np.errstate(over="ignore", invalid="ignore"):  # checked after the loop
        for step in range(1, PROBE_STEPS + 1):
            z = xs @ w
            z += params[d]
            if task == "binary":
                dz = logistic_grad(z, y, scale)
            else:
                dz = scale * (z - y)
                dz += dz
            np.matmul(xs.T, dz, out=dw)
            dw += PROBE_L2 * w  # + 2λw, one λw per factor of w∘w
            dw += PROBE_L2 * w
            grad[d] = ones @ dz
            adam_step(params, grad, moments, PROBE_LR, step)
    # a gradient too large to square leaves Adam's second moment at inf, and the weights frozen
    if not (np.isfinite(moments[1]).all() and np.isfinite(params).all()):
        raise NumericError("the probe's fit overflows: its gradient is too large to square "
                           "(is a label too large?)")

    return LinearProbe(task=task, w=w.copy(), b=float(params[d]), feat_mean=mean, feat_std=std)


def auroc(scores, labels):
    """Mann-Whitney AUROC: P(score_pos > score_neg), ties counted 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    check_labels(labels, "binary")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise LabelError("auroc requires both classes present")
    # a tie group holding sorted slots first..last (0-based) shares the rank 0.5(first + last) + 1
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True, equal_nan=False)
    last = np.cumsum(counts) - 1
    first = last - counts + 1
    ranks = (0.5 * (first + last) + 1.0)[group]
    rank_sum_pos = ranks[labels == 1].sum()
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def f1_positive(scores, labels, threshold=0.5):
    """F1 of class 1 at a score threshold; empty denominators give 0."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pred = scores >= threshold
    tp = int((pred & (labels == 1)).sum())
    fp = int((pred & (labels == 0)).sum())
    fn = int((~pred & (labels == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rmse(preds, targets):
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape:
        raise LabelError(f"rmse: shapes {preds.shape} and {targets.shape} differ")
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        value = float(np.sqrt(((preds - targets) ** 2).mean()))
    if not np.isfinite(value):
        raise NumericError(f"rmse is {value}: an error is too large to square")
    return value


@dataclass
class RankingCase:
    ranked_items: list[str]   # descending score order
    relevant: set[str]


def _average_precision(flags):
    hits = 0
    total = 0.0
    for i, rel in enumerate(flags, start=1):
        if rel:
            hits += 1
            total += hits / i
    return total / hits if hits else 0.0


def _dcg(flags, k):
    return sum(rel / np.log2(i + 1) for i, rel in enumerate(flags[:k], start=1))


def ranking_metrics(cases):
    """MAP over the full ranking, Prec@1, Success@5 (count and hit-rate
    readings) and binary-gain NDCG@3, each averaged across cases."""
    if not cases:
        raise CaseError("ranking_metrics needs at least one case")
    ap, p1, s5_count, s5_hit, ndcg3 = [], [], [], [], []
    for case in cases:
        if not case.relevant:
            raise CaseError("ranking case with empty relevant set")
        flags = [1.0 if item in case.relevant else 0.0 for item in case.ranked_items]
        ap.append(_average_precision(flags))
        p1.append(flags[0] if flags else 0.0)
        top5 = sum(flags[:5])
        s5_count.append(top5)
        s5_hit.append(1.0 if top5 > 0 else 0.0)
        ideal = _dcg([1.0] * min(3, len(case.relevant)), 3)
        ndcg3.append(_dcg(flags, 3) / ideal if ideal else 0.0)
    return {
        "map": float(np.mean(ap)),
        "prec_at_1": float(np.mean(p1)),
        "success5_count": float(np.mean(s5_count)),
        "success5_hit": float(np.mean(s5_hit)),
        "ndcg_at_3": float(np.mean(ndcg3)),
    }


def fit_item_projection(item_vectors, entity_vectors):
    """Least-squares map from item space to entity space over aligned pairs."""
    items = np.asarray(item_vectors, dtype=np.float64)
    entities = np.asarray(entity_vectors, dtype=np.float64)
    if len(items) != len(entities):
        raise SchemaMismatch("projection fit needs aligned (item, entity) pairs")
    proj, *_ = np.linalg.lstsq(items, entities, rcond=None)
    return proj


def rank_items(entity_vectors, item_ids, item_vectors, relevant_by_entity, projection=None):
    """Dot-product ranking of items per entity; ties break by item id.

    entity_vectors: dict entity -> vector. Items whose vectors are narrower
    or wider than the entity space need a fitted projection.
    """
    items = np.asarray(item_vectors, dtype=np.float64)
    sample = next(iter(entity_vectors.values()))
    if items.shape[1] != len(sample):
        if projection is None:
            raise SchemaMismatch(
                f"item width {items.shape[1]} != entity width {len(sample)} and no projection fitted")
        items = items @ projection
        if items.shape[1] != len(sample):
            raise SchemaMismatch("projection output width does not match entity vectors")
    cases = []
    for entity in sorted(relevant_by_entity):
        if entity not in entity_vectors:
            raise SchemaMismatch(f"no embedding for entity {entity!r}")
        scores = items @ np.asarray(entity_vectors[entity], dtype=np.float64)
        order = sorted(range(len(item_ids)), key=lambda i: (-scores[i], item_ids[i]))
        cases.append(RankingCase(ranked_items=[item_ids[i] for i in order],
                                 relevant=set(relevant_by_entity[entity])))
    return cases


def write_report_csv(report, fh):
    writer = csv.writer(fh)
    writer.writerow(["metric", "value"])
    for name, value in report.items():
        writer.writerow([name, repr(float(value))])


def format_report(report):
    width = max(len(k) for k in report)
    lines = [f"{name.ljust(width)}  {value:.6f}" for name, value in report.items()]
    return "\n".join(lines)
