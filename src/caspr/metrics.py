"""Downstream evaluation: a deterministic linear probe plus classification,
regression and ranking metrics.

The probe standardizes its inputs, then solves for the minimum of a convex
objective: the mean logistic or squared loss plus 1e-4·‖w‖², with the bias
unpenalized. One damped-Newton loop serves both tasks, so the fit is the
optimum itself, not wherever an optimizer stopped, and probe quality
reflects only the representation it is fed.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import CaseError, LabelError, NumericError, SchemaMismatch

PROBE_L2 = 1e-4
PROBE_MAX_ITER = 100     # Newton iterations; a binary fit on 1400 × 16 features takes 5
F1_THRESHOLD = 0.5       # a probability at or above it predicts class 1


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


def train_linear_probe(features, labels, task, columns=None):
    """Fit the probe by damped Newton on its objective, with weights and bias as one θ.

    Each iteration solves the (d+1)² Newton system and halves the step until
    the objective stops rising; regression's objective is quadratic, so its
    first step is exact. A feature column whose mean or spread overflows is
    a NumericError naming it by its entry in `columns`, or by its index; so
    is a label too large to square.
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

    n, d = x.shape
    xs1 = np.hstack([(x - mean) / std, np.ones((n, 1))])  # z = xs1·θ: the bias is θ's last entry
    pen = np.append(np.full(d, 2.0 * PROBE_L2), 0.0)  # the Hessian of λ‖w‖²; the bias is not penalized

    def objective(theta):
        z = xs1 @ theta
        loss = np.logaddexp(0.0, z) - y * z if task == "binary" else np.square(z - y)
        return loss.mean() + 0.5 * theta @ (pen * theta)

    def newton_step(theta):
        """(H⁻¹g, g): the gradient g and Hessian H of the objective at θ."""
        z = xs1 @ theta
        if task == "binary":
            softplus = np.logaddexp(0.0, z)  # −log(1 − σ(z)), so σ(z) = exp(z − softplus)
            r, s = np.exp(z - softplus) - y, np.exp(z - 2.0 * softplus)
        else:
            r, s = 2.0 * (z - y), np.full(n, 2.0)
        grad = xs1.T @ r / n + pen * theta
        hess = (xs1.T * s) @ xs1 / n + np.diag(pen)
        return np.linalg.lstsq(hess, grad, rcond=None)[0], grad  # not solve: if every row saturates, H is singular

    theta = np.zeros(d + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a trial that overflows is never taken
        value = objective(theta)
        if not np.isfinite(value):
            raise NumericError("the probe's objective overflows: a label is too large to square")
        for _ in range(PROBE_MAX_ITER):
            step, grad = newton_step(theta)
            if grad @ step <= 1e-12 * value:  # the objective is within rounding of its minimum:
                theta -= step                 # one full step puts the gradient there too
                break
            for t in 0.5 ** np.arange(53):  # halve down to the last bit of the step
                trial = theta - t * step
                trial_value = objective(trial)
                if trial_value <= value:
                    break
            if not trial_value < value:  # no step lowers the objective
                break
            theta, value = trial, trial_value

    return LinearProbe(task=task, w=theta[:d].copy(), b=float(theta[d]), feat_mean=mean, feat_std=std)


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


def f1_positive(scores, labels):
    """F1 of class 1 at F1_THRESHOLD; empty denominators give 0."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pred = scores >= F1_THRESHOLD
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
