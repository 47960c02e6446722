from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from caspr import autodiff as ad
from caspr import metrics
from caspr.autodiff import adam_step, init_moments
from caspr.errors import CaseError, LabelError, NumericError, SchemaMismatch
from caspr.metrics import (
    RankingCase,
    auroc,
    f1_positive,
    fit_item_projection,
    logistic_grad,
    rank_items,
    ranking_metrics,
    rmse,
    train_linear_probe,
)


def reference_probe(features, labels, task):
    """The probe before its binary step became one logistic kernel, as the oracle.

    The binary loss is 2-class cross-entropy on logits [0, z] through the
    general autodiff kernel, and the weight is a (d, 1) column. Returns
    (w, b, feat_mean, feat_std); inputs are assumed valid.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0] = 1.0
    xs = (x - mean) / std

    n, d = xs.shape
    params = np.zeros(d + 1)
    w, b = params[:d].reshape(d, 1), params[d:]
    moments = init_moments(params)
    scale = np.asarray(1.0 / n)
    ones = np.ones(n)
    yt, codes = y.reshape(-1, 1), y.astype(np.intp)

    for step in range(1, metrics.PROBE_STEPS + 1):
        z = xs @ w
        z += b
        if task == "binary":
            _, dlogits = ad.cross_entropy(np.concatenate([np.zeros_like(z), z], axis=1), codes, ones, scale)
            dz = np.ascontiguousarray(dlogits[:, 1:])
        else:
            _, dz = ad.squared_error(z, yt, ones[:, None], scale)
        dw = xs.T @ dz
        dw += metrics.PROBE_L2 * w
        dw += metrics.PROBE_L2 * w
        adam_step(params, np.concatenate([dw[:, 0], ones @ dz]), moments, metrics.PROBE_LR, step)

    return w[:, 0].copy(), float(b[0]), mean, std


def bits(*arrays):
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


@st.composite
def probe_inputs(draw):
    """(features, labels, task): 2-200 rows, 1-20 columns, some constant, some of few tied values."""
    n, d = draw(st.integers(2, 200)), draw(st.integers(1, 20))
    task = draw(st.sampled_from(["binary", "regression"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["normal", "tied", "constant"]), min_size=d, max_size=d)):
        size = 10.0 ** draw(st.integers(-6, 6))
        if kind == "normal":
            columns.append(rng.normal(draw(st.floats(-10, 10)), size, n))
        elif kind == "tied":
            columns.append(rng.choice(rng.normal(0.0, size, 3), n))
        else:
            columns.append(np.full(n, draw(st.floats(-1e6, 1e6))))
    x = np.stack(columns, axis=1)
    if task == "binary":
        y = rng.integers(0, 2, n).astype(np.float64)
        y[:2] = [0.0, 1.0]
    else:
        y = rng.normal(0.0, 10.0 ** draw(st.integers(-3, 3)), n)
    return x, y, task


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_give_half(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_four_point_fixture(self):
        assert abs(auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) - 0.75) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(LabelError):
            auroc([0.1, 0.2], [1, 1])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 40))
    def test_monotone_transform_invariance(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = auroc(scores, labels)
        assert abs(auroc(np.exp(scores), labels) - base) < 1e-12
        assert abs(auroc(3.0 * scores + 7.0, labels) - base) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 40))
    def test_negation_complement_without_ties(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.permutation(np.arange(n)).astype(float)  # distinct scores
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert abs(auroc(scores, labels) + auroc(-scores, labels) - 1.0) < 1e-12


    @pytest.mark.parametrize("bad", [2.0, 0.5, -1.0, np.inf, np.nan])
    def test_labels_outside_zero_one_rejected(self, bad):
        with pytest.raises(LabelError):
            auroc([0.1, 0.2, 0.3, 0.4], [0.0, 1.0, 0.0, bad])


class TestF1:
    def test_perfect_predictions(self):
        assert f1_positive([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_no_predicted_positives(self):
        assert f1_positive([0.1, 0.2, 0.3], [1, 1, 0]) == 0.0

    def test_half_precision_full_recall(self):
        # one true positive found plus one false positive: P=0.5, R=1.0
        scores = [0.9, 0.9, 0.1]
        labels = [1, 0, 0]
        assert abs(f1_positive(scores, labels) - 2.0 / 3.0) < 1e-12

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = rng.random(10)
            l = rng.integers(0, 2, size=10)
            assert 0.0 <= f1_positive(s, l) <= 1.0


class TestRmse:
    def test_zero_for_equal(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_constant_error(self):
        assert abs(rmse([3.0, 5.0], [1.0, 3.0]) - 2.0) < 1e-12

    def test_fixture(self):
        assert abs(rmse([1.0, 2.0], [3.0, 2.0]) - np.sqrt(2.0)) < 1e-12


class TestRankingMetrics:
    def test_single_relevant_at_rank_one(self):
        case = RankingCase(ranked_items=["a", "b", "c", "d", "e"], relevant={"a"})
        report = ranking_metrics([case])
        assert report["map"] == 1.0
        assert report["prec_at_1"] == 1.0
        assert report["success5_count"] == 1.0
        assert report["success5_hit"] == 1.0
        assert report["ndcg_at_3"] == 1.0

    def test_ndcg_fixture_101(self):
        case = RankingCase(ranked_items=["a", "b", "c"], relevant={"a", "c"})
        report = ranking_metrics([case])
        expected = (1.0 + 0.5) / (1.0 + 1.0 / np.log2(3.0))
        assert abs(report["ndcg_at_3"] - expected) < 1e-9
        assert abs(report["ndcg_at_3"] - 0.9197) < 1e-4

    def test_success5_count_can_exceed_one(self):
        case = RankingCase(ranked_items=["a", "b", "c", "d", "e", "f"],
                           relevant={"a", "b", "c"})
        report = ranking_metrics([case])
        assert report["success5_count"] == 3.0
        assert report["success5_hit"] == 1.0

    def test_empty_relevant_set_rejected(self):
        with pytest.raises(CaseError):
            ranking_metrics([RankingCase(ranked_items=["a"], relevant=set())])

    def test_ranges(self):
        rng = np.random.default_rng(2)
        cases = []
        for _ in range(25):
            items = [f"i{j}" for j in range(10)]
            rng.shuffle(items)
            rel = set(rng.choice(items, size=int(rng.integers(1, 5)), replace=False))
            cases.append(RankingCase(ranked_items=items, relevant=rel))
        report = ranking_metrics(cases)
        for key in ("map", "prec_at_1", "ndcg_at_3", "success5_hit"):
            assert 0.0 <= report[key] <= 1.0
        assert 0.0 <= report["success5_count"] <= 5.0

    def test_front_loaded_ranking_dominates_reversed(self):
        items = [f"i{j}" for j in range(8)]
        rel = {"i0", "i1", "i2"}
        best = ranking_metrics([RankingCase(items, rel)])
        worst = ranking_metrics([RankingCase(items[::-1], rel)])
        for key in ("map", "prec_at_1", "success5_count", "ndcg_at_3"):
            assert worst[key] <= best[key]


class TestRankItems:
    def test_matching_vector_ranks_first(self):
        entity_vecs = {"e": np.array([1.0, 0.0, 0.0])}
        items = np.eye(3)
        cases = rank_items(entity_vecs, ["a", "b", "c"], items, {"e": ["a"]})
        assert cases[0].ranked_items[0] == "a"

    def test_identical_items_rank_by_id(self):
        entity_vecs = {"e": np.array([1.0, 1.0])}
        items = np.ones((3, 2))
        cases = rank_items(entity_vecs, ["z", "a", "m"], items, {"e": ["a"]})
        assert cases[0].ranked_items == ["a", "m", "z"]

    def test_hand_fixture_order(self):
        entity_vecs = {"e": np.array([2.0, 1.0])}
        items = np.array([[1.0, 0.0], [0.0, 3.0], [1.0, 1.0]])  # scores 2, 3, 3
        cases = rank_items(entity_vecs, ["p", "q", "r"], items, {"e": ["q"]})
        assert cases[0].ranked_items == ["q", "r", "p"]

    def test_width_mismatch_requires_projection(self):
        entity_vecs = {"e": np.array([1.0, 0.0, 0.0])}
        items = np.eye(2)
        with pytest.raises(SchemaMismatch):
            rank_items(entity_vecs, ["a", "b"], items, {"e": ["a"]})

    def test_projection_aligns_widths(self):
        rng = np.random.default_rng(3)
        proj_true = rng.normal(size=(2, 4))
        items2 = rng.normal(size=(6, 2))
        entities = {f"e{i}": items2[i] @ proj_true for i in range(6)}
        projection = fit_item_projection(items2, np.array([entities[f"e{i}"] for i in range(6)]))
        cases = rank_items(entities, [f"i{j}" for j in range(6)], items2,
                           {f"e{i}": [f"i{i}"] for i in range(6)}, projection)
        assert len(cases) == 6


class TestLinearProbe:
    def test_separable_two_points(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        probe = train_linear_probe(x, y, "binary")
        scores = probe.scores(x)
        assert (scores[y == 1] > 0.0).all() and (scores[y == 0] < 0.0).all()

    def test_constant_labels_rejected(self):
        with pytest.raises(LabelError):
            train_linear_probe(np.zeros((4, 2)), np.ones(4), "binary")

    def test_uninformative_features_predict_base_rate(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(200, 3))
        y = (rng.random(200) < 0.5).astype(float)
        probe = train_linear_probe(x, y, "binary")
        probs = 1.0 / (1.0 + np.exp(-probe.scores(x)))
        assert abs(probs.mean() - y.mean()) < 0.05

    def test_regression_recovers_line(self):
        x = np.arange(8.0).reshape(-1, 1)
        y = 2.0 * x[:, 0] + 1.0
        probe = train_linear_probe(x, y, "regression")
        coef, intercept = probe.coefficients()
        np.testing.assert_allclose(coef, [2.0], atol=1e-3)
        np.testing.assert_allclose(intercept, 1.0, atol=1e-3)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 4))
        y = (x[:, 0] > 0).astype(float)
        p1 = train_linear_probe(x, y, "binary")
        p2 = train_linear_probe(x, y, "binary")
        np.testing.assert_array_equal(p1.w, p2.w)
        assert p1.b == p2.b

    @pytest.mark.parametrize("task", ["binary", "regression"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["features", "labels"])
    def test_non_finite_inputs_rejected(self, task, bad, where):
        x = np.random.default_rng(0).normal(size=(8, 2))
        y = np.array([0.0, 1.0] * 4)
        if where == "features":
            x[3, 1] = bad
        else:
            y[3] = bad
        with pytest.raises(LabelError):
            train_linear_probe(x, y, task)

    @settings(max_examples=60, deadline=None)
    @given(probe_inputs(), st.integers(1, 12))
    @example((np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), "binary"), 600)
    @example((np.arange(8.0).reshape(-1, 1), 2.0 * np.arange(8.0) + 1.0, "regression"), 600)
    def test_equals_the_cross_entropy_probe_bit_for_bit(self, inputs, steps):
        x, y, task = inputs
        with mock.patch.object(metrics, "PROBE_STEPS", steps):
            probe = train_linear_probe(x, y, task)
            want = reference_probe(x, y, task)
        assert bits(probe.w, probe.b, probe.feat_mean, probe.feat_std) == bits(*want)

    @pytest.mark.parametrize("task", ["binary", "regression"])
    def test_overflowing_mean_or_spread_is_numeric_error(self, task):
        x = np.array([[1.0, 1e308], [2.0, 9e307]] * 4)
        with pytest.raises(NumericError, match="column 1:"):
            train_linear_probe(x, np.array([0.0, 1.0] * 4), task)
        with pytest.raises(NumericError, match="column 'big':"):
            train_linear_probe(x, np.array([0.0, 1.0] * 4), task, columns=["small", "big"])


class TestLogisticGrad:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(-700.0, 700.0), st.sampled_from([0.0, -0.0, 700.0, -700.0, 1e-300])),
                    min_size=1, max_size=64),
           st.integers(0, 2 ** 32 - 1))
    def test_is_the_z_column_of_cross_entropy_on_zero_z(self, z, seed):
        z = np.array(z)
        y = np.random.default_rng(seed).integers(0, 2, len(z)).astype(np.float64)
        scale = np.asarray(1.0 / len(z))  # as the probe passes them: unit weights, scale 1/n
        _, want = ad.cross_entropy(np.stack([np.zeros_like(z), z], axis=1), y.astype(np.intp), np.ones(len(z)), scale)
        assert bits(logistic_grad(z, y, scale)) == bits(np.ascontiguousarray(want[:, 1]))

    def test_matches_the_logistic_derivative(self):
        z = np.array([-30.0, -2.0, 0.0, 0.5, 40.0])
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        np.testing.assert_allclose(logistic_grad(z, y, 0.5), 0.5 * (1.0 / (1.0 + np.exp(-z)) - y), atol=1e-15)


def test_rmse_that_overflows_is_numeric_error():
    with pytest.raises(NumericError, match="too large to square"):
        rmse([1e200, 0.0], [-1e200, 0.0])
