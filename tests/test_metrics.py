import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caspr.errors import CaseError, LabelError, SchemaMismatch
from caspr.metrics import (
    RankingCase,
    auroc,
    f1_positive,
    fit_item_projection,
    rank_items,
    ranking_metrics,
    rmse,
    train_linear_probe,
)


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
