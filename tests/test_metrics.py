"""Metrics against hand-computed values."""
import numpy as np
import pytest

from repro.models.metrics import (
    auc_score,
    macro_f1,
    metric_name,
    rmse,
    task_loss,
)


class TestAUC:
    def test_perfect(self):
        assert auc_score([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_inverted(self):
        assert auc_score([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_random_half(self):
        assert auc_score([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_hand_computed(self):
        # pairs: (0.3>0.2)=1, (0.3>0.4)=0, (0.7>0.2)=1, (0.7>0.4)=1 → 3/4
        assert auc_score([0, 1, 0, 1], [0.2, 0.3, 0.4, 0.7]) == pytest.approx(0.75)

    def test_ties_give_half_credit(self):
        assert auc_score([0, 1], [0.5, 0.5]) == pytest.approx(0.5)

    def test_degenerate_single_class(self):
        assert auc_score([1, 1, 1], [0.1, 0.5, 0.9]) == 0.5

    def test_invariant_to_monotone_transform(self):
        y = np.array([0, 1, 0, 1, 1, 0])
        s = np.array([0.1, 0.8, 0.3, 0.7, 0.9, 0.2])
        assert auc_score(y, s) == pytest.approx(auc_score(y, s * 10 - 3))


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1([0, 1, 2], [0, 1, 2]) == 1.0

    def test_hand_computed_binary(self):
        # class0: tp=1 fp=1 fn=0 → f1=2/3; class1: tp=1 fp=0 fn=1 → f1=2/3
        assert macro_f1([0, 1, 1], [0, 0, 1]) == pytest.approx(2 / 3)

    def test_missing_class_in_pred(self):
        # class 2 never predicted → f1_2 = 0
        got = macro_f1([0, 1, 2], [0, 1, 1])
        assert got == pytest.approx((1.0 + 2 / 3 + 0.0) / 3)

    def test_only_true_classes_averaged(self):
        # predicted class 5 is not in y_true → not part of the macro average
        assert macro_f1([0, 0], [0, 5]) == pytest.approx(2 / 3)


class TestRMSE:
    def test_zero(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_computed(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))


class TestTaskPlumbing:
    class _Stub:
        def predict_proba(self, X):
            p = np.full(len(X), 0.8)
            return np.column_stack([1 - p, p])

        def predict(self, X):
            return np.zeros(len(X))

    def test_binary_loss_is_one_minus_auc(self):
        m = self._Stub()
        X = np.zeros((4, 1))
        assert task_loss("binary", np.array([0, 1, 0, 1]), m, X) == pytest.approx(0.5)

    def test_regression_loss_is_rmse(self):
        m = self._Stub()
        assert task_loss("regression", np.array([1.0, -1.0]), m, np.zeros((2, 1))) == pytest.approx(1.0)

    @pytest.mark.parametrize("task,name", [("binary", "AUC"), ("multiclass", "F1"),
                                           ("regression", "RMSE")])
    def test_metric_name(self, task, name):
        assert metric_name(task) == name

    def test_unknown_task_raises(self):
        with pytest.raises(ValueError):
            task_loss("ranking", np.array([1]), self._Stub(), np.zeros((1, 1)))
