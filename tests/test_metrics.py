"""Binary metrics, patient-level folds, and the Mann-Whitney U test."""

import itertools
import math

import numpy as np
import pytest

from murmurkit.errors import ConfigError, ShapeError
from murmurkit.metrics import (
    binary_metrics,
    mann_whitney_u,
    patient_kfold,
)
from murmurkit.metrics import _exact_two_sided_p, _midranks, _normal_two_sided_p


class TestBinaryMetrics:
    def test_perfect(self):
        m = binary_metrics([1, 0, 1, 0], [1, 0, 1, 0])
        assert m.accuracy == 1.0 and m.f1 == 1.0

    def test_all_absent_predictions(self):
        m = binary_metrics([0, 0, 0, 0], [1, 1, 0, 0])
        assert m.recall == 0.0 and m.precision == 0.0 and m.f1 == 0.0
        assert m.accuracy == 0.5

    def test_table_shaped_confusion(self):
        pred = [1] * 79 + [1] * 19 + [0] * 20 + [0] * 874
        true = [1] * 79 + [0] * 19 + [1] * 20 + [0] * 874
        m = binary_metrics(pred, true)
        assert m.tp == 79 and m.fp == 19 and m.fn == 20 and m.tn == 874
        assert m.recall == pytest.approx(0.798, abs=1e-3)
        assert m.precision == pytest.approx(0.806, abs=1e-3)

    def test_f1_harmonic_mean(self):
        m = binary_metrics([1, 1, 0], [1, 0, 1])
        expected = 2 * m.precision * m.recall / (m.precision + m.recall)
        assert m.f1 == pytest.approx(expected)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 2, 50)
        true = rng.integers(0, 2, 50)
        base = binary_metrics(pred, true)
        perm = rng.permutation(50)
        shuffled = binary_metrics(pred[perm], true[perm])
        assert base == shuffled

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            binary_metrics([1, 0], [1])

    def test_empty(self):
        with pytest.raises(ShapeError):
            binary_metrics([], [])


class TestPatientKfold:
    def test_even_folds(self):
        ids = [f"p{i}" for i in range(10)]
        fa = patient_kfold(ids, k=5, seed=0)
        sizes = sorted(len(f) for f in fa.folds())
        assert sizes == [2, 2, 2, 2, 2]

    def test_deterministic(self):
        ids = [f"p{i}" for i in range(23)]
        assert patient_kfold(ids, 5, seed=3).assignment == patient_kfold(ids, 5, seed=3).assignment

    def test_874_patients(self):
        ids = [f"p{i}" for i in range(874)]
        sizes = sorted(len(f) for f in patient_kfold(ids, k=5, seed=1).folds())
        assert sizes == [174, 175, 175, 175, 175]

    def test_partition(self):
        ids = [f"p{i}" for i in range(17)]
        fa = patient_kfold(ids, k=5, seed=2)
        all_ids = [pid for fold in fa.folds() for pid in fold]
        assert sorted(all_ids) == sorted(ids)

    def test_too_few_patients(self):
        with pytest.raises(ConfigError):
            patient_kfold(["a", "b"], k=5)

    def test_duplicate_ids(self):
        with pytest.raises(ConfigError):
            patient_kfold(["a", "a", "b", "c", "d"], k=2)

    @pytest.mark.parametrize("k", [1, 0, -1])
    def test_fewer_than_two_folds_rejected(self, k):
        with pytest.raises(ConfigError, match="k must be >= 2"):
            patient_kfold(["a", "b", "c", "d"], k=k)


def _oracle_exact_p(a, b):
    """Independent enumeration oracle over all group assignments."""
    pooled = list(a) + list(b)
    n, n_a = len(pooled), len(a)
    ranks = _midranks(np.asarray(pooled, dtype=float))

    def u_of(indices):
        return sum(ranks[i] for i in indices) - n_a * (n_a + 1) / 2

    mu = n_a * (n - n_a) / 2
    u_obs = u_of(range(n_a))
    dev = abs(u_obs - mu)
    hits = total = 0
    for combo in itertools.combinations(range(n), n_a):
        total += 1
        if abs(u_of(combo) - mu) >= dev - 1e-12:
            hits += 1
    return u_obs, hits / total


class TestMannWhitney:
    def test_identical_multisets(self):
        a = [1.0, 2.0, 3.0]
        u, p = mann_whitney_u(a, a)
        assert u == 4.5  # n^2 / 2
        assert p >= 0.9

    def test_fully_separated(self):
        u, p = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert u == 0.0
        assert p == pytest.approx(0.1, abs=1e-12)  # 2 of C(6,3)=20 arrangements

    def test_all_ties(self):
        u, p = mann_whitney_u([1, 1, 1], [1, 1, 1])
        assert u == 4.5
        assert p == 1.0

    def test_u_sum_property_random(self):
        # 10^4 inputs through the U computation (the same midrank path the
        # public function uses), plus a 500-case subsample through the full
        # function so both p-value branches see the property too.
        from murmurkit.metrics import _u_statistic

        rng = np.random.default_rng(0)
        for i in range(10_000):
            n_a = int(rng.integers(1, 12))
            n_b = int(rng.integers(1, 12))
            vals = rng.integers(0, 6, n_a + n_b).astype(float)  # many ties
            ranks = _midranks(vals)
            u_a = _u_statistic(ranks[:n_a], n_a)
            u_b = _u_statistic(ranks[n_a:], n_b)
            assert u_a + u_b == pytest.approx(n_a * n_b, abs=1e-9)
            if i < 500:
                ua_full, _ = mann_whitney_u(vals[:n_a], vals[n_a:])
                ub_full, _ = mann_whitney_u(vals[n_a:], vals[:n_a])
                assert ua_full == u_a
                assert ua_full + ub_full == pytest.approx(n_a * n_b, abs=1e-9)

    def test_symmetry_of_p(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.standard_normal(rng.integers(2, 10))
            b = rng.standard_normal(rng.integers(2, 10))
            _, p_ab = mann_whitney_u(a, b)
            _, p_ba = mann_whitney_u(b, a)
            assert p_ab == pytest.approx(p_ba, abs=1e-12)
            assert 0.0 < p_ab <= 1.0

    def test_exact_agreement_all_tie_free_patterns(self):
        # All interleavings of tie-free samples with n_a, n_b <= 4, checked
        # against an independent enumeration oracle.
        for n_a in range(1, 5):
            for n_b in range(1, 5):
                n = n_a + n_b
                for positions in itertools.combinations(range(n), n_a):
                    values = list(range(1, n + 1))
                    a = [float(values[i]) for i in positions]
                    b = [float(values[i]) for i in range(n) if i not in positions]
                    u, p = mann_whitney_u(a, b)
                    u_expect, p_expect = _oracle_exact_p(a, b)
                    assert u == pytest.approx(u_expect, abs=1e-12)
                    assert p == pytest.approx(p_expect, abs=1e-12)

    def test_exact_vs_normal_tie_free(self):
        # Branch agreement within 0.02 absolute p for tie-free sizes 6-8.
        rng = np.random.default_rng(2)
        for _ in range(60):
            n_a = int(rng.integers(6, 9))
            n_b = int(rng.integers(6, 9))
            vals = rng.permutation(n_a + n_b).astype(float)
            a, b = vals[:n_a], vals[n_a:]
            pooled = np.concatenate([a, b])
            ranks = _midranks(pooled)
            u = float(ranks[:n_a].sum() - n_a * (n_a + 1) / 2)
            p_exact = _exact_two_sided_p(ranks, n_a, u)
            p_norm = _normal_two_sided_p(u, n_a, n_b, pooled)
            assert abs(p_exact - p_norm) < 0.02

    def test_large_sample_normal_branch(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(40)
        b = rng.standard_normal(40) + 2.0
        u, p = mann_whitney_u(a, b)
        assert p < 1e-6  # clearly separated
        assert 0.0 < p <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            mann_whitney_u([], [1.0])
