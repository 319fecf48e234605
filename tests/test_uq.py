"""Entropy, coherence, confidence score, and MC-Dropout inference."""

import math

import numpy as np
import pytest

from murmurkit.errors import ConfigError, DomainError
from murmurkit.nn import Network, build_model
from murmurkit.nn import layers as L
from murmurkit.uq import (
    ConfidencePolicy,
    coherence,
    confidence_score,
    entropy,
    mcd_predict_batch,
    select_confident,
)


class TestEntropy:
    def test_uniform_is_one(self):
        assert entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_is_zero(self):
        assert entropy([1.0, 0.0]) == 0.0
        assert entropy([0.0, 1.0]) == 0.0

    def test_nine_tenths(self):
        expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1)) / math.log(2)
        assert entropy([0.9, 0.1]) == pytest.approx(expected, abs=1e-12)
        assert entropy([0.9, 0.1]) == pytest.approx(0.4690, abs=1e-3)


class TestCoherence:
    def test_unanimous(self):
        assert coherence([1] * 10) == 1.0
        assert coherence([0] * 10) == 1.0

    def test_even_split(self):
        assert coherence([0] * 5 + [1] * 5) == 0.0

    def test_eight_two_split(self):
        assert coherence([1] * 8 + [0] * 2) == pytest.approx(0.36, abs=1e-12)

    def test_non_binary_rejected(self):
        with pytest.raises(DomainError):
            coherence([0, 1, 2])

    def test_too_short(self):
        with pytest.raises(ConfigError):
            coherence([1])


class TestConfidenceScore:
    def test_fully_confident(self):
        assert confidence_score(0.0, 1.0) == 1.0

    def test_fully_uncertain(self):
        assert confidence_score(1.0, 0.0) == 0.0

    def test_mixed(self):
        assert confidence_score(0.4690, 0.36, alpha=0.5) == pytest.approx(0.4455, abs=1e-3)

    def test_alpha_weighting(self):
        assert confidence_score(0.2, 0.4, alpha=1.0) == pytest.approx(0.8)
        assert confidence_score(0.2, 0.4, alpha=0.0) == pytest.approx(0.4)

    def test_domain_validation(self):
        with pytest.raises(ConfigError):
            confidence_score(1.2, 0.5)


@pytest.fixture(scope="module")
def light_net():
    return build_model("light", seed=0)


def _x(seed=0):
    return np.random.default_rng(seed).standard_normal((1, 33, 124)).astype(np.float32)


def _mcd_one(net, x, **kwargs):
    """MC-Dropout on one segment as a one-row batch."""
    return mcd_predict_batch(net, x[None], **kwargs)[0]


class TestMcdPredict:
    def test_deterministic_given_seed(self, light_net):
        a = _mcd_one(light_net, _x(), n=10, seed=42)
        b = _mcd_one(light_net, _x(), n=10, seed=42)
        assert np.array_equal(a.pass_probs, b.pass_probs)
        assert a.entropy == b.entropy and a.confidence == b.confidence

    def test_seed_does_not_touch_deterministic_pass(self, light_net):
        a = _mcd_one(light_net, _x(), n=5, seed=1)
        b = _mcd_one(light_net, _x(), n=5, seed=2)
        assert np.array_equal(a.deterministic_probs, b.deterministic_probs)
        assert not np.array_equal(a.pass_probs, b.pass_probs)

    def test_pass_count(self, light_net):
        r = _mcd_one(light_net, _x(), n=10, seed=0)
        assert r.n_passes == 10
        assert r.pass_preds.shape == (10,)
        assert r.pass_probs.shape == (10, 2)

    def test_zero_dropout_collapses_to_deterministic(self):
        net = build_model("light", seed=1)
        for l in net.layers:
            if isinstance(l, L.Dropout):
                l.p = 0.0
        r = _mcd_one(net, _x(3), n=6, seed=0)
        assert r.coherence == 1.0
        for row in r.pass_probs:
            np.testing.assert_allclose(row, r.deterministic_probs, atol=1e-6)

    def test_n_below_two_rejected(self, light_net):
        with pytest.raises(ConfigError):
            _mcd_one(light_net, _x(), n=1, seed=0)

    def test_rows_sum_to_one(self, light_net):
        r = _mcd_one(light_net, _x(5), n=10, seed=3)
        np.testing.assert_allclose(r.pass_probs.sum(axis=1), 1.0, atol=1e-6)
        assert 0.0 <= r.entropy <= 1.0
        assert 0.0 <= r.coherence <= 1.0
        assert 0.0 <= r.confidence <= 1.0

    def test_entropy_mode_switch(self, light_net):
        a = _mcd_one(light_net, _x(7), n=10, seed=5, entropy_mode="entropy_of_mean")
        b = _mcd_one(light_net, _x(7), n=10, seed=5, entropy_mode="mean_of_entropies")
        assert np.array_equal(a.pass_probs, b.pass_probs)
        assert 0.0 <= b.entropy <= 1.0

    @pytest.mark.parametrize(
        "kwargs", [{"entropy_mode": "entropy"}, {"alpha": 1.5}, {"alpha": float("nan")}]
    )
    def test_bad_scoring_arguments_rejected_before_any_layer_runs(self, light_net, monkeypatch, kwargs):
        calls = []
        conv_forward = L.Conv3x3.forward

        def spy(self, *args, **kw):
            calls.append(self)
            return conv_forward(self, *args, **kw)

        monkeypatch.setattr(L.Conv3x3, "forward", spy)
        for stack in (np.zeros((0, 1, 33, 124), np.float32), np.stack([_x(0), _x(1)])):
            with pytest.raises(ConfigError):
                mcd_predict_batch(light_net, stack, n=10, seed=0, **kwargs)
        assert calls == []

    @pytest.mark.parametrize("segments", [1, 4])
    def test_one_eval_forward_then_one_mcd_forward_per_segment(self, light_net, monkeypatch, segments):
        # The benchmark's trace counts these calls and their rows. Each
        # segment runs alone, so no forward sees another segment's rows.
        calls = []
        forward = Network.forward

        def spy(self, x, mode="eval", *args, **kw):
            calls.append((len(x), mode))
            return forward(self, x, mode, *args, **kw)

        monkeypatch.setattr(Network, "forward", spy)
        mcd_predict_batch(light_net, np.stack([_x(i) for i in range(segments)]), n=7, seed=0)
        assert calls == [(1, "eval"), (7, "mcd")] * segments

    def test_batch_matches_shapes(self, light_net):
        inputs = np.stack([_x(i) for i in range(4)])
        results = mcd_predict_batch(light_net, inputs, n=5, seed=9)
        assert len(results) == 4
        singles = mcd_predict_batch(light_net, inputs[:1], n=5, seed=9)
        np.testing.assert_allclose(
            results[0].pass_probs, singles[0].pass_probs, atol=1e-7
        )  # per-sample streams: independent of batch composition


class TestSelectConfident:
    def _results(self, confidences):
        out = []
        for c in confidences:
            out.append(
                type(
                    "R",
                    (),
                    {"confidence": c, "deterministic_probs": np.array([1.0 - c, c])},
                )()
            )
        return out

    def test_all_kept(self):
        kept, ratio = select_confident(self._results([0.9, 0.95, 0.85]), ConfidencePolicy())
        assert kept == [0, 1, 2]
        assert ratio == 1.0

    def test_half_kept(self):
        kept, ratio = select_confident(self._results([0.9, 0.7, 0.5, 0.9]), ConfidencePolicy())
        assert kept == [0, 3]
        assert ratio == 0.5

    def test_none_kept(self):
        kept, ratio = select_confident(self._results([0.2, 0.3]), ConfidencePolicy())
        assert kept == []
        assert ratio == 0.0

    def test_boundary_inclusive(self):
        kept, _ = select_confident(self._results([0.8]), ConfidencePolicy())
        assert kept == [0]

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            ConfidencePolicy(cs_threshold=1.5)

    def test_permutation_permutes_indices(self):
        confidences = [0.9, 0.3, 0.85, 0.1, 0.95]
        results = self._results(confidences)
        kept, _ = select_confident(results, ConfidencePolicy())
        perm = [4, 2, 0, 3, 1]
        kept_perm, _ = select_confident([results[i] for i in perm], ConfidencePolicy())
        assert sorted(perm[i] for i in kept_perm) == kept


class TestScoreProperties:
    def test_ranges_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            p = rng.dirichlet([1.0, 1.0])
            e = entropy(p)
            preds = rng.integers(0, 2, size=10)
            c = coherence(preds)
            cs = confidence_score(e, c, alpha=float(rng.random()))
            assert 0.0 <= e <= 1.0
            assert 0.0 <= c <= 1.0
            assert 0.0 <= cs <= 1.0

    def test_cs_monotone_in_e_and_c(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            e1, e2 = sorted(rng.random(2))
            c = float(rng.random())
            assert confidence_score(e1, c) >= confidence_score(e2, c)
            c1, c2 = sorted(rng.random(2))
            e = float(rng.random())
            assert confidence_score(e, c2) >= confidence_score(e, c1)
