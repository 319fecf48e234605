"""Variant construction: parameter counts, shapes, determinism, weights I/O."""

import tracemalloc

import numpy as np
import pytest

from murmurkit import resources
from murmurkit.errors import ConfigError, ParseError, ShapeError, StateError
from murmurkit.nn import (
    LayerKind,
    Variant,
    build_model,
    load_network,
    save_network,
    variant_specs,
)
from murmurkit.nn import layers as L

EXPECTED_PARAMS = {Variant.LIGHT: 23_426, Variant.BASELINE: 388_354, Variant.HEAVY: 2_325_442}


class TestBuildModel:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_parameter_counts(self, variant):
        net = build_model(variant, seed=0)
        total = sum(p.value.size for p in net.parameters())
        assert total == EXPECTED_PARAMS[variant]
        assert resources.count_params(net) == EXPECTED_PARAMS[variant]

    @pytest.mark.parametrize("variant", list(Variant))
    def test_param_shapes_match_the_built_parameters(self, variant):
        net = build_model(variant, seed=0)
        want = [p.value.shape for p in net.parameters()]
        assert [shape for s in net.specs for shape in s.param_shapes] == want

    def test_light_stack_structure(self):
        kinds = [s.kind for s in variant_specs(Variant.LIGHT)]
        assert kinds == [
            LayerKind.CONV3X3, LayerKind.RELU, LayerKind.DROPOUT, LayerKind.MAXPOOL2X2,
            LayerKind.CONV3X3, LayerKind.RELU, LayerKind.DROPOUT, LayerKind.MAXPOOL2X2,
            LayerKind.CONV3X3, LayerKind.RELU, LayerKind.DROPOUT, LayerKind.GLOBAL_AVG_POOL,
            LayerKind.LINEAR, LayerKind.SOFTMAX,
        ]

    def test_heavy_has_seven_convs(self):
        kinds = [s.kind for s in variant_specs(Variant.HEAVY)]
        assert kinds.count(LayerKind.CONV3X3) == 7
        assert kinds.count(LayerKind.MAXPOOL2X2) == 3

    def test_dropout_p(self):
        for spec in variant_specs(Variant.BASELINE):
            if spec.kind is LayerKind.DROPOUT:
                assert spec.p == 0.1

    def test_biases_zero_weights_nonzero(self):
        net = build_model("light", seed=3)
        for p in net.parameters():
            if p.name.endswith(".b"):
                assert np.all(p.value == 0)
            else:
                assert np.any(p.value != 0)

    def test_same_seed_same_weights(self):
        a = build_model("baseline", seed=11)
        b = build_model("baseline", seed=11)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.value, pb.value)

    def test_different_seed_different_weights(self):
        a = build_model("light", seed=1)
        b = build_model("light", seed=2)
        assert any(
            not np.array_equal(pa.value, pb.value)
            for pa, pb in zip(a.parameters(), b.parameters())
        )


class TestForwardShapes:
    def _feature_shape_before_head(self, variant):
        net = build_model(variant, seed=0)
        h = np.zeros((1, 1, 33, 124), dtype=np.float32)
        for layer, spec in zip(net.layers, net.specs):
            if spec.kind is LayerKind.GLOBAL_AVG_POOL:
                return h.shape
            if spec.kind is LayerKind.DROPOUT:
                h = layer.forward(h, False, active=False, rng=None)
            elif layer is not None:
                h = layer.forward(h, False)
        raise AssertionError("no global average pool found")

    def test_conv_stack_end_shapes(self):
        assert self._feature_shape_before_head(Variant.LIGHT) == (1, 64, 8, 31)
        assert self._feature_shape_before_head(Variant.BASELINE) == (1, 256, 4, 15)
        assert self._feature_shape_before_head(Variant.HEAVY) == (1, 512, 4, 15)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_output_is_probability_pair(self, variant):
        net = build_model(variant, seed=0)
        x = np.random.default_rng(0).standard_normal((3, 1, 33, 124)).astype(np.float32)
        probs = net.forward(x, mode="eval")
        assert probs.shape == (3, 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_eval_forward_deterministic(self):
        net = build_model("light", seed=5)
        x = np.random.default_rng(1).standard_normal((2, 1, 33, 124)).astype(np.float32)
        a = net.forward(x, mode="eval")
        b = net.forward(x, mode="eval")
        assert np.array_equal(a, b)

    def test_mcd_mode_varies_but_eval_does_not(self):
        net = build_model("light", seed=5)
        x = np.random.default_rng(1).standard_normal((1, 1, 33, 124)).astype(np.float32)
        a = net.forward(x, mode="mcd", rng=np.random.default_rng(0))
        b = net.forward(x, mode="mcd", rng=np.random.default_rng(99))
        assert not np.array_equal(a, b)

    def test_wrong_channels_rejected(self):
        net = build_model("light", seed=0)
        with pytest.raises(ShapeError):
            net.forward(np.zeros((1, 2, 33, 124), dtype=np.float32), mode="eval")

    def test_backward_without_forward(self):
        net = build_model("light", seed=0)
        with pytest.raises(StateError):
            net.backward(np.array([0]))

    def test_backward_closed_form_for_zero_linear(self):
        # With all-zero weights the logits are zero, probs are 0.5/0.5, and the
        # linear layer's gradient follows (probs - onehot) / N directly.
        net = build_model("light", seed=0)
        for p in net.parameters():
            p.value[...] = 0
        x = np.random.default_rng(2).standard_normal((2, 1, 12, 16)).astype(np.float32)
        net.zero_grad()
        probs = net.forward(x, mode="train", rng=np.random.default_rng(0))
        np.testing.assert_allclose(probs, 0.5, atol=1e-7)
        net.backward(np.array([0, 1]))
        lin_b = [p for p in net.parameters() if p.name.endswith(".b")][-1]
        expected = ((probs - np.eye(2)[[0, 1]]) / 2).sum(axis=0)
        np.testing.assert_allclose(lin_b.grad, expected, atol=1e-7)

    def test_duplicated_sample_matches_single(self):
        net = build_model("light", seed=7, dtype=np.float64)
        x1 = np.random.default_rng(3).standard_normal((1, 1, 12, 16))
        x2 = np.concatenate([x1, x1])
        net.zero_grad()
        net.forward(x1, mode="train", rng=np.random.default_rng(0))
        # disable dropout so both passes share the same (absent) masks
        for l in net.layers:
            if isinstance(l, L.Dropout):
                l.p = 0.0
        net.zero_grad()
        net.forward(x1, mode="train", rng=np.random.default_rng(1))
        net.backward(np.array([1]))
        g1 = [p.grad.copy() for p in net.parameters()]
        net.zero_grad()
        net.forward(x2, mode="train", rng=np.random.default_rng(1))
        net.backward(np.array([1, 1]))
        g2 = [p.grad.copy() for p in net.parameters()]
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestWeightsIO:
    def test_round_trip(self, tmp_path):
        net = build_model("light", seed=9)
        x = np.random.default_rng(0).standard_normal((2, 1, 33, 124)).astype(np.float32)
        before = net.forward(x, mode="eval")
        save_network(net, tmp_path / "w")
        loaded = load_network(tmp_path / "w")
        assert loaded.variant is Variant.LIGHT
        after = loaded.forward(x, mode="eval")
        np.testing.assert_allclose(before, after, atol=1e-7)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_load_draws_no_weights(self, variant, tmp_path, monkeypatch):
        # Every weight comes from the file, so loading initializes none.
        net = build_model(variant, seed=9)
        net.parameters()[1].value[...] = 0.5  # a non-zero bias
        save_network(net, tmp_path / "w")

        def no_init(*args, **kwargs):
            raise AssertionError("load_network drew initial weights")

        monkeypatch.setattr("murmurkit.nn.layers.he_uniform", no_init)
        loaded = load_network(tmp_path / "w")
        want = net.get_weights()
        assert [w.tobytes() for w in loaded.get_weights()] == [w.tobytes() for w in want]

    def test_heavy_load_copies_each_tensor_once(self, tmp_path):
        """Loading ``heavy``'s 9.3 MB of weights peaks at 27.8 MiB traced:
        the zero parameters and the blobs read from the files. Casting each
        blob to the parameter's dtype before copying it in took 31.2 MiB."""
        save_network(build_model("heavy", seed=9), tmp_path / "w")
        tracemalloc.start()
        try:
            load_network(tmp_path / "w")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 29.5 * 2**20, peak / 2**20

    def test_checksum_detects_corruption(self, tmp_path):
        net = build_model("light", seed=9)
        save_network(net, tmp_path / "w")
        blob = next((tmp_path / "w").glob("*.bin"))
        data = bytearray(blob.read_bytes())
        data[0] ^= 0xFF
        blob.write_bytes(bytes(data))
        with pytest.raises(ParseError):
            load_network(tmp_path / "w")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ParseError):
            load_network(tmp_path)


class TestModes:
    def test_unknown_mode_rejected(self):
        net = build_model("light", seed=0)
        with pytest.raises(ConfigError):
            net.forward(np.zeros((1, 1, 33, 124), dtype=np.float32), mode="test")

    def test_stochastic_mode_needs_rng(self):
        net = build_model("light", seed=0)
        with pytest.raises(ConfigError):
            net.forward(np.zeros((1, 1, 33, 124), dtype=np.float32), mode="mcd")

    @pytest.mark.parametrize("mode", ["train", "mcd"])
    def test_rng_needed_even_when_every_p_is_zero(self, mode):
        net = build_model("light", seed=0)
        for layer in net.layers:
            if isinstance(layer, L.Dropout):
                layer.p = 0.0
        with pytest.raises(ConfigError):
            net.forward(np.zeros((1, 1, 33, 124), dtype=np.float32), mode=mode)

    def test_train_pass_cannot_resume_after_the_stem(self):
        net = build_model("light", seed=0)
        start, h = net.stem(np.zeros((1, 1, 33, 124), dtype=np.float32))
        with pytest.raises(ConfigError):
            net.forward(h, mode="train", rng=np.random.default_rng(0), start=start)


class TestStem:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_stem_index_is_the_first_dropout(self, variant):
        net = build_model(variant, seed=0)
        first = [s.kind for s in net.specs].index(LayerKind.DROPOUT)
        start, _ = net.stem(np.zeros((1, 1, 16, 16), dtype=np.float32))
        assert start == net.stem_end == first

    def test_stem_ends_before_the_first_dropout(self):
        net = build_model("baseline", seed=0)
        x = np.random.default_rng(4).standard_normal((3, 1, 33, 124)).astype(np.float32)
        start, h = net.stem(x)
        assert start == 2 and isinstance(net.layers[start], L.Dropout)
        assert h.shape == (3, 32, 33, 124) and h.min() >= 0

    def test_resumed_eval_pass_matches_the_full_pass(self):
        net = build_model("light", seed=5)
        x = np.random.default_rng(1).standard_normal((4, 1, 33, 124)).astype(np.float32)
        want = net.forward(x, mode="eval")
        start, h = net.stem(x)
        assert net.forward(h, mode="eval", start=start).tobytes() == want.tobytes()

    def test_stem_invalidates_a_cached_train_pass(self):
        # The stem's eval pass drops the first conv's cached input, and the
        # network marks its train pass stale.
        net = build_model("light", seed=0)
        x = np.zeros((2, 1, 33, 124), dtype=np.float32)
        net.forward(x, mode="train", rng=np.random.default_rng(0))
        net.stem(x)
        with pytest.raises(StateError):
            net.backward(np.array([0, 1]))
