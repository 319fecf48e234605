"""Int8 quantization: tensor scheme, calibration, and the integer forward path."""

import numpy as np
import pytest

from murmurkit import resources
from murmurkit.errors import CalibrationError, NumericError, ParseError, ShapeError
from murmurkit.nn import LayerKind, build_model
from murmurkit.quant import (
    QTensor,
    load_qnetwork,
    qforward,
    quantize_network,
    quantize_tensor,
    save_qnetwork,
)


class TestQuantizeTensor:
    def test_reference_values(self):
        q = quantize_tensor(np.array([-1.0, 0.0, 0.5, 1.0]))
        assert q.scale == pytest.approx(1 / 127)
        assert q.values.tolist() == [-127, 0, 64, 127]  # 63.5 rounds half-to-even up

    def test_all_zero(self):
        q = quantize_tensor(np.array([0.0, 0.0]))
        assert q.scale == 1.0
        assert q.values.tolist() == [0, 0]

    def test_rounding_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.standard_normal(64) * rng.uniform(0.01, 10)
            q = quantize_tensor(w)
            err = np.abs(q.dequantize() - w)
            assert np.all(err <= q.scale / 2 + 1e-12)
            assert np.mean(err) <= q.scale / 2

    def test_idempotent_at_value_level(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal(128)
        q = quantize_tensor(w)
        q2 = quantize_tensor(q.dequantize())
        assert np.array_equal(q.values, q2.values)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            quantize_tensor(np.array([1.0, np.inf]))

    def test_symmetric_range(self):
        w = np.linspace(-3, 3, 100)
        q = quantize_tensor(w)
        assert np.abs(q.values).max() <= 127
        neg = quantize_tensor(-w)
        np.testing.assert_array_equal(neg.values, -q.values)
        assert neg.scale == q.scale


def _calibration(n=32, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 1, 33, 124)).astype(np.float32)


@pytest.fixture(scope="module")
def light_pair():
    net = build_model("light", seed=0)
    qnet = quantize_network(net, _calibration())
    return net, qnet


class TestQuantizeNetwork:
    def test_payload_sizes(self, light_pair):
        _, qnet = light_pair
        assert qnet.weight_payload_bytes() == 23_426

    def test_payload_ratio_exactly_four(self, light_pair):
        net, qnet = light_pair
        float_bytes = sum(p.value.size * 4 for p in net.parameters())
        assert float_bytes / qnet.weight_payload_bytes() == 4.0

    def test_baseline_payload(self):
        net = build_model("baseline", seed=0)
        qnet = quantize_network(net, _calibration(8))
        assert qnet.weight_payload_bytes() == 388_354

    def test_heavy_adjacent_convs(self):
        # Heavy stacks convs back to back without pooling in between;
        # the fused conv+relu requantization chain must still line up.
        rng = np.random.default_rng(5)
        cal = rng.standard_normal((4, 1, 12, 16)).astype(np.float32)
        net = build_model("heavy", seed=0)
        qnet = quantize_network(net, cal)
        assert qnet.weight_payload_bytes() == 2_325_442
        probs = qforward(qnet, cal)
        assert probs.shape == (4, 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_dropout_removed(self, light_pair):
        _, qnet = light_pair
        assert all(s.kind is not LayerKind.DROPOUT for s in qnet.specs)
        assert resources.count_params(qnet) == 23_426

    def test_macc_unchanged_by_quantization(self, light_pair):
        net, qnet = light_pair
        assert resources.count_macc(qnet) == resources.count_macc(net)

    def test_empty_calibration(self):
        net = build_model("light", seed=0)
        with pytest.raises(CalibrationError):
            quantize_network(net, np.zeros((0, 1, 33, 124), dtype=np.float32))

    @pytest.mark.parametrize("shape", [(4, 33, 124), (4, 2, 33, 124), (2, 1, 1, 33, 124)])
    def test_bad_calibration_shape_raises_shape_error(self, shape):
        net = build_model("light", seed=0)
        with pytest.raises(ShapeError):
            quantize_network(net, np.zeros(shape, dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_calibration_raises_numeric_error(self, bad):
        net = build_model("light", seed=0)
        calibration = _calibration(3)
        calibration[1, 0, 5, 7] = bad
        with pytest.raises(NumericError):
            quantize_network(net, calibration)

    def test_accumulator_bound_guard(self):
        from murmurkit.nn import LayerKind, LayerSpec
        from murmurkit.quant import _check_accumulator_bound

        for variant_net in ("light", "baseline", "heavy"):
            net = build_model(variant_net, seed=0)
            _check_accumulator_bound([s for s in net.specs if s.kind is not LayerKind.DROPOUT])
        fat = [LayerSpec(LayerKind.CONV3X3, in_ch=10_000, out_ch=1)]
        with pytest.raises(OverflowError):
            _check_accumulator_bound(fat)

    def test_dequantized_weights_close(self, light_pair):
        net, qnet = light_pair
        convs = [op for op in qnet.ops if op.w is not None]
        params = [p for p in net.parameters() if p.name.endswith(".w")]
        for op, p in zip(convs, params):
            err = np.abs(op.w.dequantize().reshape(p.value.shape) - p.value)
            assert np.max(err) <= op.w.scale / 2 + 1e-6


class TestQForward:
    def test_zero_input_gives_half_half(self):
        # Freshly built nets have zero biases; a zero input stays zero through
        # every layer and the final softmax must return [0.5, 0.5].
        net = build_model("light", seed=4)
        qnet = quantize_network(net, _calibration(16, seed=4))
        probs = qforward(qnet, np.zeros((1, 33, 124), dtype=np.float32))
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-9)

    def test_deterministic(self, light_pair):
        _, qnet = light_pair
        x = _calibration(1, seed=9)[0]
        a = qforward(qnet, x)
        b = qforward(qnet, x)
        assert np.array_equal(a, b)

    def test_probabilities_well_formed(self, light_pair):
        _, qnet = light_pair
        probs = qforward(qnet, _calibration(6, seed=2))
        assert probs.shape == (6, 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)

    @pytest.mark.parametrize("shape", [(33, 124), (2, 1, 1, 33, 124), (2, 2, 33, 124), (2, 33, 124)])
    def test_bad_input_shape_raises_shape_error(self, light_pair, shape):
        _, qnet = light_pair
        with pytest.raises(ShapeError):
            qforward(qnet, np.zeros(shape, dtype=np.float32))

    def test_dequantized_float_forward_agrees(self):
        # Load the dequantized weights back into a float network: class
        # agreement with the original must hold on the calibration set.
        from murmurkit.nn.train import predict_labels

        net = build_model("light", seed=8)
        cal = _calibration(48, seed=8)
        qnet = quantize_network(net, cal)
        deq = build_model("light", seed=8)
        deq_values = []
        for op in qnet.ops:
            if op.w is None:
                continue
            deq_values.append(op.w.dequantize())
            deq_values.append(op.b_q.dequantize())
        shaped = [
            v.reshape(p.value.shape) for v, p in zip(deq_values, deq.parameters())
        ]
        deq.set_weights(shaped)
        agreement = np.mean(predict_labels(net, cal) == predict_labels(deq, cal))
        assert agreement >= 0.95

    def test_agreement_with_float_on_trained_like_net(self):
        # Random nets squash everything toward 0.5, which is a weak agreement
        # test; push weights toward a decisive classifier instead by training
        # briefly on separable maps.
        from murmurkit.nn import TrainConfig, fit
        from murmurkit.nn.train import predict_labels

        rng = np.random.default_rng(3)
        xs, ys = [], []
        for label in (0, 1):
            base = np.zeros((1, 33, 124), dtype=np.float32)
            base[0, 5:12 if label else 25, :] = 2.0
            for _ in range(16):
                xs.append(base + 0.2 * rng.standard_normal((1, 33, 124)).astype(np.float32))
                ys.append(label)
        x = np.stack(xs)
        y = np.array(ys)
        net = build_model("light", seed=5)
        fit(net, x, y, x, y, TrainConfig(epochs=4, batch_size=8, seed=0))
        qnet = quantize_network(net, x)
        float_labels = predict_labels(net, x)
        q_labels = qforward(qnet, x).argmax(axis=1)
        assert np.mean(float_labels == q_labels) >= 0.95


class TestQWeightsIO:
    def test_round_trip(self, light_pair, tmp_path):
        _, qnet = light_pair
        save_qnetwork(qnet, tmp_path / "q")
        loaded = load_qnetwork(tmp_path / "q")
        x = _calibration(3, seed=11)
        np.testing.assert_allclose(qforward(loaded, x), qforward(qnet, x), atol=1e-12)
        assert loaded.weight_payload_bytes() == qnet.weight_payload_bytes()

    def test_load_builds_no_float_network(self, light_pair, tmp_path, monkeypatch):
        # Tensor shapes are checked against the layer specs, so loading never
        # initializes float weights.
        _, qnet = light_pair
        save_qnetwork(qnet, tmp_path / "q")

        def no_init(*args, **kwargs):
            raise AssertionError("load_qnetwork initialized float weights")

        monkeypatch.setattr("murmurkit.nn.layers.he_uniform", no_init)
        loaded = load_qnetwork(tmp_path / "q")
        assert [op.kind for op in loaded.ops] == [op.kind for op in qnet.ops]

    def test_checksum_guard(self, light_pair, tmp_path):
        _, qnet = light_pair
        save_qnetwork(qnet, tmp_path / "q")
        blob = sorted((tmp_path / "q").glob("*.bin"))[0]
        data = bytearray(blob.read_bytes())
        data[0] ^= 0x55
        blob.write_bytes(bytes(data))
        with pytest.raises(ParseError):
            load_qnetwork(tmp_path / "q")
