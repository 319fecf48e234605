"""AdamW arithmetic and the training loop with best-F1 checkpointing."""

import json

import numpy as np
import pytest

from murmurkit.errors import ConfigError, EmptyDatasetError, NumericError
from murmurkit.nn import TrainConfig, adamw_step, build_model, fit
from murmurkit.nn.train import predict_labels


class TestAdamWStep:
    def test_first_step_unit_gradient(self):
        w = np.array([1.0])
        state = {}
        adamw_step(w, np.array([1.0]), state, lr=1e-3, weight_decay=0.0)
        assert w[0] == pytest.approx(0.999, abs=1e-6)

    def test_zero_gradient_no_decay(self):
        w = np.array([1.0])
        adamw_step(w, np.array([0.0]), {}, lr=1e-3, weight_decay=0.0)
        assert w[0] == pytest.approx(1.0, abs=1e-12)

    def test_pure_decay(self):
        w = np.array([1.0])
        adamw_step(w, np.array([0.0]), {}, lr=1e-3, weight_decay=0.01)
        assert w[0] == pytest.approx(0.99999, abs=1e-9)

    def test_state_evolves(self):
        w = np.array([1.0])
        state = {}
        for _ in range(3):
            adamw_step(w, np.array([1.0]), state, lr=1e-3, weight_decay=0.0)
        assert state["t"] == 3
        assert w[0] < 0.999


def _blob_dataset(n_per_class=24, seed=0, shape=(1, 33, 124)):
    """Two Gaussian blobs rendered as spectrogram-shaped maps."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label in (0, 1):
        base = np.zeros(shape, dtype=np.float32)
        if label:
            base[0, 5:12, :] = 2.0
        else:
            base[0, 20:27, :] = 2.0
        for _ in range(n_per_class):
            xs.append(base + 0.3 * rng.standard_normal(shape).astype(np.float32))
            ys.append(label)
    x = np.stack(xs)
    y = np.array(ys, dtype=np.int64)
    order = rng.permutation(len(x))
    return x[order], y[order]


class TestFit:
    def test_separable_blobs_reach_perfect_f1(self):
        train_x, train_y = _blob_dataset(n_per_class=24, seed=0)
        val_x, val_y = _blob_dataset(n_per_class=8, seed=1)
        net = build_model("light", seed=0)
        config = TrainConfig(epochs=20, batch_size=16, seed=0)
        history = fit(net, train_x, train_y, val_x, val_y, config)
        assert max(e.val_f1 for e in history.epochs) == 1.0
        m = predict_labels(net, val_x)
        assert np.array_equal(m, val_y)

    def test_single_epoch_returns_that_snapshot(self):
        train_x, train_y = _blob_dataset(n_per_class=6, seed=2)
        val_x, val_y = _blob_dataset(n_per_class=3, seed=3)
        net = build_model("light", seed=1)
        history = fit(net, train_x, train_y, val_x, val_y, TrainConfig(epochs=1, seed=0))
        assert history.best_epoch == 1
        assert len(history.epochs) == 1

    def test_deterministic_history(self):
        train_x, train_y = _blob_dataset(n_per_class=6, seed=4)
        val_x, val_y = _blob_dataset(n_per_class=3, seed=5)
        runs = []
        for _ in range(2):
            net = build_model("light", seed=2)
            h = fit(net, train_x, train_y, val_x, val_y, TrainConfig(epochs=3, seed=9))
            runs.append([(e.train_loss, e.val_f1) for e in h.epochs])
        assert runs[0] == runs[1]

    def test_best_epoch_ties_resolve_earlier(self):
        train_x, train_y = _blob_dataset(n_per_class=8, seed=6)
        val_x, val_y = _blob_dataset(n_per_class=4, seed=7)
        net = build_model("light", seed=3)
        history = fit(net, train_x, train_y, val_x, val_y, TrainConfig(epochs=6, seed=1))
        best_f1 = max(e.val_f1 for e in history.epochs)
        first_best = next(e.epoch for e in history.epochs if e.val_f1 == best_f1)
        assert history.best_epoch == first_best

    def test_empty_training_set(self):
        net = build_model("light", seed=0)
        empty = np.zeros((0, 1, 33, 124), dtype=np.float32)
        with pytest.raises(EmptyDatasetError):
            fit(net, empty, np.zeros(0), empty, np.zeros(0), TrainConfig(epochs=1))

    def test_diverging_loss_raises_naming_the_epoch(self):
        # One batch per epoch: epoch 1's loss is taken before the first step,
        # so the first non-finite loss is epoch 2's.
        train_x, train_y = _blob_dataset(n_per_class=6, seed=2)
        val_x, val_y = _blob_dataset(n_per_class=3, seed=3)
        net = build_model("light", seed=1)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="epoch 2"):
            fit(net, train_x, train_y, val_x, val_y, TrainConfig(lr=1e12, epochs=3, seed=0))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(weight_decay=-0.01)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), 10**400], ids=["nan", "inf", "-inf", "huge-int"]
    )
    @pytest.mark.parametrize("name", ["lr", "weight_decay"])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ConfigError, match="finite"):
            TrainConfig(**{name: value})

    def test_notes_flag_unspecified_defaults(self):
        train_x, train_y = _blob_dataset(n_per_class=4, seed=8)
        net = build_model("light", seed=0)
        h = fit(net, train_x, train_y, train_x, train_y, TrainConfig(epochs=1))
        assert "batch_size" in h.notes["defaults_not_specified_upstream"]

    def test_notes_record_the_fixed_adam_constants(self):
        # The training header of history.tsv prints these as JSON.
        train_x, train_y = _blob_dataset(n_per_class=4, seed=8)
        net = build_model("light", seed=0)
        h = fit(net, train_x, train_y, train_x, train_y, TrainConfig(epochs=1))
        pinned = {k: h.notes[k] for k in ("betas", "eps")}
        assert json.dumps(pinned) == '{"betas": [0.9, 0.999], "eps": 1e-08}'
