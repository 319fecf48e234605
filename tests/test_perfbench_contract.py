"""The program surface that perfbench's traced runs rely on.

perfbench wraps named functions of ``murmurkit`` from outside and reads
every metric group off the spans of a probe pass: ``train_run``, selective
infer and ``quantize_run`` on a small seeded corpus. These tests fail when
a rename or a restructuring in ``src/`` would break that reading.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import probes  # noqa: E402


def test_every_traced_name_resolves():
    for name, owner, attr, _ in probes.SPANS:
        assert callable(getattr(owner, attr, None)), name


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    return probes.probe_pass(seed=11, work=tmp_path_factory.mktemp("probe"), groups=["uq", "quant"])


@pytest.mark.parametrize(
    "read", [probes.train_metrics, probes.dsp_metrics, probes.uq_metrics], ids=["train", "dsp", "uq"]
)
def test_group_metrics_are_finite(probe, read):
    metrics = read(probe, 1)
    assert metrics
    assert all(math.isfinite(v) for v in metrics.values()), metrics


def test_quant_metrics_are_finite(probe):
    metrics = probes.quant_metrics(probe, 1)
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    assert metrics["quant.qforward_over_float"] > 0


def test_one_qforward_span_per_quantize_run(probe):
    spans = probe.named("quant.qforward")
    runs = probe.named("pipeline.quantize_run")
    assert len(runs) == 1
    for run in runs:
        under = [i for i in spans if run in probe.ancestors(i)]
        assert len(under) == 1


@pytest.mark.parametrize("mode", ["train", "mcd"])
def test_layer_probe_times_are_finite_and_positive(mode):
    # In "train" mode every layer's own backward runs after each forward.
    times = probes.layer_times("light", 2, 1, 11, mode)
    values = list(times["fwd_ms"].values()) + (list(times["bwd_ms"].values()) if mode == "train" else [])
    assert values
    assert all(math.isfinite(v) and v > 0 for v in values), times


def test_network_probe_times_are_finite_and_positive():
    times = probes.network_times(11)
    assert set(times) == {
        "network.forward_train_ms",
        "network.backward_ms",
        "network.forward_eval_ms",
        "network.forward_mcd_ms",
    }
    assert all(math.isfinite(v) and v > 0 for v in times.values()), times


@pytest.mark.parametrize(
    "variant, gflops", [("light", 19.46304), ("baseline", 110.884608), ("heavy", 1325.624832)]
)
def test_conv_gflops_reads_the_conv_macc(variant, gflops):
    # At one input in one millisecond this is 2 * conv MACC / 1e6, so it
    # holds only while analyze(specs).per_layer stays aligned with the specs.
    assert probes.conv_gflops(variant, 1, 1.0) == pytest.approx(gflops, rel=1e-12)
