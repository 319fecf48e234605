"""The program surface that perfbench's traced runs rely on.

perfbench wraps named functions of ``murmurkit`` from outside and reads its
``quant`` metrics off the spans of a probe ``quantize_run``. These tests
fail when a rename or a restructuring in ``src/`` would break that reading.
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
def quant_probe(tmp_path_factory):
    return probes.probe_pass(seed=11, work=tmp_path_factory.mktemp("probe"), groups=["quant"])


def test_quant_metrics_are_finite(quant_probe):
    metrics = probes.quant_metrics(quant_probe, 1)
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    assert metrics["quant.qforward_over_float"] > 0


def test_one_qforward_span_per_quantize_run(quant_probe):
    spans = quant_probe.named("quant.qforward")
    runs = quant_probe.named("pipeline.quantize_run")
    assert len(runs) == 1
    for run in runs:
        under = [i for i in spans if run in quant_probe.ancestors(i)]
        assert len(under) == 1
