"""Tests for the benchmark's own helpers.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import math
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, covered, self_times  # noqa: E402


# --- the tail-percentile rule -----------------------------------------------------


@pytest.mark.parametrize(
    "n, pct", [(1, 50), (19, 50), (20, 50), (25, 60), (40, 75), (100, 90), (200, 95), (1000, 99)]
)
def test_tail_percentile_known_counts(n, pct):
    assert stats.tail_percentile(n) == pct


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(20, 600):
        p = stats.tail_percentile(n)
        assert n - math.ceil(p * n / 100) >= 10
        if p < 99:
            assert n - math.ceil((p + 1) * n / 100) < 10


def test_tail_value_uses_nearest_rank():
    values = list(range(100, 0, -1))  # order must not matter
    assert stats.tail(values) == (90, 90.0)
    assert stats.nearest_rank([5.0], 50) == 5.0


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(0)


def test_quartile_spread_matches_statistics_quantiles():
    assert stats.quartile_spread([1.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    assert stats.quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


# --- span self time -----------------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5)], 0, 10) == 4
    assert covered([(1, 2), (4, 6)], 0, 10) == 3
    assert covered([(-5, 2), (8, 20)], 0, 10) == 4
    assert covered([(3, 3)], 0, 10) == 0


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),  # overlaps a, as a second worker would
        Span("leaf", 1.5, 2.5, parent=1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 3.0, 1.0])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_nests_spans_and_totals_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.open("outer")
    clock.now = 1.0
    inner = tracer.open("inner")
    clock.now = 4.0
    tracer.close(inner)
    clock.now = 5.0
    tracer.close(outer)
    assert tracer.spans[inner].parent == outer
    assert tracer.self_seconds() == {"outer": 2.0, "inner": 3.0}
    assert tracer.within(inner, "outer") and not tracer.within(outer, "inner")


def test_adopted_worker_spans_hang_under_the_submitting_span():
    tracer = Tracer()
    pool = tracer.open("pool")
    work = tracer.adopt(tracer.wrap("item", lambda: None), pool)
    threads = [threading.Thread(target=work) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.close(pool)
    items = tracer.named("item")
    assert len(items) == 3
    assert all(tracer.spans[i].parent == pool for i in items)


def test_install_patches_every_importer_and_uninstall_restores():
    from murmurkit import dataset, pipeline

    original = dataset.load_recording
    tracer = Tracer()
    tracer.install("dataset.load_recording", dataset, "load_recording")
    try:
        assert dataset.load_recording is not original
        assert pipeline.load_recording is dataset.load_recording
    finally:
        tracer.uninstall()
    assert dataset.load_recording is original
    assert pipeline.load_recording is original


def test_wrapper_records_attributes_from_the_result():
    tracer = Tracer()
    traced = tracer.wrap("double", lambda x: 2 * x, attrs=lambda a, k, r: {"out": r})
    assert traced(21) == 42
    assert tracer.spans[0].attrs == {"out": 42}
    assert tracing.Span("s", 1.0, 3.5).duration == 2.5


# --- metric names and BENCHMARK.json ---------------------------------------------------


def test_benchmark_json_names_and_units_match_the_contract():
    spec = run.SPEC
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert run.METRIC_NAME.match(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert len(m["unit"]) <= 16 and all(c.isalnum() or c in "_/%.-" for c in m["unit"])
        assert m["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]


@pytest.mark.parametrize("bad", ["", "_lead", ".lead", "has space", "a" * 65, "slash/no"])
def test_metric_name_regex_rejects(bad):
    assert not run.METRIC_NAME.match(bad)


def test_every_declared_workload_is_implemented():
    import workloads

    declared = {w["name"] for w in run.SPEC["workloads"]}
    assert declared == set(workloads.WORKLOADS) == set(workloads.PATIENTS)


# --- seed plumbing ----------------------------------------------------------------------


def test_seed_reaches_config_and_argument_parser(monkeypatch):
    import workloads

    assert workloads.config(17).seed == 17
    seen = {}

    def fake_measure(name, seed, seconds, trace, work):
        seen.update(name=name, seed=seed, seconds=seconds, trace=trace)
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}, {}

    for var in run.THREAD_VARS:
        # cap_threads treats "" as unset and writes the cap; setenv restores it.
        monkeypatch.setenv(var, "")
    monkeypatch.setattr(run, "measure", fake_measure)
    monkeypatch.setattr(run, "host_facts", lambda caps: {})
    assert run.main(["--workload", "train_light", "--seed", "17", "--seconds", "3", "--trace", "1"]) == 0
    assert seen == {"name": "train_light", "seed": 17, "seconds": 3.0, "trace": True}


def test_same_seed_same_inputs(tmp_path):
    import workloads

    a = workloads.setup("train_light", 5, str(tmp_path / "a"))
    b = workloads.setup("train_light", 5, str(tmp_path / "b"))
    c = workloads.setup("train_light", 6, str(tmp_path / "c"))

    def digest(built):
        return workloads.dir_sha256(Path(built["manifest"]).parent)

    assert digest(a) == digest(b)
    assert digest(a) != digest(c)
    assert workloads.timed_setup("train_light", 5, tmp_path, None) > 0
    assert not (tmp_path / "setup_again").exists()
