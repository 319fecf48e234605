"""Static parameter, MACC, and memory analysis against the published counts."""

import pytest

from murmurkit.errors import ShapeError
from murmurkit.nn import LayerKind, LayerSpec, Variant, build_model, variant_specs
from murmurkit.resources import (
    analyze,
    count_macc,
    count_params,
    estimate_memory,
    format_bytes_binary,
)

PARAMS = {Variant.LIGHT: 23_426, Variant.BASELINE: 388_354, Variant.HEAVY: 2_325_442}
PUBLISHED_MACC = {Variant.LIGHT: 10.0e6, Variant.BASELINE: 56.2e6, Variant.HEAVY: 665.5e6}


class TestCountParams:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_exact_counts(self, variant):
        assert count_params(variant_specs(variant)) == PARAMS[variant]

    def test_single_linear(self):
        assert count_params([LayerSpec(LayerKind.LINEAR, in_ch=64, out_ch=2)]) == 130

    def test_payload_bytes_at_width_one(self):
        for variant in Variant:
            net = build_model(variant, seed=0)
            flash, _ = estimate_memory(net, dtype_width=1)
            assert flash == PARAMS[variant]


class TestCountMacc:
    def test_exact_values(self):
        assert count_macc(variant_specs(Variant.LIGHT)) == 9_731_648
        assert count_macc(variant_specs(Variant.BASELINE)) == 55_442_816
        assert count_macc(variant_specs(Variant.HEAVY)) == 662_813_440

    @pytest.mark.parametrize("variant", list(Variant))
    def test_within_three_percent_of_published(self, variant):
        macc = count_macc(variant_specs(variant))
        assert abs(macc - PUBLISHED_MACC[variant]) / PUBLISHED_MACC[variant] < 0.03

    def test_pooling_fixes_arithmetic(self):
        # 33x124 -> 16x62 -> 8x31 under floor pooling drives the conv sizes.
        report = analyze(variant_specs(Variant.LIGHT))
        shapes = [lr.out_shape for lr in report.per_layer if lr.kind == "maxpool2x2"]
        assert shapes == [(16, 16, 62), (32, 8, 31)]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            count_macc(variant_specs(Variant.LIGHT), input_shape=(2, 33, 124))

    def test_macc_precision_invariant(self):
        specs = variant_specs(Variant.LIGHT)
        assert (
            analyze(specs, dtype_width=1).macc == analyze(specs, dtype_width=4).macc
        )


class TestEstimateMemory:
    def test_light_float32(self):
        flash, _ = estimate_memory(variant_specs(Variant.LIGHT), 4)
        assert flash == 93_704
        assert format_bytes_binary(flash) == "91.5 KiB"

    def test_heavy_float32(self):
        flash, _ = estimate_memory(variant_specs(Variant.HEAVY), 4)
        assert flash == 9_301_768
        assert abs(flash / (1024 * 1024) - 8.87) < 0.01

    def test_light_int8(self):
        flash, _ = estimate_memory(variant_specs(Variant.LIGHT), 1)
        assert flash == 23_426
        assert format_bytes_binary(flash) == "22.9 KiB"

    def test_ram_is_max_consecutive_pair(self):
        report = analyze(variant_specs(Variant.LIGHT), dtype_width=4)
        # Largest buffer pair: conv1 output (16x33x124) plus pool1 output
        # (16x16x62); elementwise layers run in place and add no buffer.
        expected = (16 * 33 * 124 + 16 * 16 * 62) * 4
        assert report.ram_bytes_estimate == expected
        pairs = [(1 * 33 * 124 + 16 * 33 * 124) * 4, expected]
        assert report.ram_bytes_estimate == max(pairs)

    def test_invalid_width(self):
        with pytest.raises(ShapeError):
            estimate_memory(variant_specs(Variant.LIGHT), 2)


class TestReport:
    def test_totals_equal_layer_sums(self):
        for variant in Variant:
            report = analyze(variant_specs(variant))
            assert report.params == sum(lr.params for lr in report.per_layer)
            assert report.macc == sum(lr.macc for lr in report.per_layer)

    def test_tsv_contains_totals(self):
        report = analyze(variant_specs(Variant.LIGHT))
        text = report.to_tsv()
        assert "# total_params\t23426" in text
        assert "91.5 KiB" in text
        assert "upper bound" in text

    def test_accepts_network_objects(self):
        net = build_model("light", seed=0)
        assert count_params(net) == PARAMS[Variant.LIGHT]
        assert count_macc(net) == 9_731_648

    def test_runtime_under_one_second(self):
        import time

        start = time.perf_counter()
        for variant in Variant:
            analyze(variant_specs(variant))
        assert time.perf_counter() - start < 1.0


class TestFormatBytes:
    def test_units(self):
        assert format_bytes_binary(512) == "512 B"
        assert format_bytes_binary(1536) == "1.5 KiB"
        assert format_bytes_binary(1_553_416) == "1.5 MiB"
