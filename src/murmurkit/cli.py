"""Command-line entry point.

Subcommands: synth, train, cv, infer, quantize, resources, uq-report.
Reports are tab-separated text with the resolved config echoed in the
header; exit code 2 signals a bad config, 3 a missing input.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import aggregate, pipeline, resources, uq
from .dataset import Split
from .errors import ConfigError, MurmurKitError
from .nn import Variant, load_network, variant_specs
from .pipeline import PipelineConfig


_FLAG_NAMES = {"vote_thr": "--thr", "fallback_thr": "--thr-fallback"}
_CHOICES = {
    "variant": [v.value for v in Variant],
    "entropy_mode": uq.ENTROPY_MODES,
    "vote_rule": aggregate.VOTE_RULES,
}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One flag per PipelineConfig field; unset flags stay None."""
    p.add_argument("--config", type=Path, help="JSON config file (flags override it)")
    for f in dataclasses.fields(PipelineConfig):
        flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        if f.name in _CHOICES:
            p.add_argument(flag, choices=_CHOICES[f.name], dest=f.name)
        else:
            p.add_argument(flag, type=type(f.default), dest=f.name)


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    if getattr(args, "config", None):
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise FileNotFoundError(f"config file not found: {cfg_path}")
        cfg = PipelineConfig.from_json(cfg_path.read_text(encoding="utf-8"))
    else:
        cfg = PipelineConfig()
    overrides = {}
    for f in dataclasses.fields(PipelineConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _require(path: Path, what: str) -> Path:
    if not Path(path).exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    return Path(path)


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    manifest = pipeline.synth_corpus(args.out, args.patients, cfg.seed)
    print(f"wrote corpus under {args.out} ({manifest})")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    manifest, base = pipeline.load_manifest_dir(_require(args.manifest, "manifest"))
    outcome = pipeline.train_run(manifest, base, cfg, args.out)
    best = outcome.history.best_epoch
    print(f"trained {cfg.variant}: best epoch {best}, weights at {outcome.weights_dir}")
    print(f"calibrated vote threshold {outcome.calibrated_thr:.2f}")
    if outcome.val_patient_metrics is not None:
        m = outcome.val_patient_metrics
        print(f"validation patient accuracy {m.accuracy:.4f}, f1 {m.f1:.4f}")
    return 0


def _grid(text: str, kind, flag: str) -> list | None:
    if not text:
        return None
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _cmd_cv(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    manifest, base = pipeline.load_manifest_dir(_require(args.manifest, "manifest"))
    n_fft_grid = _grid(args.n_fft_grid, int, "--n-fft-grid")
    psd_grid = _grid(args.psd_thr_grid, float, "--psd-thr-grid")
    report = pipeline.cv_run(manifest, base, cfg, k=args.k, n_fft_grid=n_fft_grid, psd_thr_grid=psd_grid)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(report, encoding="utf-8")
    print(f"wrote CV report to {args.out}")
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    manifest, base = pipeline.load_manifest_dir(_require(args.manifest, "manifest"))
    net = load_network(_require(args.weights, "weights directory"))
    feats = pipeline.eval_features(manifest, base, Split(args.split), cfg)
    result = pipeline.infer_patients(net, feats, cfg, selective=args.selective)
    report = pipeline.infer_report(result, cfg)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(report, encoding="utf-8")
    print(f"wrote predictions to {args.out}")
    if result.patient_metrics is not None:
        m = result.patient_metrics
        print(f"patient accuracy {m.accuracy:.4f}, recall {m.recall:.4f}, f1 {m.f1:.4f}")
    return 0


def _cmd_quantize(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    manifest, base = pipeline.load_manifest_dir(_require(args.manifest, "manifest"))
    net = load_network(_require(args.weights, "weights directory"))
    outcome = pipeline.quantize_run(net, manifest, base, cfg, args.out)
    ratio = outcome.float_payload_bytes / outcome.int8_payload_bytes
    print(f"int8 weights at {outcome.qweights_dir}")
    print(
        f"payload {outcome.int8_payload_bytes} B (float {outcome.float_payload_bytes} B, "
        f"ratio {ratio:.2f}), label agreement {outcome.agreement:.4f}"
    )
    return 0


def _cmd_resources(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    try:
        c, h, w = (int(v) for v in args.input_shape.lower().split("x"))
    except ValueError:
        raise ConfigError(f"--input-shape must look like 1x33x124, got {args.input_shape!r}") from None
    if args.weights:
        net = load_network(_require(args.weights, "weights directory"))
        specs, variant = net.specs, net.variant.value
    else:
        variant = cfg.variant
        specs = variant_specs(Variant(variant))
    report = resources.analyze(specs, input_shape=(c, h, w), dtype_width=args.dtype_width, variant=variant)
    text = "\n".join(cfg.header_lines("resources")) + "\n" + report.to_tsv()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote resource report to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_uq_report(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    manifest, base = pipeline.load_manifest_dir(_require(args.manifest, "manifest"))
    net = load_network(_require(args.weights, "weights directory"))
    report = pipeline.uq_report(net, manifest, base, Split(args.split), cfg)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(report, encoding="utf-8")
    print(f"wrote UQ report to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="murmurkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--patients", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a variant with best-F1 checkpointing")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("cv", help="patient-level k-fold cross-validation")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--n-fft-grid", type=str, default="")
    p.add_argument("--psd-thr-grid", type=str, default="")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("infer", help="patient-level predictions for a split")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--weights", type=Path, required=True)
    p.add_argument("--split", choices=[s.value for s in Split], default="Test")
    p.add_argument("--selective", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("quantize", help="post-training int8 quantization")
    p.add_argument("--manifest", type=Path, required=True, help="calibration manifest")
    p.add_argument("--weights", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("resources", help="static parameter/MACC/memory report")
    p.add_argument("--weights", type=Path, default=None)
    p.add_argument("--input-shape", type=str, default="1x33x124")
    p.add_argument("--dtype-width", type=int, choices=(1, 4), default=4)
    p.add_argument("--out", type=Path, default=None)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_resources)

    p = sub.add_parser("uq-report", help="per-segment confidence report")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--weights", type=Path, required=True)
    p.add_argument("--split", choices=[s.value for s in Split], default="Test")
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_uq_report)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MurmurKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
