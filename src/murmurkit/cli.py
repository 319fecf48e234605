"""Command-line entry point.

Subcommands: synth, train, cv, infer, quantize, resources, uq-report.
The config is resolved once per run, from --config and the flags, and
every report is tab-separated text with that config echoed in the header;
exit code 2 signals a bad config, 3 a missing input.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import aggregate, pipeline, resources, uq
from .dataset import Split
from .errors import ConfigError, MurmurKitError
from .nn import Network, Variant, load_network, variant_specs
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


def _require(path: Path, what: str) -> Path:
    if not Path(path).exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    return Path(path)


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """The --config file (or the defaults) with the set flags laid over it."""
    cfg = PipelineConfig()
    if args.config:
        cfg = PipelineConfig.from_json(_require(args.config, "config file").read_text(encoding="utf-8"))
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(PipelineConfig)}
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _load(args: argparse.Namespace, cfg: PipelineConfig) -> tuple[Network, PipelineConfig]:
    """The network in --weights, and the config with that network's variant."""
    net = load_network(_require(args.weights, "weights directory"))
    return net, dataclasses.replace(cfg, variant=net.variant.value)


def _write(path: Path, text: str, what: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {what} to {path}")


def _cmd_synth(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    manifest = pipeline.synth_corpus(args.out, args.patients, cfg.seed)
    print(f"wrote corpus under {args.out} ({manifest})")
    return 0


def _cmd_train(args: argparse.Namespace, cfg: PipelineConfig) -> int:
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


def _cmd_cv(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    manifest, base = pipeline.load_manifest_dir(_require(args.manifest, "manifest"))
    n_fft_grid = _grid(args.n_fft_grid, int, "--n-fft-grid")
    psd_grid = _grid(args.psd_thr_grid, float, "--psd-thr-grid")
    report = pipeline.cv_run(manifest, base, cfg, k=args.k, n_fft_grid=n_fft_grid, psd_thr_grid=psd_grid)
    _write(args.out, report, "CV report")
    return 0


def _cmd_infer(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    manifest, base = pipeline.load_manifest_dir(_require(args.manifest, "manifest"))
    net, cfg = _load(args, cfg)
    feats = pipeline.eval_features(manifest, base, Split(args.split), cfg)
    result = pipeline.infer_patients(net, feats, cfg, selective=args.selective)
    _write(args.out, pipeline.infer_report(result, cfg), "predictions")
    if result.patient_metrics is not None:
        m = result.patient_metrics
        print(f"patient accuracy {m.accuracy:.4f}, recall {m.recall:.4f}, f1 {m.f1:.4f}")
    return 0


def _cmd_quantize(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    manifest, base = pipeline.load_manifest_dir(_require(args.manifest, "manifest"))
    net, cfg = _load(args, cfg)
    outcome = pipeline.quantize_run(net, manifest, base, cfg, args.out)
    ratio = outcome.float_payload_bytes / outcome.int8_payload_bytes
    print(f"int8 weights at {outcome.qweights_dir}")
    print(
        f"payload {outcome.int8_payload_bytes} B (float {outcome.float_payload_bytes} B, "
        f"ratio {ratio:.2f}), label agreement {outcome.agreement:.4f}"
    )
    return 0


def _cmd_resources(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    try:
        c, h, w = (int(v) for v in args.input_shape.lower().split("x"))
    except ValueError:
        raise ConfigError(f"--input-shape must look like 1x33x124, got {args.input_shape!r}") from None
    if args.weights:
        _, cfg = _load(args, cfg)
    report = resources.analyze(variant_specs(Variant(cfg.variant)), (c, h, w), args.dtype_width)
    text = "\n".join(cfg.header_lines("resources")) + "\n" + report.to_tsv()
    if args.out:
        _write(args.out, text, "resource report")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_uq_report(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    manifest, base = pipeline.load_manifest_dir(_require(args.manifest, "manifest"))
    net, cfg = _load(args, cfg)
    _write(args.out, pipeline.uq_report(net, manifest, base, Split(args.split), cfg), "UQ report")
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
        return args.func(args, _resolve_config(args))
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
