"""Per-layer metrics: span wrappers, a probe pass and layer micro-benchmarks.

The wrappers in ``SPANS`` record a span per call of the program's public
functions. Metrics are read off the spans of the workload's own traced
passes, or, for code the workload does not run, off a probe pass over a
small seeded corpus. The micro-benchmarks time single layers and the light
network on random inputs at fixed batch sizes, with tracing off.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from murmurkit import aggregate, dataset, dsp, pipeline, quant, resources, uq
from murmurkit.dataset import Split
from murmurkit.nn import network, train
from murmurkit.nn.network import LayerKind, Network, build_model, variant_specs

from stats import median
from tracing import Tracer
from workloads import synth

clock = time.perf_counter

VARIANTS = ("light", "baseline", "heavy")
KINDS = ("conv3x3", "relu", "dropout", "maxpool2x2", "global_avg_pool", "linear")
PROBE_PATIENTS = 20
PROBE_EPOCHS = 1
TRAIN_BATCH = 32
MCD_ROWS = 10
INPUT_SHAPE = resources.DEFAULT_INPUT_SHAPE
# Warm repetitions per layer; a heavy batch-32 pass takes ~3 s, so it gets fewer.
REPS = {"light": 5, "baseline": 5, "heavy": 2}
NETWORK_REPS = 5


# --- span wrappers ---------------------------------------------------------------


def _rows(args, kwargs, result):
    return {"rows": len(args[1]), "mode": kwargs.get("mode", args[2] if len(args) > 2 else "eval")}


def _gate(args, kwargs, result):
    return {"kept": sum(result.kept), "total": len(result.kept)}


def _selective_vote(args, kwargs, result):
    results, policy = args[0], args[1]
    return {
        "fallback": result.confident_ratio < policy.confident_ratio_threshold,
        "segments": len(results),
        "confident": sum(r.confidence >= policy.cs_threshold for r in results),
    }


def _mcd_batch(args, kwargs, result):
    return {"segments": len(args[1])}


def _payload(args, kwargs, result):
    return {"payload_ratio": result.float_payload_bytes / result.int8_payload_bytes}


# (span name, owner, attribute, attribute function)
SPANS = [
    ("dataset.load_recording", dataset, "load_recording", None),
    ("dsp.segment", dsp, "segment", None),
    ("dsp.stft_spectrogram", dsp, "stft_spectrogram", None),
    ("dsp.quality_filter", dsp, "quality_filter", _gate),
    ("dsp.model_input", dsp, "model_input", None),
    ("pipeline.eval_features", pipeline, "eval_features", None),
    ("pipeline.training_features", pipeline, "training_features", None),
    ("pipeline.infer_patients", pipeline, "infer_patients", None),
    ("pipeline.train_run", pipeline, "train_run", None),
    ("pipeline.quantize_run", pipeline, "quantize_run", _payload),
    ("nn.train.fit", train, "fit", None),
    ("nn.train.predict_labels", train, "predict_labels", None),
    ("nn.AdamW.step", train.AdamW, "step", None),
    ("nn.Network.forward", Network, "forward", _rows),
    ("nn.Network.backward", Network, "backward", None),
    ("uq.mcd_predict_batch", uq, "mcd_predict_batch", _mcd_batch),
    ("aggregate.vote_location", aggregate, "vote_location", None),
    ("aggregate.vote_location_selective", aggregate, "vote_location_selective", _selective_vote),
    ("quant.quantize_network", quant, "quantize_network", None),
    ("quant.qforward", quant, "qforward", None),
    ("quant.save_qnetwork", quant, "save_qnetwork", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every public call the per-layer metrics read, plus the feature
    thread pool, whose items become spans parented to the pool call."""
    for name, owner, attr, attrs in SPANS:
        tracer.install(name, owner, attr, attrs)
    original = pipeline._parallel_map

    def parallel_map(fn, items):
        items = list(items)
        idx = tracer.open("pipeline._parallel_map")
        try:
            item = tracer.adopt(tracer.wrap("pipeline.parallel_item", fn), idx)
            return original(item, items)
        finally:
            tracer.close(idx)
            tracer.spans[idx].attrs["workers"] = min(pipeline.worker_count(), len(items))

    tracer.patch(pipeline, "_parallel_map", parallel_map)


MODULES = ("dataset", "dsp", "pipeline", "nn", "uq", "aggregate", "quant")


def module_shares(tracer: Tracer, wall: float) -> dict[str, float]:
    """Self time of each traced module over ``wall``; the rest is untraced code."""
    shares = dict.fromkeys(MODULES, 0.0)
    for name, s in tracer.self_seconds().items():
        module = name.split(".")[0]
        shares[module] += s / wall
    return shares


# --- per-layer metrics from spans --------------------------------------------------
#
# Each group of metrics is read from the workload's own traced passes when
# the workload runs that group's code, and otherwise from a probe pass over
# a small seeded corpus. For a given workload the source never changes, so
# its runs stay comparable; every traced run reports every metric. Seconds
# and counts are per pass.


def dsp_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    spans, selfs = tracer.spans, tracer.self_seconds()
    out = {
        f"{name}.self_s": selfs[name] / passes
        for name in ("dataset.load_recording", "dsp.stft_spectrogram", "dsp.quality_filter", "dsp.model_input")
    }
    gates = [spans[i].attrs for i in tracer.named("dsp.quality_filter")]
    out["dsp.gate_keep_ratio"] = sum(g["kept"] for g in gates) / sum(g["total"] for g in gates)
    busy = capacity = 0.0
    for i in tracer.named("pipeline._parallel_map"):
        capacity += spans[i].duration * spans[i].attrs["workers"]
        busy += sum(s.duration for s in spans if s.parent == i and s.name == "pipeline.parallel_item")
    out["pipeline.parallel_efficiency"] = busy / capacity
    return out


def train_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    spans = tracer.spans
    steps, last_train_fwd = [], None
    for s in spans:
        if s.name == "nn.Network.forward" and s.attrs["mode"] == "train":
            last_train_fwd = s
        elif s.name == "nn.AdamW.step" and last_train_fwd is not None:
            steps.append(s.end - last_train_fwd.start)
            last_train_fwd = None
    fits = set(tracer.named("nn.train.fit"))
    val_predict = sum(
        spans[i].duration for i in tracer.named("nn.train.predict_labels") if spans[i].parent in fits
    )
    return {
        "train.step_ms_p50": median(steps) * 1e3,
        "train.adamw_ms": median(spans[i].duration for i in tracer.named("nn.AdamW.step")) * 1e3,
        "train.val_predict_s": val_predict / passes,
    }


def uq_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    spans = tracer.spans
    segments = sum(spans[i].attrs["segments"] for i in tracer.named("uq.mcd_predict_batch"))
    forwards = [
        i for i in tracer.named("nn.Network.forward") if tracer.within(i, "uq.mcd_predict_batch")
    ]
    votes = [spans[i].attrs for i in tracer.named("aggregate.vote_location_selective")]
    voted = sum(v["segments"] for v in votes)
    return {
        "uq.mcd_predict_batch.self_s": tracer.self_seconds()["uq.mcd_predict_batch"] / passes,
        "uq.forwards_per_segment": len(forwards) / segments,
        "uq.rows_per_forward": sum(spans[i].attrs["rows"] for i in forwards) / len(forwards),
        "aggregate.location_decisions": len(votes) / passes,
        "aggregate.fallback_share": sum(v["fallback"] for v in votes) / len(votes),
        "aggregate.selective_segments": voted / passes,
        "aggregate.confident_share": sum(v["confident"] for v in votes) / voted,
    }


def quant_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    spans, selfs = tracer.spans, tracer.self_seconds()
    runs = tracer.named("pipeline.quantize_run")
    # quantize_run classifies the same Test stack with both paths.
    q = sum(spans[i].duration for i in tracer.named("quant.qforward") if spans[i].parent in runs)
    f = sum(spans[i].duration for i in tracer.named("nn.train.predict_labels") if spans[i].parent in runs)
    return {
        "quant.quantize_network.self_s": selfs["quant.quantize_network"] / passes,
        "quant.qforward.self_s": selfs["quant.qforward"] / passes,
        "quant.qforward_over_float": q / f,
        "quant.payload_ratio": spans[runs[0]].attrs["payload_ratio"],
    }


# group: (span that shows a workload ran the group's code, metric reader)
GROUPS = {
    "dsp": ("dsp.quality_filter", dsp_metrics),
    "train": ("nn.AdamW.step", train_metrics),
    "uq": ("uq.mcd_predict_batch", uq_metrics),
    "quant": ("pipeline.quantize_run", quant_metrics),
}


def probe_pass(seed: int, work: Path, groups: list[str]) -> Tracer:
    """Traced train_run on a small seeded corpus, then selective infer and
    quantize_run with its model when those groups are asked for."""
    manifest_path = synth(work / "probe", PROBE_PATIENTS, seed)
    manifest, base = pipeline.load_manifest_dir(manifest_path)
    cfg = pipeline.PipelineConfig(seed=seed, epochs=PROBE_EPOCHS)
    tracer = Tracer()
    install(tracer)
    try:
        outcome = pipeline.train_run(manifest, base, cfg, work / "probe_run")
        net = network.load_network(outcome.weights_dir)
        if "uq" in groups:
            feats = pipeline.eval_features(manifest, base, Split.VALIDATION, cfg)
            pipeline.infer_patients(net, feats, cfg, selective=True)
        if "quant" in groups:
            pipeline.quantize_run(net, manifest, base, cfg, work / "probe_quant")
    finally:
        tracer.uninstall()
    return tracer


def span_metrics(workload: Tracer, passes: int, seed: int, work: Path) -> dict[str, float]:
    missing = [g for g, (marker, _) in GROUPS.items() if not workload.named(marker)]
    probe = probe_pass(seed, work, missing) if missing else None
    out: dict[str, float] = {}
    for group, (_, read) in GROUPS.items():
        out.update(read(probe, 1) if group in missing else read(workload, passes))
    return out


# --- layer micro-benchmarks ----------------------------------------------------


def _timed(fn) -> float:
    t0 = clock()
    fn()
    return clock() - t0


def layer_times(variant: str, batch: int, reps: int, seed: int, mode: str) -> dict[str, dict[str, float]]:
    """Median ms per layer kind, summed over the variant's layers of that kind.

    Each layer runs alone on a random input of the shape it sees inside the
    network, so only one layer's workspaces are alive at a time (heavy at
    batch 32 would otherwise hold every layer's im2col at once).
    ``mode`` "train" times forward and backward, "mcd" times the
    dropout-active forward only.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    net = build_model(variant, seed=seed)
    report = resources.analyze(net, input_shape=INPUT_SHAPE)
    shape = (batch, *INPUT_SHAPE)
    fwd = dict.fromkeys(KINDS, 0.0)
    bwd = dict.fromkeys(KINDS, 0.0)
    train = mode == "train"
    for i, (spec, res) in enumerate(zip(net.specs, report.per_layer)):
        layer, net.layers[i] = net.layers[i], None  # freed, workspaces too, after timing
        if layer is None:  # softmax
            continue
        x = rng.standard_normal(shape).astype(np.float32)
        out_shape = (batch, *res.out_shape)
        if spec.kind is LayerKind.LINEAR:
            out_shape = (batch, spec.out_ch)
        grad = rng.standard_normal(out_shape).astype(np.float32)
        if spec.kind is LayerKind.DROPOUT:
            forward = lambda: layer.forward(x, train, active=True, rng=rng)  # noqa: E731
        else:
            forward = lambda: layer.forward(x, train)  # noqa: E731
        f, b = [], []
        for _ in range(reps + 1):  # the first repetition allocates workspaces
            f.append(_timed(forward))
            if train:
                b.append(_timed(lambda: layer.backward(grad)))
        fwd[spec.kind.value] += median(f[1:]) * 1e3
        if train:
            bwd[spec.kind.value] += median(b[1:]) * 1e3
        shape = out_shape
        del layer, x, grad
    return {"fwd_ms": fwd, "bwd_ms": bwd}


def conv_gflops(variant: str, batch: int, conv_fwd_ms: float) -> float:
    specs = variant_specs(network.Variant(variant))
    report = resources.analyze(specs, input_shape=INPUT_SHAPE)
    macc = sum(r.macc for s, r in zip(specs, report.per_layer) if s.kind is LayerKind.CONV3X3)
    return 2.0 * macc * batch / (conv_fwd_ms * 1e-3) / 1e9


def network_times(seed: int) -> dict[str, float]:
    """Light network: train forward and backward and eval forward at batch
    32, MC-dropout forward at 10 rows (one segment's passes)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 8)))
    net = build_model("light", seed=seed)
    x = rng.standard_normal((TRAIN_BATCH, *INPUT_SHAPE)).astype(np.float32)
    y = rng.integers(0, 2, TRAIN_BATCH)
    x_mcd = np.broadcast_to(x[:1], (MCD_ROWS, *INPUT_SHAPE)).copy()
    fwd_train, bwd, fwd_eval, fwd_mcd = [], [], [], []
    for _ in range(NETWORK_REPS + 1):
        fwd_train.append(_timed(lambda: net.forward(x, mode="train", rng=rng)))
        bwd.append(_timed(lambda: net.backward(y)))
        fwd_eval.append(_timed(lambda: net.forward(x, mode="eval")))
        fwd_mcd.append(_timed(lambda: net.forward(x_mcd, mode="mcd", rng=rng)))
    return {
        "network.forward_train_ms": median(fwd_train[1:]) * 1e3,
        "network.backward_ms": median(bwd[1:]) * 1e3,
        "network.forward_eval_ms": median(fwd_eval[1:]) * 1e3,
        "network.forward_mcd_ms": median(fwd_mcd[1:]) * 1e3,
    }


def layer_metrics(seed: int) -> dict[str, float]:
    out: dict[str, float] = {}
    for variant in VARIANTS:
        t = layer_times(variant, TRAIN_BATCH, REPS[variant], seed, "train")
        for kind in KINDS:
            out[f"layers.{variant}.{kind}.fwd_ms"] = t["fwd_ms"][kind]
            out[f"layers.{variant}.{kind}.bwd_ms"] = t["bwd_ms"][kind]
        out[f"layers.{variant}.conv3x3.gflops"] = conv_gflops(variant, TRAIN_BATCH, t["fwd_ms"]["conv3x3"])
    t = layer_times("light", MCD_ROWS, REPS["light"], seed, "mcd")
    for kind in KINDS:
        out[f"layers.light.{kind}.mcd_fwd_ms"] = t["fwd_ms"][kind]
    out.update(network_times(seed))
    return out
