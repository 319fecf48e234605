"""The workloads: seeded inputs, set-up, the timed loop and output checks.

Each workload is an offline batch job driven as a closed loop by one
client: the next call starts when the previous one returns. One *pass* is
the unit the loop repeats; ``wall_s`` is the median pass time.

Everything a workload touches is derived from the run seed: the synthetic
corpus is ``synth_corpus(seed)`` and every ``PipelineConfig`` carries the
same seed, so one seed always gives the same inputs and the same outputs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from murmurkit import pipeline
from murmurkit.dataset import MurmurLabel, Split
from murmurkit.nn import TrainConfig, build_model, fit, load_network

clock = time.perf_counter

EPOCHS = 2
# Set-ups timed before every timed pass. They are spread over the run
# because a shared machine's speed drifts over seconds: on a 2-core Xeon VM,
# seven train_light set-ups in a row (about 1.5 s) had a median of 0.17 s
# in one run and 0.24 s in the next, for the same seed.
SETUP_REPS_PER_PASS = 2
MIN_AGREEMENT = 0.95
EVAL_SPLITS = (Split.VALIDATION, Split.TEST)

# Corpus sizes. infer_selective needs a model that is actually trained, and
# its int8 twin is held to the program's gates: FIXTURE_EPOCHS on 60
# patients passed the 0.95 int8 agreement gate on every seed tried (2 epochs
# failed on 1 seed of 17, and smaller corpora often predicted a single class).
FIXTURE_EPOCHS = 3
PATIENTS = {"train_light": 30, "infer_selective": 60}
# Every recording lasts the mean of synth_corpus' default 6-9 s draw, so each
# seed gives the same number of segments and so the same amount of work:
# with random lengths, train_light's time and peak RSS moved by a third
# between seeds. The seed still decides every sample.
DURATION_S = (7.5, 7.5)


def synth(out: Path, patients: int, seed: int) -> Path:
    return pipeline.synth_corpus(out, patients, seed, duration_range_s=DURATION_S)


class CheckFailed(Exception):
    """An output check did not hold."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def config(seed: int) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig(seed=seed, epochs=EPOCHS, variant="light")


def dir_sha256(path: Path) -> str:
    """Digest over the names and bytes of every file below ``path``."""
    h = hashlib.sha256()
    for f in sorted(p for p in Path(path).rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode())
        h.update(f.read_bytes())
    return h.hexdigest()


# --- set-up (runs in a child process, so its memory stays out of peak_rss) ----


def setup(name: str, seed: int, work: str) -> dict:
    """Build the run's inputs once, untimed: the seeded corpus plus, for
    infer_selective, trained weights.

    Those weights come from one ``train_run`` on the corpus; it is timed
    apart as ``fixture_train_s``, because training is what train_light
    measures. Their int8 twin from ``quantize_run`` is made here too, so
    that its memory stays out of the measuring process; the workload checks
    its gates.
    """
    work_dir = Path(work)
    manifest_path = synth(work_dir / "corpus", PATIENTS[name], seed)
    out = {"manifest": str(manifest_path)}
    if name == "infer_selective":
        manifest, base = pipeline.load_manifest_dir(manifest_path)
        t0 = clock()
        cfg = replace(config(seed), epochs=FIXTURE_EPOCHS)
        outcome = pipeline.train_run(manifest, base, cfg, work_dir / "fixture")
        out["fixture_train_s"] = clock() - t0
        out["weights"] = str(outcome.weights_dir)
        out["weights_sha256"] = dir_sha256(outcome.weights_dir)
        q = pipeline.quantize_run(
            load_network(outcome.weights_dir), manifest, base, config(seed), work_dir / "fixture_int8"
        )
        out["int8_payload_ratio"] = q.float_payload_bytes / q.int8_payload_bytes
        out["int8_agreement"] = q.agreement
        out["qweights_sha256"] = dir_sha256(q.qweights_dir)
    return out


def timed_setup(name: str, seed: int, work: Path, weights: str | None) -> float:
    """One set-up as ``setup_s`` times it: synthesizing the seeded corpus and
    reading its manifest, plus loading the weights when the workload has them."""
    out = work / "setup_again"
    t0 = clock()
    pipeline.load_manifest_dir(synth(out, PATIENTS[name], seed))
    if weights is not None:
        load_network(weights)
    elapsed = clock() - t0
    shutil.rmtree(out)
    return elapsed


# --- the timed loop -----------------------------------------------------------


@dataclass
class Tally:
    """What the timed phase did: pass times, call latencies and failures."""

    pass_s: list[float] = field(default_factory=list)
    pass_segments: list[int] = field(default_factory=list)
    patient_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def call(self, fn, *args, **kwargs):
        """Run one call of the closed loop, counting it."""
        self.attempted += 1
        return fn(*args, **kwargs)


class Workload:
    """One pass of work over a prepared state, plus its checks."""

    def __init__(self, seed: int, work: Path, built: dict):
        self.work = work
        self.cfg = config(seed)
        self.manifest, self.base = pipeline.load_manifest_dir(built["manifest"])
        self.built = built
        self.info: dict = {}
        self.first_digest: str | None = None

    def warm_up(self, tally: Tally) -> None:
        """Untimed work before the timed phase: fills caches, loads models."""
        raise NotImplementedError

    def one_pass(self, tally: Tally) -> int:
        """Run one pass; returns the segments it processed."""
        raise NotImplementedError

    def same_every_pass(self, digest: str, what: str) -> None:
        """Check that a pass reproduced the first timed pass's output."""
        if self.first_digest is None:
            self.first_digest = digest
        check(digest == self.first_digest, f"{what} differ between passes of one seed")

    def eval_split_features(self, tally: Tally):
        return [
            pf
            for split in EVAL_SPLITS
            for pf in tally.call(pipeline.eval_features, self.manifest, self.base, split, self.cfg)
        ]


class TrainLight(Workload):
    """pipeline.train_run, light variant, EPOCHS epochs."""

    def warm_up(self, tally: Tally) -> None:
        x, y = pipeline.training_features(self.manifest, self.base, self.cfg)
        self.train_segments = len(x)
        # A short fit warms BLAS and the allocator at a fraction of a pass.
        fit(build_model("light", seed=0), x[:64], y[:64], x[:32], y[:32], TrainConfig(epochs=1))

    def one_pass(self, tally: Tally) -> int:
        outcome = tally.call(pipeline.train_run, self.manifest, self.base, self.cfg, self.work / "train")
        history = outcome.history
        check(len(history.epochs) == EPOCHS, "train_run ran the wrong number of epochs")
        check(all(np.isfinite(e.train_loss) for e in history.epochs), "non-finite training loss")
        check(outcome.val_patient_metrics is not None, "no validation patient metrics")
        digest = dir_sha256(outcome.weights_dir)
        self.same_every_pass(digest, "weights")
        self.info["weights_sha256"] = digest
        self.info["val_f1"] = history.epochs[history.best_epoch - 1].val_f1
        return self.train_segments * EPOCHS


class InferSelective(Workload):
    """eval_features, then selective infer_patients one patient at a time."""

    def warm_up(self, tally: Tally) -> None:
        self.net = load_network(self.built["weights"])
        for key in ("weights_sha256", "qweights_sha256", "int8_agreement"):
            self.info[key] = self.built[key]
        # The set-up's quantize_run counts as one call of the run.
        tally.attempted += 1
        ratio, agreement = self.built["int8_payload_ratio"], self.built["int8_agreement"]
        if ratio != 4.0 or agreement < MIN_AGREEMENT:
            print(f"int8 gates failed: payload ratio {ratio}, agreement {agreement}", file=sys.stderr)
            tally.failed += 1
        # The reference is one all-at-once call over the Test split; every
        # per-patient call must reproduce its share of it exactly. Adding
        # Validation would make the warm-up cost a whole pass.
        test = tally.call(pipeline.eval_features, self.manifest, self.base, Split.TEST, self.cfg)
        self.all_at_once = tally.call(pipeline.infer_patients, self.net, test, self.cfg, selective=True)

    def one_pass(self, tally: Tally) -> int:
        feats = self.eval_split_features(tally)
        segments, results = 0, []
        for pf in feats:
            t0 = clock()
            got = tally.call(pipeline.infer_patients, self.net, [pf], self.cfg, selective=True)
            tally.patient_ms.append((clock() - t0) * 1e3)
            if pf.patient_id in self.all_at_once.truths:
                want_pred = [p for p in self.all_at_once.predictions if p.patient_id == pf.patient_id]
                want_rows = [r for r in self.all_at_once.uq_rows if r.patient_id == pf.patient_id]
                check(got.predictions == want_pred, f"{pf.patient_id}: prediction differs from all-at-once")
                check(got.uq_rows == want_rows, f"{pf.patient_id}: uq rows differ from all-at-once")
            results.append(got)
            segments += sum(len(lf.inputs) for lf in pf.locations)
        merged = pipeline.InferenceResult(
            predictions=[p for r in results for p in r.predictions],
            truths={pid: label for r in results for pid, label in r.truths.items()},
            patient_metrics=None,
            uq_rows=[row for r in results for row in r.uq_rows],
        )
        digest = hashlib.sha256(pipeline.infer_report(merged, self.cfg).encode()).hexdigest()
        self.same_every_pass(digest, "infer reports")
        known = [p for p in merged.predictions if merged.truths[p.patient_id] is not MurmurLabel.UNKNOWN]
        check(bool(known), "no Known patient was classified")
        self.info["infer_report_sha256"] = digest
        self.info["patient_accuracy"] = sum(p.label is merged.truths[p.patient_id] for p in known) / len(known)
        return segments


WORKLOADS = {
    "train_light": TrainLight,
    "infer_selective": InferSelective,
}


def run_pass(wl: Workload, tally: Tally) -> float:
    """One timed pass; a failure is counted, reported and the loop goes on
    (the pass is then recorded with zero segments)."""
    before = tally.attempted
    t0 = clock()
    try:
        segments = wl.one_pass(tally)
    except Exception:  # the loop must survive a failing call to count it
        traceback.print_exc(file=sys.stderr)
        tally.failed += 1
        tally.attempted = max(tally.attempted, before + 1)
        segments = 0
    wall = clock() - t0
    tally.pass_s.append(wall)
    tally.pass_segments.append(segments)
    return wall


def closed_loop(wl: Workload, seconds: float, tally: Tally, between=None, min_passes: int = 1) -> None:
    """Repeat passes for about ``seconds``: at least ``min_passes``, then
    none that would be expected to end past the budget. ``between(k)`` runs
    before pass ``k``."""
    t0 = clock()
    walls: list[float] = []
    while True:
        if between is not None:
            between(len(walls))
        walls.append(run_pass(wl, tally))
        elapsed = clock() - t0
        if len(walls) >= min_passes and elapsed + float(np.median(walls)) > seconds:
            return


if __name__ == "__main__":
    # run.py starts the set-up here, in a child process: workloads.py NAME SEED WORK_DIR
    print(json.dumps(setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])))
