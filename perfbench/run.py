"""murmurkit benchmark: one workload per run, closed loop, outputs checked.

    python3 perfbench/run.py --workload infer_selective --seed 3 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. ``--trace 0`` measures the end-to-end metrics with the program
untouched. ``--trace 1`` is the separate traced run: it reports the
per-layer metrics and the tracing overhead instead. The last line of
standard output is one JSON object; the lines before it name every metric
with its unit, plus facts about the host and the outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench_work"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MURMUR_THREADS")
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# The declared contract: workloads, metric names, units and bounds.
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(kind: str) -> dict[str, str]:
    """name: unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in SPEC[kind]}


# --- host ---------------------------------------------------------------------


def cap_threads() -> dict[str, str]:
    """Cap feature and BLAS threads at the affinity core count; must run
    before numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), cores) if current.isdigit() and int(current) > 0 else cores
        os.environ[var] = str(cap)
    return {var: os.environ[var] for var in THREAD_VARS}


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_facts(caps: dict[str, str]) -> dict:
    """Information only, never gated."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_caps": caps,
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- the run --------------------------------------------------------------------


def build_inputs(name: str, seed: int, work: Path) -> dict:
    """The inputs, built in a child process, waited for: its memory must not
    count in peak_rss_mb."""
    done = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), name, str(seed), str(work)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"set-up exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """Returns (result, info): the JSON result line and the informational facts."""
    import probes
    import stats
    import workloads
    from tracing import Tracer

    built = build_inputs(name, seed, work)
    wl = workloads.WORKLOADS[name](seed, work, built)
    warm = workloads.Tally()
    wl.warm_up(warm)
    tally = workloads.Tally()
    info: dict = {k: built[k] for k in ("fixture_train_s",) if k in built}

    if not trace:
        setups: list[float] = []

        def set_up_again(k: int) -> None:
            for _ in range(workloads.SETUP_REPS_PER_PASS):
                setups.append(workloads.timed_setup(name, seed, work, built.get("weights")))

        workloads.closed_loop(wl, seconds, tally, between=set_up_again)
        metrics = {
            "setup_s": stats.median(setups),
            "wall_s": stats.median(tally.pass_s),
            "segments_per_s": stats.median(
                n / s for n, s in zip(tally.pass_segments, tally.pass_s)
            ),
            "peak_rss_mb": peak_rss_mb(),
        }
        declared = units("end_to_end")
        if tally.patient_ms:
            pct, value = stats.tail(tally.patient_ms)
            info["patient_ms_p50"] = stats.median(tally.patient_ms)
            info["patient_ms_tail"] = value
            info["patient_ms_tail_percentile"] = pct
            info["patient_ms_samples"] = len(tally.patient_ms)
    else:
        # Even passes run untraced, odd ones traced; their ratio is the overhead.
        tracer = Tracer()

        def between(k: int) -> None:
            tracer.uninstall()
            if k % 2 == 1:
                probes.install(tracer)

        try:
            workloads.closed_loop(wl, seconds, tally, between=between, min_passes=2)
        finally:
            tracer.uninstall()
        plain, with_trace = tally.pass_s[0::2], tally.pass_s[1::2]
        for module, share in probes.module_shares(tracer, sum(with_trace)).items():
            info[f"share.{module}"] = share
        metrics = probes.span_metrics(tracer, len(with_trace), seed, work)
        metrics.update(probes.layer_metrics(seed))
        metrics["trace.overhead_ratio"] = stats.median(with_trace) / stats.median(plain)
        declared = units("per_layer")

    attempted = warm.attempted + tally.attempted
    failed = warm.failed + tally.failed
    info["failed_ratio"] = failed / attempted
    info["passes"] = len(tally.pass_s)
    info.update(wl.info)
    missing = set(declared) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in declared.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "murmurkit" / "__init__.py").is_file():
        print(f"error: no murmurkit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    caps = cap_threads()
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = host_facts(caps)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for key, value in {**facts, **info}.items():
        print(f"info {key} {json.dumps(value)}")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
