"""temporalkit benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload train-tin --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with nothing wrapped, scaled to
a reference host speed by a probe timed between units (speed.py). `--trace 1`
alternates untraced units with units that have every layer wrapped, and
reports per-layer metrics plus the tracing overhead. `--workload all` runs
each workload in its own child process. The last line of standard output
is the result as one JSON object; the run's provenance, quality figures and
gate notes go to `perfbench/_out/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import mean, median

# numpy (and through it OpenBLAS) is imported inside functions, only after
# import_program() has fixed the BLAS thread count.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "_out"
WORK = ROOT / "perfbench" / "_work"
WORKLOAD_NAMES = ("train-tin", "eval-dense-repeat", "eval-dense-distinct", "gradcheck")
TAIL_PERCENTILE = 95

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "peak_rss_mib": "MiB",
}
EXTRA_LAYER = {
    "ops.conv2d.fwd.gflop_s": "GFLOP/s",
    "ops.conv2d.bwd.gflop_s": "GFLOP/s",
    "model.backbone_forward.clips_per_call": "clips",
    "sampling.dense_distinct_view_share": "fraction",
    "train.data_share": "fraction",
    "trace.overhead_share": "fraction",
}
# Workload outputs; a traced run reports them as quality.<name>, 0 where absent.
QUALITY = {"loss_final": "loss", "sample_map": "mAP", "max_scaled_err": "ratio"}
DATA_SPANS = ("sampling.train_augment_view", "videofile.materialize_view", "videofile.load_video")


def per_layer_units(span_names) -> dict[str, str]:
    units = {}
    for name in span_names:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_ms"] = "ms/op"
    units.update(EXTRA_LAYER)
    units.update({f"quality.{k}": u for k, u in QUALITY.items()})
    return units


def import_program():
    """Import temporalkit from this checkout's src/, never from elsewhere.

    OpenBLAS gets one thread unless the environment says otherwise: on a
    2-vCPU machine a second, spinning BLAS thread widened the run-to-run
    spread and bought no speed at these GEMM sizes (see README.md).
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if not (SRC / "temporalkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no temporalkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import temporalkit

    if Path(temporalkit.__file__).resolve().parent != SRC / "temporalkit":
        sys.exit(f"perfbench: imported temporalkit from {temporalkit.__file__}, not {SRC}")


def run_units(workload, seconds: float, probe, setup: list) -> list:
    """Whole units for about `seconds`: the next one starts only if at least
    half of it is expected to fit.

    Set-up is also timed before every unit, so its samples spread over the
    run as the machine's speed drifts, and appended to `setup` as
    (seconds, end time) pairs. The host-speed probe (speed.py) runs after
    each batch of set-ups, inside a unit where it has steps to pause
    between, and after each unit.
    """
    units = []
    t0 = time.perf_counter()
    while len(units) < workload.min_units or (
            time.perf_counter() - t0 + units[-1].seconds / 2 < seconds):
        samples = workload.setup_samples(workload.setups_per_unit)
        end = time.perf_counter()
        setup += [(s, end) for s in samples]
        probe.sample()
        units.append(workload.unit(pause=probe.sample))
        probe.sample()
    setup += [(u.setup, u.window[0]) for u in units if u.setup is not None]
    return units


def run_pairs(workload, seconds: float, tracer) -> tuple[list, list]:
    """Alternate untraced and traced units for about `seconds`, so that both
    sides see the same drift of the host's speed."""
    untraced, traced = [], []
    t0 = time.perf_counter()
    while len(untraced) < workload.min_units or (
            time.perf_counter() - t0 + (untraced[-1].seconds + traced[-1].seconds) / 2 < seconds):
        untraced.append(workload.unit())
        with tracer.installed():
            traced.append(workload.unit(tracer))
    return untraced, traced


def ops_per_s(units) -> float:
    return sum(u.ops for u in units) / sum(u.seconds for u in units)


def end_to_end(units, setup, scale_at) -> tuple[dict, dict]:
    """The end-to-end figures, with each time multiplied by `scale_at` of
    the moment it ended."""
    import numpy as np

    steps_ms = np.array([s * scale_at(e) for u in units for s, e in zip(u.steps, u.ends)]) * 1000.0
    tail = float(np.percentile(steps_ms, TAIL_PERCENTILE))
    busy = sum(u.seconds * mean(scale_at(e) for e in u.ends) for u in units)
    values = {
        "setup_s": median(s * scale_at(e) for s, e in setup),
        "ops_per_s": sum(u.ops for u in units) / busy,
        "step_ms_p50": float(np.percentile(steps_ms, 50)),
        "step_ms_p95": tail,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "units": len(units),
        "operations": sum(u.ops for u in units),
        "step_samples": int(steps_ms.size),
        "tail_percentile": TAIL_PERCENTILE,
        "step_samples_beyond_tail": int((steps_ms > tail).sum()),
        "setup_samples": len(setup),
    }
    return values, counts


def layer_metrics(tracer, traced, untraced) -> dict:
    """Per-operation layer figures from the traced units of a run."""
    import tracer as tr

    ops = sum(u.ops for u in traced)
    spans = tracer.spans
    selfs = tr.self_times(spans)
    calls, self_ns = {}, {}
    for rec, s in zip(spans, selfs):
        calls[rec[tr.NAME]] = calls.get(rec[tr.NAME], 0) + 1
        self_ns[rec[tr.NAME]] = self_ns.get(rec[tr.NAME], 0) + s
    out = {}
    for name in tr.span_names():
        out[f"{name}.calls"] = calls.get(name, 0) / ops
        out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6 / ops
    for direction in ("fwd", "bwd"):
        busy = sum(v for k, v in self_ns.items()
                   if k.startswith("ops.conv2d.") and k.endswith("." + direction))
        out[f"ops.conv2d.{direction}.gflop_s"] = tracer.conv_flops[direction] / busy if busy else 0.0
    forwards = calls.get("model.backbone_forward", 0)
    out["model.backbone_forward.clips_per_call"] = tracer.clips / forwards if forwards else 0.0
    out["sampling.dense_distinct_view_share"] = (
        tracer.plan_distinct / tracer.plan_views if tracer.plan_views else 0.0)
    windows = [(u.window[0] * 1e9, u.window[1] * 1e9) for u in traced if u.window]
    data_ns = sum(
        rec[tr.END] - rec[tr.START] for i, rec in enumerate(spans)
        if rec[tr.NAME] in DATA_SPANS
        and any(w0 <= rec[tr.START] and rec[tr.END] <= w1 for w0, w1 in windows)
        and not tr.has_ancestor(spans, i, DATA_SPANS + ("evaluate.evaluate_predictions",))
    )
    step_ns = sum(w1 - w0 for w0, w1 in windows)
    out["train.data_share"] = data_ns / step_ns if step_ns else 0.0
    out["trace.overhead_share"] = 1.0 - ops_per_s(traced) / ops_per_s(untraced)
    return out


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": None, "version": None}
    digest = hashlib.sha256()
    for path in sorted((SRC / "temporalkit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def measure(wl, seconds: int, trace: int, tag: str, probe) -> tuple[dict, dict, dict]:
    """Run the timed units; returns (metric values, units, report entries)."""
    import selftest
    import tracer as tr

    if not trace:
        setup = []
        units = run_units(wl, seconds, probe, setup)
        values, counts = end_to_end(units, setup, probe.scale_at)
        wall, _ = end_to_end(units, setup, lambda end: 1.0)
        return values, END_TO_END, {
            "counts": counts, "wall_clock": wall, "speed": probe.summary(), "checks": {}}

    tracer = tr.Tracer()
    before = selftest.binding_snapshot()
    with tracer.installed():
        wl.setup_samples(1)  # so set-up layers (dataset open, checkpoint load) show too
    untraced, traced = run_pairs(wl, seconds, tracer)
    checks = {
        "wrappers_restored": selftest.binding_snapshot() == before,
        "self_time_rule": selftest.self_time_case_ok(),
    }
    tracer.dump(OUT / f"{tag}-spans.jsonl.gz")
    values = layer_metrics(tracer, traced, untraced)
    return values, per_layer_units(tr.span_names()), {
        "missing_bindings": tracer.missing, "checks": checks}


def run_one(name: str, seed: int, seconds: int, trace: int) -> int:
    import_program()
    import speed
    import workloads

    WORK.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    tag = f"{name}-seed{seed}-trace{trace}"
    try:
        probe = speed.Probe()  # first, so its memory is in every peak RSS reading
        wl = workloads.WORKLOADS[name](work, seed)
        wl.prepare()
        wl.warmup()
        values, units_of, report = measure(wl, seconds, trace, tag, probe)
        gate = wl.gate()
        report["checks"]["corrupted_output_counted"] = wl.corrupted_gate().failed > gate.failed
        quality = wl.quality()
        values.update({f"quality.{k}": quality.get(k, 0.0) for k in QUALITY})
        result = {
            "correct": gate.failed == 0 and all(report["checks"].values()),
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units_of.items()},
        }
        report.update({
            "provenance": provenance(name, seed, seconds, trace),
            "quality": quality,
            "failed_ratio": gate.failed / gate.attempted,
            "gate_notes": gate.notes[:20],
        })
        (OUT / f"{tag}.json").write_text(json.dumps({**report, "result": result}, indent=1) + "\n")
        print(json.dumps(report))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        last = proc.stdout.strip().splitlines()[-1:] or ["<no output>"]
        print(f"{name}\t{last[0]}")
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            status = proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
