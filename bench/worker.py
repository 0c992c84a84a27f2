"""One workload in one fresh interpreter: repeated in-process ``spde1d`` calls.

Started by run_bench.py with PYTHONPATH pointing at the checkout's ``src``.
Each iteration calls ``spde1d.cli.main`` on the next job, times the call,
times the calibration loop after it, then (outside the timed region) checks
the outputs and hashes them.  With --trace the engine's functions are
wrapped in spans first; spans are kept in memory and saved when the run
ends.  The result is written as JSON to --result; nothing is printed.

    python3 bench/worker.py --workload heat_mc --seed 0 --seconds 10 \
        --work bench/results/work --result out.json [--trace --spans s.npz]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy.fft

import workloads
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
BOUND_FUNCTIONS = ("bound_upper_temporal", "bound_lower_temporal", "bound_lower_spatial",
                   "bound_upper_spatial", "bounds_full")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(shape) -> int:
    return math.prod(shape[:-1])


def _count_normals(counts, args, kwargs, result):
    counts["noise.normals"] += int(np.size(result))


def _count_steps(counts, args, kwargs, result):
    # every leading dimension of dw is a step (a batched kernel adds a path axis)
    counts["scheme.steps"] += _rows(np.shape(_arg(args, kwargs, 2, "dw")))
    counts["scheme.suppressed"] += int(np.sum(result[2]))


def _count_project_rows(counts, args, kwargs, result):
    counts["nonlinearity.project_F.rows"] += _rows(np.shape(_arg(args, kwargs, 0, "coeffs")))


def _modes(args, kwargs):
    return int(np.shape(_arg(args, kwargs, 0, "coeffs"))[-1])


def _count_dst_out(counts, args, kwargs, result):
    counts["spectral.dst_points"] += int(np.size(result))  # rows x (G-1) grid values


def _count_dst_in(counts, args, kwargs, result):
    counts["spectral.dst_points"] += int(np.size(_arg(args, kwargs, 0, "values")))


def _count_bytes(counts, args, kwargs, result):
    counts["experiments.write_text_atomic.bytes"] += len(
        _arg(args, kwargs, 1, "text").encode("utf-8"))


def install_spans(tracer: Tracer):
    """Wrap each layer at the name its callers look up; return traced cli.main."""
    from spde1d import cli, experiments, heat_errors, scheme, spectral
    from spde1d.noise import NoiseTape

    tracer.patch(NoiseTape, "master_increments", "noise.master_increments",
                 count=_count_normals)
    tracer.patch(experiments, "run_scheme", "scheme.run_scheme", count=_count_steps)
    tracer.patch(scheme, "project_F", "nonlinearity.project_F",
                 count=_count_project_rows, detail=_modes)
    tracer.patch(spectral, "to_grid", "spectral.to_grid", count=_count_dst_out)
    tracer.patch(spectral, "from_grid", "spectral.from_grid", count=_count_dst_in)
    tracer.patch(experiments, "run_convergence_study", "experiments.run_convergence_study")
    tracer.patch(experiments, "write_text_atomic", "experiments.write_text_atomic",
                 count=_count_bytes)
    for name in ("temporal_error_exact", "spatial_error_exact", *BOUND_FUNCTIONS):
        tracer.patch(heat_errors, name, f"heat_errors.{name}")
    return tracer.wrap("cli.main", cli.main)


def layer_metrics(agg: dict) -> dict:
    """Per-layer metrics of one traced call from its span aggregate."""
    spans, counts = agg["spans"], agg["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("noise.master_increments", "scheme.run_scheme", "nonlinearity.project_F",
                 "heat_errors.temporal_error_exact", "heat_errors.spatial_error_exact"):
        m[f"{name}.calls"] = spans[name]["calls"]
    for name in ("noise.master_increments", "scheme.run_scheme", "nonlinearity.project_F",
                 "spectral.to_grid", "spectral.from_grid", "experiments.run_convergence_study",
                 "heat_errors.temporal_error_exact", "heat_errors.spatial_error_exact",
                 "cli.main"):
        m[f"{name}.self_s"] = spans[name]["self_s"]
    m["noise.normals_per_s"] = ratio(counts.get("noise.normals", 0),
                                     spans["noise.master_increments"]["total_s"])
    steps = counts.get("scheme.steps", 0)
    m["scheme.steps"] = steps
    m["scheme.steps_per_s"] = ratio(steps, spans["scheme.run_scheme"]["total_s"])
    m["scheme.drift_on_ratio"] = ratio(steps - counts.get("scheme.suppressed", 0), steps)
    m["nonlinearity.project_F.rows"] = counts.get("nonlinearity.project_F.rows", 0)
    for n in workloads.PROJECT_F_MODES:
        m[f"nonlinearity.project_F.self_s.N{n}"] = agg["self_by_detail"].get(
            f"nonlinearity.project_F.{n}", 0.0)
    m["spectral.dst_points"] = counts.get("spectral.dst_points", 0)
    m["experiments.write_text_atomic.s"] = spans["experiments.write_text_atomic"]["total_s"]
    m["experiments.write_text_atomic.bytes"] = counts.get(
        "experiments.write_text_atomic.bytes", 0)
    m["heat_errors.bounds.self_s"] = sum(
        spans[f"heat_errors.{name}"]["self_s"] for name in BOUND_FUNCTIONS)
    return m


def calibration_seconds(steps: int = 1500) -> float:
    """Time a fixed loop that owes nothing to spde1d: the machine's speed now.

    It mixes what the workloads spend their time on (small numpy vector
    ops, DST-I transforms, scalar math in Python) so that a host that slows
    down or speeds up between runs moves it the same way.
    """
    rng = np.random.default_rng(2024)
    n = 64
    decay = np.exp(-np.arange(1, n + 1) * 0.05)
    noise = rng.standard_normal((steps, n)) * 0.01
    y, pad = np.zeros(n), np.zeros(4 * n)
    acc = 0.0
    t0 = time.perf_counter()
    for m in range(steps):
        y = decay * y + noise[m]
        acc += math.sqrt(float(np.dot(y, y)))
        pad[:n] = y
        u = scipy.fft.dst(pad, type=1)
        y = y + 1e-3 * scipy.fft.dst(u - u**3, type=1)[:n] / (8 * n)
        acc += math.fsum([math.exp(-k * acc * 1e-6) for k in range(16)])
    return time.perf_counter() - t0


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads_env": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def run(args) -> dict:
    import spde1d
    from spde1d import cli

    src = Path(spde1d.__file__).resolve().parent
    if src != SRC / "spde1d":
        raise SystemExit(f"worker: imported spde1d from {src}, not from {SRC}")
    tracer = Tracer() if args.trace else None
    main = install_spans(tracer) if tracer else cli.main
    records, walls = [], []
    t_begin = time.perf_counter()
    cal_before = calibration_seconds()
    while True:
        if args.iterations:
            if len(records) >= args.iterations:
                break
        elif walls and time.perf_counter() - t_begin + statistics.median(walls) > args.seconds:
            break
        job = workloads.make_job(args.workload, args.seed, len(records), Path(args.work))
        for path in job.outputs:  # a stale file must not pass a failed call's check
            path.unlink(missing_ok=True)
        mark = tracer.mark() if tracer else None
        error = None
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if tracer:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                rc = main(job.argv)
            except SystemExit as exc:  # argparse rejecting the command line
                rc = exc.code
            except Exception:  # a crashed call counts all its checks as failed
                rc, error = None, traceback.format_exc(limit=5)
            wall = time.perf_counter() - t0
            if tracer:
                tracer.enabled = False
        # the host's speed, taken on both sides of the call
        cal_after = calibration_seconds()
        calibration, cal_before = (cal_before + cal_after) / 2, cal_after
        record = {"job": job.label, "wall_s": wall, "calibration_s": calibration,
                  "items": job.items, "rc": rc, "error": error}
        if rc == 0:
            try:
                attempted, failed, values = job.check(job)
                record["digests"] = {p.name: _digest(p) for p in job.outputs}
            except (OSError, ValueError, KeyError) as exc:
                attempted, failed, values = job.n_checks, ["unreadable_output"] * job.n_checks, {}
                record["error"] = repr(exc)
        else:
            attempted, failed, values = job.n_checks, ["nonzero_exit"] * job.n_checks, {}
        record.update(attempted=attempted, failed=len(failed),
                      failed_checks=sorted(set(failed)), values=values)
        if tracer:
            record["layers"] = layer_metrics(tracer.aggregate(mark))
        records.append(record)
        walls.append(wall)
    if tracer and args.spans:
        tracer.save(args.spans)
    return {"workload": args.workload, "seed": args.seed, "traced": bool(tracer),
            "engine": str(src), "env": environment(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "iterations": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--iterations", type=int, default=0,
                        help="run exactly this many calls instead of --seconds")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where a traced run saves its spans (.npz)")
    parser.add_argument("--work", required=True, help="directory for configs and outputs")
    parser.add_argument("--result", required=True, help="JSON file to write the result to")
    args = parser.parse_args(argv)
    result = run(args)
    Path(args.result).write_text(json.dumps(result, indent=1, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
