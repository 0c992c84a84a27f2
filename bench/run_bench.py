"""spde1d benchmark: end-to-end metrics, or a traced per-layer breakdown.

    python3 bench/run_bench.py --workload ac_converge --seed 0 --seconds 30 --trace 0
    python3 bench/run_bench.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the engine is imported from its
``src`` directory.  This process only orchestrates: it times fresh
interpreters for set-up, then starts one worker process (bench/worker.py)
per measurement, which calls ``spde1d.cli.main`` in a closed loop, one call
at a time, checking every call's output files.

--trace 0 reports the end-to-end metrics from an untraced worker that makes
calls for --seconds.  Each call and each set-up probe is bracketed by a fixed
calibration loop (worker.calibration_seconds), and its time is reported as it
would read on a host where that loop takes CALIBRATION_REF_S; the unscaled
times are printed and saved beside them.  --trace 1 reports the per-layer metrics, each the
median over the calls of a traced worker.  It makes a fixed number of calls
(workloads.TRACE_CALLS) so that its counts repeat exactly for a seed, after
an untraced worker made the same calls; the difference of their median
scaled call times is the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed (output checks) and metrics.  Everything else, including
each heat_mc z value, output digests and the environment, is printed before
it and saved to bench/results/<workload>-seed<n>-trace<t>.json.  Exits with
code 2, printing no result, when the checkout has no engine sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (after the path set-up above)
from worker import calibration_seconds  # noqa: E402

SETUP_PROBES = 5
IMPORT_PROBES = 3
WORKER_TIMEOUT_S = 170
CALIBRATION_REF_S = 0.25
SETUP_PROBE = "import json, sys; import spde1d.cli; json.load(open(sys.argv[1]))"
IMPORT_MODULES = ("spde1d.heat_errors", "spde1d.experiments", "spde1d.cli")
ITEM_KIND = {"ac_converge": "paths", "heat_mc": "paths", "heat_exact": "cells"}
E2E_UNITS = {"items_per_s": "1/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _run(cmd, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd[:4]))} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return proc


def setup_times(config: Path) -> list:
    """(wall seconds, calibration seconds) of fresh interpreters that import
    spde1d.cli and read the config; calibrated on both sides like a call."""
    samples, cal_before = [], calibration_seconds()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        _run([sys.executable, "-c", SETUP_PROBE, str(config)], 60)
        wall = time.perf_counter() - t0
        cal_after = calibration_seconds()
        samples.append((wall, (cal_before + cal_after) / 2))
        cal_before = cal_after
    return samples


def scaled(wall: float, calibration: float) -> float:
    """A time as it would read on a host where the calibration loop takes
    CALIBRATION_REF_S.  A shared host can change speed by tens of percent
    within seconds (seen on a 2-core Intel Xeon VM), and the loop timed
    next to each measurement follows it."""
    return wall * CALIBRATION_REF_S / calibration


def import_times() -> dict:
    """Median cumulative import seconds per module from -X importtime."""
    samples = {name: [] for name in IMPORT_MODULES}
    for _ in range(IMPORT_PROBES):
        err = _run([sys.executable, "-X", "importtime", "-c", "import spde1d.cli"], 60).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {f"setup.import_s.{k}": median(v) if v else 0.0
            for k, v in samples.items()}


def run_worker(tag: str, workload: str, seed: int, *, seconds=None, iterations=None,
               traced=False) -> dict:
    work = RESULTS / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    result = RESULTS / f"{tag}.worker.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--result", str(result)]
    cmd += ["--iterations", str(iterations)] if iterations else ["--seconds", str(seconds)]
    if traced:
        cmd += ["--trace", "--spans", str(RESULTS / f"{tag}.spans.npz")]
    _run(cmd, WORKER_TIMEOUT_S)
    return json.loads(result.read_text())


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "git_revision": rev,
            "src_sha256": digest.hexdigest(), "platform": platform.platform()}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns metrics plus everything seen."""
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment()}
    if trace:
        calls = workloads.TRACE_CALLS[workload]
        base = run_worker(tag, workload, seed, iterations=calls)
        traced = run_worker(f"{tag}-traced", workload, seed, iterations=calls, traced=True)
        workers = [base, traced]
        layers = traced["iterations"][0]["layers"]
        # counts stay whole: median_low picks one call's count
        metrics = {k: (median_low if isinstance(v, int) else median)(
            [it["layers"][k] for it in traced["iterations"]]) for k, v in layers.items()}
        metrics.update(import_times())
        metrics["trace.overhead_s"] = (
            median(scaled(it["wall_s"], it["calibration_s"]) for it in traced["iterations"])
            - median(scaled(it["wall_s"], it["calibration_s"]) for it in base["iterations"]))
    else:
        job = workloads.make_job(workload, seed, 0, RESULTS / "work" / f"{tag}-setup")
        setup = setup_times(Path(job.argv[2]))
        base = run_worker(tag, workload, seed, seconds=seconds)
        workers = [base]
        its = base["iterations"]
        wall_s = median(scaled(it["wall_s"], it["calibration_s"]) for it in its)
        metrics = {"items_per_s": its[0]["items"] / wall_s,
                   "wall_s": wall_s,
                   "setup_s": median(scaled(*sample) for sample in setup),
                   "peak_rss_mb": base["peak_rss_mb"]}
        report.update(setup_samples=setup,
                      unscaled={"wall_s": median(it["wall_s"] for it in its),
                                "setup_s": median(wall for wall, _ in setup)})
    its = [it for w in workers for it in w["iterations"]]
    report.update(
        metrics=metrics, engine=base["engine"], worker_env=base["env"],
        item_kind=ITEM_KIND[workload],
        attempted=sum(it["attempted"] for it in its),
        failed=sum(it["failed"] for it in its),
        calls=len(its),
        wall_samples_s=[it["wall_s"] for it in base["iterations"]],
        failed_checks=sorted({c for it in its for c in it["failed_checks"]}),
        errors=[it["error"] for it in its if it["error"]],
        values={it["job"]: it["values"] for it in its},
        digests={it["job"]: it.get("digests") for it in its},
    )
    first_digests = {}
    report["digests_stable"] = all(
        first_digests.setdefault(it["job"], it.get("digests")) == it.get("digests") for it in its)
    report["failed_frac"] = report["failed"] / report["attempted"]
    (RESULTS / f"{tag}.json").write_text(json.dumps(report, indent=1))
    return report


def unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".calls", ".rows", ".steps", ".dst_points")):
        return "count"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def print_report(report: dict) -> None:
    w = report["workload"]
    print(f"# {w} seed={report['seed']} trace={int(report['trace'])} calls={report['calls']} "
          f"(items are {report['item_kind']})")
    for name, value in report["metrics"].items():
        print(f"{w} {name} = {value:.6g} {unit(name)}")
    for name, value in report.get("unscaled", {}).items():
        print(f"{w} {name} unscaled = {value:.6g} s")
    print(f"{w} failed_frac = {report['failed_frac']:.6g} "
          f"({report['failed']} of {report['attempted']} checks failed)")
    for job, values in report["values"].items():
        for key, value in values.items():
            print(f"{w} {'' if job == w else job + ' '}{key} = {value:.6g}")
    for job, digests in report["digests"].items():
        for name, digest in (digests or {}).items():
            print(f"{w} sha256 {name} {digest}")
    for error in report["errors"][:3]:
        print(f"{w} error: {error}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spde1d" / "__init__.py").is_file():
        print(f"run_bench: no engine sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(parents=True, exist_ok=True)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for name in names:
            reports.append(measure(name, args.seed, args.seconds, bool(args.trace)))
            print_report(reports[-1])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run_bench: {exc}", file=sys.stderr)
        return 1
    env = reports[0]["env"]
    print(f"# env python={reports[0]['worker_env']['python']} "
          f"numpy={reports[0]['worker_env']['numpy']} scipy={reports[0]['worker_env']['scipy']} "
          f"nproc={env['nproc']} cpu={env['cpu']!r} git={env['git_revision']} "
          f"src_sha256={env['src_sha256'][:16]}")
    prefix = len(reports) > 1
    metrics = {(f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": unit(k)}
               for r in reports for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
