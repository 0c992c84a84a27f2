"""The benchmark's three workloads: inputs made from the seed, and checks.

A job is one ``spde1d`` command line plus the check that reads its output
files; a run makes one call after another, each with the next job.  This
module imports nothing from ``spde1d`` at load time; the heat_mc oracle is
imported when a check runs.

Why these workloads (the full layer -> metric -> workload predictions are in
``predictions.json``):

* ac_converge runs the Allen-Cahn study users run; the cubic's projection
  dominates it, so a kernel or nonlinearity change shows here.
* heat_mc runs the same study with zero drift: the indicator and linear steps
  still run but the projection never does, so a projection-only change must
  show no gain here while a per-step or batching change must.  The exact
  OU mismatch gives an independent answer key.
* heat_exact runs the closed-form error engine and writes large CSVs; it
  touches no noise or scheme code, so Monte Carlo changes must leave it flat.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("ac_converge", "heat_mc", "heat_exact")

# Problem shape of both Monte Carlo workloads (the criterion-7 study).
STUDY = {"m_grid": [16, 32, 64, 128], "n_grid": [8, 16, 32, 64], "M_ref": 2048, "N_ref": 128}
MODELS = {
    "ac_converge": {"a": [0, 1, 0, -1], "initial": "bump"},
    "heat_mc": {"a": [0, 0, 0, 0], "initial": "zero"},
}
# mode counts project_F sees in these studies, reported one by one
PROJECT_F_MODES = tuple(sorted({*STUDY["n_grid"], STUDY["N_ref"]}))
# Paths per converge call: enough for the checks to hold on every seed tried,
# few enough that a run holds several calls to take a median over.
PATHS = {"ac_converge": 4, "heat_mc": 16}
CALL_STRIDE = 1_000_000  # engine seeds of one run: seed * CALL_STRIDE + call
# A traced run makes this many calls whatever its length, so that its
# per-call counts repeat exactly for a given seed.
TRACE_CALLS = {"ac_converge": 3, "heat_mc": 4, "heat_exact": 9}

# Criterion-7 windows for the Allen-Cahn rate fits.
TEMPORAL_SLOPE_MAX = -0.15
SPATIAL_SLOPE_MAX = -0.35

HEAT_PAIRS = [(T, nu) for T in (0.5, 1.0, 2.0) for nu in (0.5, 1.0, 2.0)]
HEAT_M_GRID = list(range(1, 65)) + [128, 256, 512, 1024, 4096]
HEAT_N_GRID = HEAT_M_GRID + ["all"]
SANDWICH_TOL = 1e-12
# temporal rows take every N including "all"; spatial and full rows skip "all"
HEAT_ROWS = len(HEAT_M_GRID) * (len(HEAT_N_GRID) + 2 * len(HEAT_M_GRID))


@dataclass
class Job:
    label: str
    argv: list
    items: int  # Monte Carlo paths, or error-table cells for heat-errors
    outputs: list
    check: object  # check(job) -> (attempted, failed check names, reported values)
    n_checks: int


def make_job(workload: str, seed: int, call: int, work_dir: Path) -> Job:
    """Job for call number `call` of a run with benchmark seed `seed`.

    Monte Carlo calls each draw fresh paths (engine seed seed * CALL_STRIDE
    + call), so a run averages over many paths; heat_exact cycles through
    the nine (T, nu) pairs in an order set by the seed.  Config files are
    written under work_dir.
    """
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")
    work_dir.mkdir(parents=True, exist_ok=True)
    if workload == "heat_exact":
        pairs = list(HEAT_PAIRS)
        random.Random(seed).shuffle(pairs)
        return _heat_job(*pairs[call % len(pairs)], work_dir)
    cfg_path = work_dir / f"{workload}.json"
    cfg_path.write_text(json.dumps({"model": MODELS[workload], "study": STUDY}))
    paths = PATHS[workload]
    engine_seed = seed * CALL_STRIDE + call
    argv = ["converge", "--config", str(cfg_path), "--out", str(work_dir),
            "--seed", str(engine_seed), "--paths", str(paths), "--threads", "1"]
    rows = len(STUDY["m_grid"]) + len(STUDY["n_grid"])
    label = f"{workload}.seed{engine_seed}"
    if workload == "ac_converge":
        return Job(label, argv, paths, _converge_outputs(work_dir), _check_allen_cahn, rows + 4)
    return Job(label, argv, paths, _converge_outputs(work_dir), _check_heat_mc, rows)


def _converge_outputs(work_dir: Path) -> list:
    return [work_dir / "spde1d_errors.csv", work_dir / "spde1d_rates.json"]


def _heat_job(T: float, nu: float, work_dir: Path) -> Job:
    label = f"heat_T{T:g}_nu{nu:g}"
    cfg_path = work_dir / f"{label}.json"
    cfg_path.write_text(json.dumps({
        "model": {"T": T, "nu": nu},
        "study": {"m_grid": HEAT_M_GRID, "n_grid": HEAT_N_GRID, "sandwich_tol": SANDWICH_TOL},
        "output": {"prefix": label},
    }))
    argv = ["heat-errors", "--config", str(cfg_path), "--out", str(work_dir), "--threads", "1"]
    return Job(label, argv, HEAT_ROWS, [work_dir / f"{label}_heat_errors.csv"],
               _check_sandwich, HEAT_ROWS)


def _read_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _monotone_within_3se(rows) -> bool:
    return all(float(b["estimate"]) <= float(a["estimate"])
               + 3.0 * math.hypot(float(a["stderr"]), float(b["stderr"]))
               for a, b in zip(rows, rows[1:]))


def _tally(checks) -> tuple:
    """(attempted, failed names, reported values) from (name, ok, value) triples."""
    return (len(checks), [name for name, ok, _ in checks if not ok],
            {name: value for name, _, value in checks if value is not None})


def _check_allen_cahn(job: Job) -> tuple:
    rows = _read_rows(job.outputs[0])
    fits = json.loads(job.outputs[1].read_text())
    checks = []
    for r in rows:
        est = float(r["estimate"])
        checks.append((f"finite_positive.{r['kind']}.M{r['M']}.N{r['N']}",
                       math.isfinite(est) and est > 0, None))
    slope_t, slope_s = fits["temporal"]["slope"], fits["spatial"]["slope"]
    checks.append(("temporal_slope", slope_t <= TEMPORAL_SLOPE_MAX, slope_t))
    checks.append(("spatial_slope", slope_s <= SPATIAL_SLOPE_MAX, slope_s))
    for kind, key in (("temporal", "M"), ("spatial", "N")):
        axis = sorted((r for r in rows if r["kind"] == kind), key=lambda r: int(r[key]))
        checks.append((f"{kind}_monotone_3se", _monotone_within_3se(axis), None))
    return _tally(checks)


def _check_heat_mc(job: Job) -> tuple:
    """z of each row's estimate against the exact OU mismatch.

    The estimate is the square root of the largest of M+1 per-time sample
    means, so picking the largest biases it upward: per grid time the z
    values centre on 0, at the maximising time they sit near +2.  The upper
    gate adds sqrt(2 ln(M+1)), the usual size of the largest of M+1
    standard normals, for that selection.
    """
    from spde1d.heat_errors import ou_pair_mismatch_exact

    checks = []
    for r in _read_rows(job.outputs[0]):
        M, N = int(r["M"]), int(r["N"])
        oracle = math.sqrt(float(max(ou_pair_mismatch_exact(
            M, STUDY["M_ref"], N, STUDY["N_ref"], 1.0, 1.0))))
        se = float(r["stderr"])
        z = (float(r["estimate"]) - oracle) / se if se > 0 else math.nan
        ok = -3.0 <= z <= 3.0 + math.sqrt(2.0 * math.log(M + 1))
        checks.append((f"z.{r['kind']}.M{M}.N{N}", ok, z))
    return _tally(checks)


def _check_sandwich(job: Job) -> tuple:
    """Every row of the CSV sandwiched at SANDWICH_TOL, and no row missing."""
    rows = _read_rows(job.outputs[0])
    failed = [f"sandwich.{r['kind']}.M{r['M']}.N{r['N']}" for r in rows
              if not (float(r["lower"]) - SANDWICH_TOL <= float(r["exact"])
                      <= float(r["upper"]) + SANDWICH_TOL)]
    failed += ["missing_row"] * max(job.n_checks - len(rows), 0)
    return max(job.n_checks, len(rows)), failed, {"rows": len(rows)}
