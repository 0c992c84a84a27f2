"""Coupled-path Monte Carlo studies of the nonlinear scheme.

A study runs the scheme at several (M, N) resolutions against a fine
reference on the *same* noise tape, estimates the strong error

    sup over grid times of || X_ref(t) - Y^{M,N}(t) ||_{L^2(P;H)}

and fits log-log rates.  The sup is taken outside the expectation: per grid
time the squared differences are averaged over paths first, then the maximum
over times is located and a delta-method standard error is attached at the
maximizing time.

Paths are processed in fixed-size batches of 64.  A batch is a pure function
of (config, batch index), and batch results are reduced in index order, so
output bytes are identical for any --threads value.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import heat_errors, spectral
from .noise import NoiseTape, coarsen_increments, mean_stderr, merge_m2, sum_and_m2
from .scheme import (DEFAULT_CHI, DEFAULT_GAMMA, DiscretizationParams, ModelParams,
                     lockstep_layout, run_scheme)

BATCH_PATHS = 64

ERROR_TABLE_HEADER = "kind,M,N,estimate,stderr,activation_fraction,paths,seed"


@dataclass(frozen=True)
class StudyConfig:
    """Everything a convergence study depends on; hashable and picklable.

    Invariants: every grid M and the reference M divide the master step
    count, every grid N and the reference N fit inside the master mode
    count, and there is at least one path.  The reference-ratio rules
    (>= 8x in time, >= 2x in space, equality allowed) are the business of
    the operations that actually use the reference.
    """

    model: ModelParams
    m_grid: tuple
    n_grid: tuple
    m_ref: int
    n_ref: int
    paths: int = 200
    seed: int = 0
    gamma: float = DEFAULT_GAMMA
    chi: float = DEFAULT_CHI
    m_master: int = 0  # 0: use m_ref
    n_master: int = 0  # 0: use n_ref
    exact: bool = False
    threads: int = 1
    moment_p: int = 2

    def __post_init__(self):
        object.__setattr__(self, "m_grid", tuple(int(m) for m in self.m_grid))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if not self.m_grid or not self.n_grid:
            raise ValueError("m_grid and n_grid must be nonempty")
        if self.m_master == 0:
            object.__setattr__(self, "m_master", int(self.m_ref))
        if self.n_master == 0:
            object.__setattr__(self, "n_master", int(self.n_ref))
        for m in (*self.m_grid, self.m_ref):
            if m < 1 or self.m_master % m != 0:
                raise ValueError(f"M={m} must divide the master step count {self.m_master}")
        for n in self.n_grid:
            if not (1 <= n <= self.n_ref):
                raise ValueError(f"N={n} must lie in [1, N_ref={self.n_ref}]")
        if not (1 <= self.n_ref <= self.n_master):
            raise ValueError(f"need N_ref <= N_master, got {self.n_ref} vs {self.n_master}")
        if self.paths < 1:
            raise ValueError(f"need at least one path, got {self.paths}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.moment_p not in (2, 4, 8):
            raise ValueError(f"moment_p must be one of 2, 4, 8, got {self.moment_p}")
        if self.exact and any(v != 0 for v in self.model.a.as_tuple()):
            raise ValueError("exact mode is only defined for the zero-drift model")
        DiscretizationParams(M=1, N=1, gamma=self.gamma, chi=self.chi)  # range check

    def discretization(self, M: int, N: int) -> DiscretizationParams:
        return DiscretizationParams(M=M, N=N, gamma=self.gamma, chi=self.chi)


@dataclass(frozen=True)
class ErrorTableRow:
    kind: str
    M: int
    N: int
    estimate: float
    stderr: float
    activation_fraction: float  # fraction of steps with the drift suppressed
    paths: int
    seed: int

    def as_csv_row(self) -> str:
        return "%s,%d,%d,%.17g,%.17g,%.17g,%d,%d" % (
            self.kind, self.M, self.N, self.estimate, self.stderr,
            self.activation_fraction, self.paths, self.seed)


def error_table_csv(rows) -> str:
    return "\n".join([ERROR_TABLE_HEADER, *(r.as_csv_row() for r in rows)]) + "\n"


def write_text_atomic(path, text: str) -> None:
    """Write-then-rename so readers never observe a partial file.

    The temporary file has a unique name next to the target, so concurrent
    writers into one directory cannot clobber each other's halves.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode a plain open() would give
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _check_reference_ratios(cfg: StudyConfig, targets) -> None:
    for _, M, N in targets:
        if M != cfg.m_ref and (cfg.m_ref < 8 * M or cfg.m_ref % M != 0):
            raise ValueError(
                f"reference M={cfg.m_ref} must be a multiple and >= 8x of target M={M}")
        if N != cfg.n_ref and cfg.n_ref < 2 * N:
            raise ValueError(
                f"reference N={cfg.n_ref} must be >= 2x target N={N}")


def _path_batch(job):
    """Moments of one batch of paths: per target, the path count, the sum
    of a per-path sample and its M2 (see noise.sum_and_m2), plus truncation
    counts.

    All paths of the batch step together through the master grid, one time
    block at a time.  A block is the least common multiple of the master
    steps per step of every run of the plan (on power-of-two grids, one
    step of the coarsest), so each run takes whole steps inside
    it and memory grows with the block, not with M_master.  Per block the
    paths draw their master increments for those rows only.  A coupled
    study (targets keyed (kind, M, N)) also advances the reference and
    samples the squared H distance to it at each target grid time; a cell
    run (targets keyed (M, N)) samples ||Y_T||_{H_gamma}^p at the end, the
    power of spectral.hr_norm, the norm of the taming indicator.  Samples
    are added path by path in path order, so the sums have the bits of
    stepping one path at a time.

    The plan, made once per batch, maps each stepped run (M, widths) to the
    resolutions (M, N) it serves and their columns of the run's Y, the
    reference's run first: every N >= 2 of one M is a width of one run, in
    target order after the reference, and the run steps at its widest N
    (see run_scheme).  The kernel lays Y out (scheme.lockstep_layout), so
    every reader reads its own columns and suppressed count whatever the
    drift.  N = 1 steps alone: numpy sums a group of one-mode rows pairwise,
    not row by row, so its coarsened increments are not a prefix.
    """
    cfg, targets, coupled, start, stop = job
    tapes = [NoiseTape(seed=cfg.seed, M_master=cfg.m_master, N_master=cfg.n_master,
                       T=cfg.model.T, path=path) for path in range(start, stop)]
    by_resolution = {(cfg.m_ref, cfg.n_ref): []} if coupled else {}  # reference first
    for target in targets:
        by_resolution.setdefault(target[-2:], []).append(target)
    plan = {}  # (M, N == 1) -> {(M, N): targets}
    for (M, N), members in by_resolution.items():
        plan.setdefault((M, N == 1), {})[(M, N)] = members
    runs, states = {}, {}  # (M, widths) -> (readers, their Y columns); the carried (Y, O)
    for (M, _), readers in plan.items():
        widths = tuple(N for _, N in readers)
        cols, segs = lockstep_layout(widths, any(cfg.model.a.as_tuple()))
        xi = cfg.model.xi_projected(max(widths))
        runs[(M, widths)], states[(M, widths)] = (readers, segs), (xi[cols], xi)
    block = math.lcm(*(cfg.m_master // M for M, _ in runs))
    # before allocating: each target's samples, and per block the master
    # increments, a tape's raw rows, and a run's Y (at most sum(widths) columns)
    heat_errors._check_values(float(len(tapes)) * max(
        (block + 1) * max(cfg.n_master, *(sum(widths) for _, widths in runs)),
        *(t[-2] + 1 for t in targets)), f"a batch of {len(tapes)} paths")
    suppressed = dict.fromkeys(by_resolution, 0)
    samples = {t: np.empty((len(tapes), t[-2] + 1)) if coupled else None for t in targets}

    master = np.empty((len(tapes), block, max(max(widths) for _, widths in runs)))
    for first in range(0, cfg.m_master, block):
        for p, tape in enumerate(tapes):
            master[p] = tape.master_increments(master.shape[2], rows=(first, first + block))
        _step_block(cfg, coupled, runs, master, first, states, suppressed, samples, start)

    acc = {}
    for target in targets:
        total, m2 = sum_and_m2(samples[target])
        acc[target] = {"paths": len(tapes), "sum": total, "m2": m2,
                       "suppressed": int(np.sum(suppressed[target[-2:]])),
                       "steps": target[-2] * len(tapes)}
    return acc


@np.errstate(over="ignore", invalid="ignore")  # the finite checks report these
def _step_block(cfg: StudyConfig, coupled: bool, runs, master, first: int,
                states, suppressed, samples, first_path: int) -> None:
    """Advance each run of the plan through one block of master increments
    (paths, rows, modes) from master step `first`, carry its state on, and
    let each resolution it serves, in target order, read its columns of the
    run's Y rows: finite check, suppressed count and samples."""
    block = master.shape[1]
    for (M, widths), (readers, segs) in runs.items():
        group = cfg.m_master // M
        steps = block // group
        y, o, off = run_scheme(cfg.model, cfg.discretization(M, max(widths)),
                               coarsen_increments(master[..., :max(widths)], steps),
                               start=states[(M, widths)], widths=widths)
        states[(M, widths)] = (y[:, -1].copy(), o[:, -1].copy())  # copies free the block
        finite_y, finite_o = np.isfinite(y).all(axis=1), np.isfinite(o).all(axis=1)
        del o  # before the samples and the next run allocate
        for r, ((_, N), members) in enumerate(readers.items()):
            is_reference = coupled and (M, N) == (cfg.m_ref, cfg.n_ref)
            _require_finite(finite_y[:, segs[r]].all(axis=1) & finite_o[:, :N].all(axis=1),
                            "state of " + ("reference" if is_reference else _name(members[0])),
                            first_path)
            suppressed[(M, N)] += off[:, r]
            y_n = y[..., segs[r]]
            if is_reference:
                y_ref = y_n
            for target in members:
                if coupled:
                    diff = y_ref[:, :: cfg.m_ref // M].copy()
                    diff[..., :N] -= y_n
                    rows = np.einsum("pij,pij->pi", diff, diff)
                    _require_finite(np.isfinite(rows * rows).all(axis=1),  # squares feed m2
                                    f"squared-distance sample of {_name(target)}", first_path)
                    samples[target][:, first // group:first // group + steps + 1] = rows
                elif first + block == cfg.m_master:
                    samples[target] = (spectral.hr_norm(y_n[:, -1], cfg.gamma, cfg.model.nu)
                                       ** cfg.moment_p).tolist()
                    _require_finite(np.isfinite(np.square(samples[target])),
                                    f"moment sample of {_name(target)}", first_path)


def _name(target) -> str:
    *kind, M, N = target
    return f"{kind[0] if kind else 'cell'} M={M} N={N}"


def _require_finite(finite_per_path, what: str, first_path: int) -> None:
    """A non-finite value fails the run; it is never added to a sum."""
    if not np.all(finite_per_path):
        path = first_path + int(np.argmin(finite_per_path))
        raise ValueError(f"non-finite {what} on path {path}")


def _accumulate(cfg: StudyConfig, targets, coupled: bool):
    """Run every path batch, on up to cfg.threads worker processes, and merge
    the batch moments in batch order, so the totals do not depend on the
    number of workers."""
    targets = list(dict.fromkeys(targets))  # a repeated target is sampled once
    # every block must hold whole steps of each target, and a coupled
    # target's grid times must be reference grid times
    m_max, n_max = (cfg.m_ref, cfg.n_ref) if coupled else (cfg.m_master, cfg.n_master)
    for *_, M, N in targets:
        if not (M >= 1 and m_max % M == 0 and 1 <= N <= n_max):
            raise ValueError(f"target M={M}, N={N} needs M dividing {m_max} "
                             f"and N in [1, {n_max}]")
    jobs = [(cfg, targets, coupled, s, min(s + BATCH_PATHS, cfg.paths))
            for s in range(0, cfg.paths, BATCH_PATHS)]
    if cfg.threads <= 1 or len(jobs) == 1:
        parts = [_path_batch(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            parts = list(pool.map(_path_batch, jobs))  # map preserves job order
    total = parts[0]
    for part in parts[1:]:
        for key, b in part.items():
            a = total[key]
            a["m2"] = merge_m2(a["paths"], a["sum"], a["m2"], b["paths"], b["sum"], b["m2"])
            for name in ("paths", "sum", "suppressed", "steps"):
                a[name] = a[name] + b[name]
    return total


def _activation(a) -> float:
    return a["suppressed"] / a["steps"]


def _estimate(a) -> tuple[float, float, float]:
    """Strong error at the grid time of largest mean squared error."""
    m_star = int(np.argmax(a["sum"] / a["paths"]))
    est, se = mean_stderr(a["sum"][m_star], a["m2"][m_star], a["paths"], root=True)
    return est, se, _activation(a)


def run_convergence_study(cfg: StudyConfig):
    """Full study: ErrorTable rows plus temporal and spatial rate fits.

    The temporal axis varies M at the largest available mode count (the
    reference's N); the spatial axis varies N at the reference's M.  In
    exact mode (zero drift) the table comes from one heat_errors.error_table
    over the grids with the reference added: rows take its full errors
    against the time-space continuum, the temporal fit its temporal errors
    at N_ref and the spatial fit its spatial errors (the M -> infinity
    limit); stderr is 0 and the paths column reads 0.  A grid with fewer
    than 3 distinct values is refused before any path runs; in Monte Carlo
    mode the reference's own value does not count, since its estimate is
    exactly 0 and drops out of the fit.
    """
    for name, grid, ref in (("m_grid", cfg.m_grid, cfg.m_ref), ("n_grid", cfg.n_grid, cfg.n_ref)):
        fitted = set(grid) if cfg.exact else set(grid) - {ref}
        if len(fitted) < 3:
            other = "" if cfg.exact else f", other than the reference's {ref}"
            raise ValueError(
                f"{name} needs at least 3 distinct values to fit a rate{other}: {list(grid)}")
    T, nu = cfg.model.T, cfg.model.nu
    temporal_targets = [("temporal", M, cfg.n_ref) for M in cfg.m_grid]
    spatial_targets = [("spatial", cfg.m_ref, N) for N in cfg.n_grid]

    if cfg.exact:
        reports, _ = heat_errors.error_table([*cfg.m_grid, cfg.m_ref],
                                             [*cfg.n_grid, cfg.n_ref], T, nu)
        exact = {(r.kind, r.M, r.N): r.exact for r in reports}
        rows = [ErrorTableRow(kind, M, N, exact[("full", M, N)], 0.0, math.nan, 0, cfg.seed)
                for kind, M, N in temporal_targets + spatial_targets]
        axes = {"temporal": {M: exact[("temporal", M, cfg.n_ref)] for M in cfg.m_grid},
                "spatial": {N: exact[("spatial", cfg.m_ref, N)] for N in cfg.n_grid}}
        return rows, {axis: heat_errors.fit_rate(pts) for axis, pts in axes.items()}

    targets = temporal_targets + spatial_targets
    _check_reference_ratios(cfg, targets)
    acc = _accumulate(cfg, targets, True)
    rows = [ErrorTableRow(kind, M, N, *_estimate(acc[(kind, M, N)]),
                          cfg.paths, cfg.seed) for kind, M, N in targets]
    fits = {}
    for axis, resolution_of in (("temporal", lambda r: r.M), ("spatial", lambda r: r.N)):
        pts = {resolution_of(r): r.estimate for r in rows
               if r.kind == axis and r.estimate > 0}
        fits[axis] = heat_errors.fit_rate(pts)
    return rows, fits


def fits_json(fits: dict) -> str:
    payload = {
        "temporal": fits["temporal"].as_dict("M"),
        "spatial": fits["spatial"].as_dict("N"),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# target-only runs: moment audits and truncation activation

@dataclass(frozen=True)
class MomentRow:
    M: int
    N: int
    estimate: float
    stderr: float
    activation_fraction: float


def moment_audit(cfg: StudyConfig):
    """Empirical E||Y_T||_{H_gamma}^p over the m_grid x n_grid product.

    Returns (rows, flagged): flagged is True when some estimate exceeds
    three times the grid median by more than three of its standard errors,
    a scale-free proxy for 'the moments do not blow up with resolution'.
    """
    cells = [(M, N) for M in cfg.m_grid for N in cfg.n_grid]
    acc = _accumulate(cfg, cells, False)
    rows = []
    for M, N in cells:
        a = acc[(M, N)]
        rows.append(MomentRow(M, N, *mean_stderr(a["sum"], a["m2"], a["paths"]),
                              _activation(a)))
    median = float(np.median([r.estimate for r in rows]))
    flagged = any(
        r.estimate > 3.0 * median + 3.0 * r.stderr
        for r in rows if not math.isnan(r.stderr)
    )
    return rows, flagged


def activation_fractions(cfg: StudyConfig, cells):
    """Drift-suppression fraction per (M, N) cell, [(M, N, fraction), ...]."""
    acc = _accumulate(cfg, list(cells), False)
    return [(M, N, _activation(acc[(M, N)])) for M, N in cells]
