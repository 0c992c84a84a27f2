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
from .noise import MAX_COUNTER, NoiseTape, coarsen_increments, mean_stderr, merge_m2, sum_and_m2
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
        def count(value, name: str, least: int = 1, most: int = heat_errors.MAX_COUNT) -> int:
            return heat_errors._int_at_least(  # a bool is not a count
                value, f"{name} must be an integer >= {least}", least, most)
        for name in ("m_grid", "n_grid"):
            object.__setattr__(self, name, tuple(count(v, name + " entries")
                                                 for v in getattr(self, name)))
        for name, least in (("m_ref", 1), ("n_ref", 1), ("paths", 1),
                            ("m_master", 0), ("n_master", 0), ("threads", 1), ("moment_p", 1)):
            object.__setattr__(self, name, count(getattr(self, name), name, least))
        object.__setattr__(self, "seed", count(self.seed, "seed", 0, MAX_COUNTER))  # the tape's key
        if not self.m_grid or not self.n_grid:
            raise ValueError("m_grid and n_grid must be nonempty")
        if self.m_master == 0:
            object.__setattr__(self, "m_master", self.m_ref)
        if self.n_master == 0:
            object.__setattr__(self, "n_master", self.n_ref)
        for m in (*self.m_grid, self.m_ref):
            if self.m_master % m != 0:
                raise ValueError(f"M={m} must divide the master step count {self.m_master}")
        for n in self.n_grid:
            if n > self.n_ref:
                raise ValueError(f"N={n} must lie in [1, N_ref={self.n_ref}]")
        if self.n_ref > self.n_master:
            raise ValueError(f"need N_ref <= N_master, got {self.n_ref} vs {self.n_master}")
        if self.moment_p not in (2, 4, 8):
            raise ValueError(f"moment_p must be one of 2, 4, 8, got {self.moment_p}")
        if self.exact and self.model.drift_on:
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


def write_text_atomic(path, text) -> None:
    """Write-then-rename so readers never observe a partial file.

    `text` is one str, or an iterable of str chunks written one after another.

    The temporary file has a unique name next to the target, so concurrent
    writers into one directory cannot clobber each other's halves.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode a plain open() would give
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _path_batch(job):
    """Moments of one batch of paths: per target, a record of its path count,
    the sum and M2 of its samples (noise.sum_and_m2) and its steps with the drift off.

    All paths of the batch step together through the master grid, one time
    block at a time.  A block is the least common multiple of the master
    steps per step of every run (on power-of-two grids, one step of the
    coarsest), so each run takes whole steps inside it and memory grows
    with the block, not with M_master.  Per block the paths draw their
    master increments for those rows only.  The key of a target says what
    it samples, with one sum and one M2 per column: a (kind, M, N) target
    the squared H distance to the reference (M_ref, N_ref) at each of its
    grid times; an (M, N) cell ||Y_T||_{H_gamma}^p in one column, the power
    of spectral.hr_norm, the norm of the taming indicator.  Each block's
    samples are reduced into their columns as they are taken, path by path
    in path order, so the sums have the bits of stepping one path at a time.

    The plan is {M: {N: targets}}, one run per M, whose widths are its
    entry's keys in target order.  The reference runs when any target is
    keyed (kind, M, N): N_ref then leads M_ref's entry.  A run's record holds
    its entry, each width's Y columns (scheme.lockstep_layout, so each reads
    its own columns and suppressed count whatever the drift) and the carried
    (Y, O).  The run steps at its widest N (see run_scheme).
    """
    cfg, targets, start, stop = job
    tapes = [NoiseTape(seed=cfg.seed, M_master=cfg.m_master, N_master=cfg.n_master,
                       T=cfg.model.T, path=path) for path in range(start, stop)]
    reference = (cfg.m_ref, cfg.n_ref) if any(len(t) == 3 for t in targets) else None
    plan = {cfg.m_ref: {cfg.n_ref: []}} if reference else {}
    for target in targets:  # M -> {N: targets}
        plan.setdefault(target[-2], {}).setdefault(target[-1], []).append(target)
    block = math.lcm(*(cfg.m_master // M for M in plan))
    columns = {t: t[-2] + 1 if len(t) == 3 else 1 for t in targets}  # grid times, or T
    # before allocating: each target's sum and M2, and per block the master
    # increments, a tape's raw rows, and a run's Y (at most the sum of its widths)
    heat_errors._check_values(max(float(len(tapes)) * (block + 1) * max(
        cfg.n_master, *map(sum, plan.values())), *columns.values()),
        f"a batch of {len(tapes)} paths")
    runs = {}  # M -> [readers, their Y columns, the carried (Y, O)]
    for M, readers in plan.items():
        cols, segs = lockstep_layout(tuple(readers), cfg.model.drift_on)
        xi = cfg.model.xi_projected(max(readers))
        runs[M] = [readers, segs, (xi[cols], xi)]
    acc = {t: {"paths": len(tapes), "sum": np.empty(c), "m2": np.empty(c), "suppressed": 0}
           for t, c in columns.items()}

    master = np.empty((len(tapes), block, max(map(max, plan.values()))))
    for first in range(0, cfg.m_master, block):
        for p, tape in enumerate(tapes):
            master[p] = tape.master_increments(master.shape[2], rows=(first, first + block))
        _step_block(cfg, runs, master, first, reference, acc, start)
    return acc


@np.errstate(over="ignore", invalid="ignore")  # the finite checks report these
def _step_block(cfg: StudyConfig, runs, master, first: int, reference, acc,
                first_path: int) -> None:
    """Advance each run (see _path_batch) through one block of master
    increments (paths, rows, modes) from master step `first`, carry its
    (Y, O) on in its record, and let each width, in target order, read its
    columns of the run's Y rows: its finite check, then into each of its
    targets' records the block's suppressed count and the samples (paths,
    grid times) it takes in this block, after one finite check of their
    squares, as sum and M2 columns; a grid time shared with the next block
    is reduced twice, from equal samples.  The block's Y and samples are freed.

    Every squared distance of a run comes from one time-major copy of the
    reference's Y rows at the run's grid times, (grid times, paths, N_ref):
    its widths, narrowest first, each write y_ref - y into their first N
    columns, while the columns past N still hold the reference, and sum
    each (grid time, path) row.  A width that reads the reference's own
    columns (zero drift at M_ref) writes zeros, the x - x of a finite
    reference; a reference that is not finite fails its state check first."""
    block = master.shape[1]
    for M, (readers, segs, state) in runs.items():
        widths, group = tuple(readers), cfg.m_master // M
        y, o, off = run_scheme(cfg.model, cfg.discretization(M, max(widths)),
                               coarsen_increments(master[..., :max(widths)], block // group),
                               start=state, widths=widths)
        runs[M][2] = (y[:, -1].copy(), o[:, -1].copy())  # copies free the block
        finite_y, finite_o = np.isfinite(y).all(axis=1), np.isfinite(o).all(axis=1)
        del o  # before the samples and the next run allocate
        rows = y.transpose(1, 0, 2)  # time-major, as run_scheme wrote them
        if M == cfg.m_ref and reference:  # the reference run, which steps first
            y_ref = rows[..., segs[0]]
        distances, diff = {}, None  # width -> squared distances (paths, grid times)
        for r in sorted(range(len(widths)), key=widths.__getitem__):  # narrowest first
            if any(len(t) == 3 for t in readers[widths[r]]):
                ref = y_ref[:: cfg.m_ref // M]  # at this run's grid times
                diff = ref.copy() if diff is None else diff
                N = widths[r]
                if M == cfg.m_ref and segs[r].start == segs[0].start:
                    diff[..., :N] = 0.0  # the reference's own columns: x - x
                else:
                    np.subtract(ref[..., :N], rows[..., segs[r]], out=diff[..., :N])
                distances[r] = np.einsum("ipj,ipj->ip", diff, diff).T
        del diff  # before the next run allocates
        for r, (N, members) in enumerate(readers.items()):
            _require_finite(finite_y[:, segs[r]].all(axis=1) & finite_o[:, :N].all(axis=1),
                            "state of " + ("reference" if (M, N) == reference
                                           else _name(members[0])), first_path)
            for target in members:
                acc[target]["suppressed"] += int(off[:, r].sum())
                if len(target) == 3:  # the target's grid times in this block
                    what, col, values = "squared-distance", first // group, distances[r]
                elif first + block < cfg.m_master:
                    continue  # a cell samples at T only
                else:
                    what, col = "moment", 0
                    values = spectral.hr_norm(y[:, -1:, segs[r]], cfg.gamma,
                                              cfg.model.nu) ** cfg.moment_p
                _require_finite(np.isfinite(values * values).all(axis=1),  # squares feed m2
                                f"{what} sample of {_name(target)}", first_path)
                cols = slice(col, col + values.shape[1])
                acc[target]["sum"][cols], acc[target]["m2"][cols] = sum_and_m2(values)


def _name(target) -> str:
    *kind, M, N = target
    return f"{kind[0] if kind else 'cell'} M={M} N={N}"


def _require_finite(finite_per_path, what: str, first_path: int) -> None:
    """A non-finite value fails the run; it is never added to a sum."""
    if not np.all(finite_per_path):
        path = first_path + int(np.argmin(finite_per_path))
        raise ValueError(f"non-finite {what} on path {path}")


def _accumulate(cfg: StudyConfig, targets):
    """Run every path batch, on up to cfg.threads worker processes but never
    more than there are batches, and merge the batch moments in batch order,
    so the totals do not depend on the number of workers."""
    targets = list(dict.fromkeys(targets))  # a repeated target is sampled once
    if not targets:
        return {}  # no target, no batch
    # every block must hold whole steps of each target, and a (kind, M, N)
    # target's grid times must be reference grid times
    for *kind, M, N in targets:
        m_max, n_max = (cfg.m_ref, cfg.n_ref) if kind else (cfg.m_master, cfg.n_master)
        if not (M >= 1 and m_max % M == 0 and 1 <= N <= n_max):
            raise ValueError(f"target M={M}, N={N} needs M dividing {m_max} "
                             f"and N in [1, {n_max}]")
    jobs = [(cfg, targets, s, min(s + BATCH_PATHS, cfg.paths))
            for s in range(0, cfg.paths, BATCH_PATHS)]
    if cfg.threads <= 1 or len(jobs) == 1:
        return _merge_in_order(map(_path_batch, jobs))
    with ProcessPoolExecutor(max_workers=min(cfg.threads, len(jobs))) as pool:
        return _merge_in_order(pool.map(_path_batch, jobs))  # map preserves job order


def _merge_in_order(parts):
    """Merge an iterator of batch moments into the first as each arrives, holding no other."""
    total = next(parts)
    for part in parts:
        for key, b in part.items():
            a = total[key]
            a["m2"] = merge_m2(a["paths"], a["sum"], a["m2"], b["paths"], b["sum"], b["m2"])
            for name in ("paths", "sum", "suppressed"):
                a[name] = a[name] + b[name]
    return total


def _activation(a, M: int) -> float:
    """The share of a target's M * paths steps in which the drift was off."""
    return a["suppressed"] / (M * a["paths"])


def _estimate(a, M: int, root: bool = True) -> tuple[float, float, float]:
    """Mean, stderr and activation fraction at the sample column of largest mean:
    a cell's moment, or (root) a strong error at its worst grid time."""
    col = int(np.argmax(a["sum"] / a["paths"]))
    est, se = mean_stderr(float(a["sum"][col]), float(a["m2"][col]), a["paths"], root)
    return est, se, _activation(a, M)


def run_convergence_study(cfg: StudyConfig):
    """Full study: ErrorTable rows plus temporal and spatial rate fits.

    The temporal axis varies M at the largest available mode count (the
    reference's N); the spatial axis varies N at the reference's M.  In
    exact mode (zero drift) the table comes from one heat_errors.error_table
    over the grids with the reference added: rows take its full errors
    against the time-space continuum, the temporal fit its temporal errors
    at N_ref and the spatial fit its spatial errors (the M -> infinity
    limit); stderr is 0 and the paths column reads 0.  Before any path
    runs, a grid with fewer than 3 distinct values is refused, and in Monte
    Carlo mode (where the reference's own estimate is exactly 0, drops out
    of the fit and does not count) so is any other grid M of which M_ref is
    not a multiple of at least 8x, and any other grid N above N_ref / 2.
    After they run, an axis with fewer than 3 positive estimates is refused.
    """
    for name, grid, ref in (("m_grid", cfg.m_grid, cfg.m_ref), ("n_grid", cfg.n_grid, cfg.n_ref)):
        fitted = set(grid) if cfg.exact else set(grid) - {ref}
        if len(fitted) < 3:
            other = "" if cfg.exact else f", other than the reference's {ref}"
            raise ValueError(
                f"{name} needs at least 3 distinct values to fit a rate{other}: {list(grid)}")
    targets = [("temporal", M, cfg.n_ref) for M in cfg.m_grid] \
        + [("spatial", cfg.m_ref, N) for N in cfg.n_grid]
    for _, M, N in [] if cfg.exact else targets:  # the reference-ratio rules
        if M != cfg.m_ref and (cfg.m_ref < 8 * M or cfg.m_ref % M != 0):
            raise ValueError(
                f"reference M={cfg.m_ref} must be a multiple and >= 8x of target M={M}")
        if N != cfg.n_ref and cfg.n_ref < 2 * N:
            raise ValueError(f"reference N={cfg.n_ref} must be >= 2x target N={N}")
    T, nu = cfg.model.T, cfg.model.nu

    if cfg.exact:
        reports, _ = heat_errors.error_table([*cfg.m_grid, cfg.m_ref],
                                             [*cfg.n_grid, cfg.n_ref], T, nu)
        exact = {(r.kind, r.M, r.N): r.exact for r in reports}
        rows = [ErrorTableRow(kind, M, N, exact[("full", M, N)], 0.0, math.nan, 0, cfg.seed)
                for kind, M, N in targets]
        axes = {"temporal": {M: exact[("temporal", M, cfg.n_ref)] for M in cfg.m_grid},
                "spatial": {N: exact[("spatial", cfg.m_ref, N)] for N in cfg.n_grid}}
    else:
        acc = _accumulate(cfg, targets)
        rows = [ErrorTableRow(kind, M, N, *_estimate(acc[(kind, M, N)], M),
                              cfg.paths, cfg.seed) for kind, M, N in targets]
        axes = {axis: {r.M if axis == "temporal" else r.N: r.estimate for r in rows
                       if r.kind == axis and r.estimate > 0} for axis in ("temporal", "spatial")}
        for axis, pts in axes.items():  # every estimate is 0.0 at nu = 1e300, or T = 1e-300
            if len(pts) < 3:
                raise ValueError(f"{len(pts)} positive {axis} estimates; rate fits need at least 3")
    return rows, {axis: heat_errors.fit_rate(pts) for axis, pts in axes.items()}


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
    acc = _accumulate(cfg, cells)
    rows = [MomentRow(M, N, *_estimate(acc[(M, N)], M, root=False)) for M, N in cells]
    median = float(np.median([r.estimate for r in rows]))
    flagged = any(
        r.estimate > 3.0 * median + 3.0 * r.stderr
        for r in rows if not math.isnan(r.stderr)
    )
    return rows, flagged


def activation_fractions(cfg: StudyConfig, cells):
    """Drift-suppression fraction per (M, N) cell, [(M, N, fraction), ...]."""
    acc = _accumulate(cfg, cells)
    return [(M, N, _activation(acc[(M, N)], M)) for M, N in cells]
