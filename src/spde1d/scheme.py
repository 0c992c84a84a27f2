"""Nonlinearity-truncated spectral exponential Euler scheme.

One step advances the Galerkin coefficients by

    Y_{m+1} = e^{hA} Y_m + (O_{m+1} - e^{hA} O_m)
              + 1{ ||Y_m||_{H_gamma} + ||O_m||_{H_gamma} <= (M/T)^chi }
                * phi1(h) P_N F(Y_m)

where O is the discretized stochastic convolution driven by the same noise
tape.  The indicator suppresses the cubic drift on the rare steps where the
state exceeds a resolution-dependent threshold; that is what tames the
explicit treatment of the superlinear term.  Everything here is a
deterministic function of (model, discretization, tape).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import heat_errors, spectral
from .nonlinearity import CubicCoefficients, allen_cahn, project_F
from .noise import NoiseTape

INITIAL_PRESETS = ("zero", "first_mode", "bump")


@dataclass(frozen=True)
class ModelParams:
    """Continuous-problem data: horizon, diffusivity, drift, initial value.

    xi holds sine coefficients of the initial condition; runs use its first N
    entries (zero-padded), i.e. the initial value is P_N xi for every
    resolution, so refinements share one initial function.
    """

    T: float
    nu: float
    a: CubicCoefficients
    xi: np.ndarray

    def __post_init__(self):
        heat_errors._validate_positive(T=self.T, nu=self.nu)
        xi = np.asarray(self.xi, dtype=np.float64)
        if xi.ndim != 1:
            raise ValueError(f"xi must be a coefficient vector, got shape {xi.shape}")
        if not np.all(np.isfinite(xi)):
            raise ValueError("xi coefficients must be finite")
        object.__setattr__(self, "xi", xi)

    @property
    def drift_on(self) -> bool:
        """Whether the drift F is nonzero: any cubic coefficient is."""
        return any(v != 0 for v in self.a.as_tuple())

    def xi_projected(self, n_modes: int) -> np.ndarray:
        out = np.zeros(n_modes)
        m = min(n_modes, self.xi.shape[0])
        out[:m] = self.xi[:m]
        return out


# widest gamma window for which the taming argument closes; chi cannot exceed
# gamma/3 - 1/18, which is positive exactly on this window
GAMMA_RANGE = (1.0 / 6.0, 0.25)
DEFAULT_GAMMA = 0.2
DEFAULT_CHI = 1.0 / 90.0  # = DEFAULT_GAMMA/3 - 1/18, the permissive end


@dataclass(frozen=True)
class DiscretizationParams:
    M: int
    N: int
    gamma: float = DEFAULT_GAMMA
    chi: float = DEFAULT_CHI

    def __post_init__(self):
        for name in ("M", "N"):  # stored as Python ints, as StudyConfig stores its counts
            object.__setattr__(self, name, heat_errors._int_at_least(
                getattr(self, name), f"{name} must be an integer >= 1"))
        lo, hi = GAMMA_RANGE
        if not (lo < self.gamma < hi):
            raise ValueError(
                f"gamma must lie in ({lo:.6g}, {hi:.6g}) exclusive, got {self.gamma}")
        chi_cap = self.gamma / 3.0 - 1.0 / 18.0
        if not (0 < self.chi <= chi_cap):
            raise ValueError(
                f"chi must lie in (0, gamma/3 - 1/18] = (0, {chi_cap:.6g}], got {self.chi}")

    def threshold(self, T: float) -> float:
        return (self.M / T) ** self.chi


def initial_coefficients(preset: str, n_modes: int) -> np.ndarray:
    """Named initial conditions as sine coefficient vectors of length n_modes.

    "bump" is x(1-x): integrating x(1-x) sqrt(2) sin(k pi x) gives
    2 sqrt(2) (1 - (-1)^k) / (k pi)^3.
    """
    if n_modes < 1:
        raise ValueError(f"need n_modes >= 1, got {n_modes}")
    if preset == "zero":
        return np.zeros(n_modes)
    if preset == "first_mode":
        out = np.zeros(n_modes)
        out[0] = 1.0
        return out
    if preset == "bump":
        k = np.arange(1, n_modes + 1, dtype=np.float64)
        return 2.0 * math.sqrt(2.0) * (1.0 - (-1.0) ** k) / (k * math.pi) ** 3
    raise ValueError(f"unknown initial preset {preset!r}; expected one of {INITIAL_PRESETS}")


@np.errstate(over="ignore")
def truncation_indicator(Y: np.ndarray, O: np.ndarray, d: DiscretizationParams,
                         T: float, nu: float) -> np.ndarray:
    """Per row of Y and O (..., N), a numpy bool: True iff the drift stays on,
    ||Y||_{H_gamma} + ||O||_{H_gamma} <= (M/T)^chi.

    The comparison is non-strict; the boundary case keeps the drift.  The
    norms are spectral.hr_norm, whose arithmetic run_scheme shares, so this
    is run_scheme's decision to the bit.  A norm that overflows is inf, which
    turns the drift off, and warns of nothing.
    """
    return _keeps_drift(spectral.hr_norm(Y, d.gamma, nu), spectral.hr_norm(O, d.gamma, nu),
                        d.threshold(T))


def _keeps_drift(y_norm, o_norm, thr: float, out=None):
    """The kernel's indicator arithmetic, shared with truncation_indicator;
    written to the bool array `out` if given."""
    return np.less_equal(y_norm + o_norm, thr, out=out)


def lockstep_layout(widths, drift_on: bool) -> tuple[np.ndarray, list[slice]]:
    """(The mode of each Y column, each width's Y columns) of a lockstep run.
    A drift couples the modes of one width: one segment per width, side by
    side.  With zero drift each mode steps on its own: one block at the
    widest width, whose prefix each width reads."""
    if drift_on:
        return (np.concatenate([np.arange(n) for n in widths]),
                [slice(e - n, e) for n, e in zip(widths, np.cumsum(widths))])
    return np.arange(max(widths)), [slice(n) for n in widths]


@functools.lru_cache(maxsize=32)
def _run_constants(N: int, nu: float, h: float, gamma: float, widths: tuple, drift_on: bool):
    """Everything run_scheme needs that depends on this key alone, made once
    per run and shared, read-only, by each of its calls: Y's column modes,
    e^{hA} (also in Y's layout), each width's Y and O columns, whether Y
    gathers O, and with a drift (the GridLayout of the widths, and in Y's
    layout phi1(h), each column's segment and the H_gamma weights)."""
    cols, y_segs = lockstep_layout(widths, drift_on)
    decay = spectral.semigroup_factors(N, nu, h)
    arrays = [cols, decay, decay[cols]]
    drift = ()
    if drift_on:  # one projection pass for every segment
        grids = spectral.GridLayout(widths)
        drift = (grids, spectral.phi1_factors(N, nu, h)[cols],
                 np.repeat(np.arange(len(widths)), widths),
                 spectral.hr_weights(N, gamma, nu)[cols])
        arrays += [grids.columns, grids.scale, *drift[1:]]
    for a in arrays:
        a.flags.writeable = False
    return (*arrays[:3], tuple(y_segs), tuple(slice(n) for n in widths),
            not np.array_equal(cols, np.arange(N)), drift)


@np.errstate(over="ignore", invalid="ignore")
def run_scheme(model: ModelParams, d: DiscretizationParams, dw: np.ndarray,
               start: tuple[np.ndarray, np.ndarray] | None = None, widths=None):
    """Trajectory kernel on raw increment arrays; the hot loop of every driver.

    dw has shape (P, k, N): P paths that step together, one path being P = 1.
    Without `start` the run begins at Y_0 = O_0 = P_N xi and takes all
    k = M steps; start=(Y, O) resumes from that state (each (P, width), or
    (width,) for every path) for any k <= M steps of size T/M.  Returns (Y
    rows, O rows, suppressed): the states at the k+1 grid times from the
    start on, each (P, k+1, width), and per path the count of steps whose
    indicator was false.  Each path's numbers are the same bits whatever P is.

    `widths` steps several mode counts n <= N of one M in lockstep, each
    reading the first n modes of dw: lockstep_layout lays out Y (and start's
    Y), O is stepped once at N, and suppressed is (P, len(widths)).  Each
    width's columns have the bits of a run at that width alone; all share
    each step's linear update, square-and-weight pass and compare, and with
    a drift one project_F call on a spectral.GridLayout of the widths (each
    segment its own DST-I) and one phi1(h) scale.  That call takes the rows
    that keep the drift in any segment, gathered through one index, and one
    masked add (np.add with where=) adds the drift to their columns whose
    segment keeps it: a segment whose indicator is off is projected but its
    drift is never read.

    O steps as O_{m+1} = e^{hA}(O_m + Delta W_m), the exponential Euler OU.
    It is not exact in law: per mode its variance at T is the continuum
    (1 - e^{-2 mu T})/(2 mu) times 2 mu h/(e^{2 mu h} - 1), far below it when
    mu h >> 1.  O does not depend on Y, so it steps first and its norms are
    taken next.  The Y loop carries e^{hA} O_m over from each step to the next
    and reads O_{m+1} through one buffer in Y's layout.  With a drift, each
    step writes its indicator into one (steps, paths, widths) bool block; with
    zero drift one square-and-weight pass over all Y rows after the loop fills
    that block, every width's norm from its prefix.  The suppressed counts are
    one sum over the block.  The bits are those of one joint step.
    Every H_gamma norm is spectral.hr_norm; the drift step's takes its
    square buffer and segment views, made once per call, from
    spectral._RowNorms, hr_norm's own loop body, with spectral.hr_weights.
    What depends on the run alone (factors, weights, layouts) comes from
    _run_constants, made once per run however many calls its blocks take.
    The whole call runs under one np.errstate: a norm that overflows is
    inf, which turns the drift off, and an off segment's cube overflows
    unread; neither warns.
    """
    dw = np.asarray(dw, dtype=np.float64)
    if (dw.ndim != 3 or dw.shape[2] != d.N
            or (dw.shape[1] > d.M if start is not None else dw.shape[1] != d.M)):
        raise ValueError(f"increments shape {dw.shape} does not match "
                         f"(paths, k, N) at (M,N)=({d.M},{d.N})")
    sizes = (d.N,) if widths is None else tuple(int(n) for n in widths)
    if not sizes or not all(1 <= n <= d.N for n in sizes):
        raise ValueError(f"widths {sizes} must be mode counts in [1, N={d.N}]")
    drift_on = model.drift_on
    cols, decay, decay_y, y_segs, o_segs, gather, drift_consts = _run_constants(
        d.N, float(model.nu), model.T / d.M, float(d.gamma), sizes, drift_on)
    paths, steps = dw.shape[:2]
    thr = d.threshold(model.T)

    # time-major while stepping, so that each step writes contiguous rows
    y_path = np.empty((steps + 1, paths, len(cols)))
    o_path = np.empty((steps + 1, paths, d.N))
    xi = model.xi_projected(d.N)
    y_path[0], o_path[0] = (xi[cols], xi) if start is None else start
    # O does not depend on Y: step it, then take the norms of all its rows
    for m in range(steps):
        np.add(o_path[m], dw[:, m], out=o_path[m + 1])
        o_path[m + 1] *= decay
    o_norm = spectral.hr_norm(o_path[:-1], d.gamma, model.nu, segments=o_segs)
    if drift_on:
        grids, phi, seg_of_col, weights_y = drift_consts
        y_norms = spectral._RowNorms(weights_y, (paths, len(cols)), y_segs,
                                     np.empty((paths, len(sizes))))
        on_rows = np.empty((steps, paths, len(sizes)), dtype=bool)  # each step's indicator
    # e^{hA} O_m, carried from the step before; O_{m+1} in Y's layout if Y gathers O
    decay_o = decay_y * o_path[0][:, cols]
    o_next = np.empty((paths, len(cols))) if gather else None
    for m in range(steps):
        y, y_next = y_path[m], y_path[m + 1]
        o_next = o_path[m + 1].take(cols, axis=1, out=o_next) if gather else o_path[m + 1]
        np.multiply(decay_y, y, out=y_next)
        y_next += o_next
        y_next -= decay_o
        np.multiply(decay_y, o_next, out=decay_o)
        if drift_on:
            on = _keeps_drift(y_norms(y), o_norm[m], thr, out=on_rows[m])
            kept = np.flatnonzero(on.any(axis=1))  # the rows that keep the drift in any segment
            if kept.size:  # a masked add, not a 0/1 product: 0*inf would be NaN
                drift = project_F(y.take(kept, axis=0), model.a, grids)
                drift *= phi
                rows = y_next.take(kept, axis=0)  # out and back
                keep = on.take(kept, axis=0).take(seg_of_col, axis=1)  # each column, its segment's
                np.add(rows, drift, out=rows, where=keep)
                y_next[kept] = rows
    if not drift_on:  # every row in one pass, time-major, which reads contiguous rows
        on_rows = _keeps_drift(
            spectral.hr_norm(y_path[:-1], d.gamma, model.nu, segments=y_segs), o_norm, thr)
    suppressed = steps - on_rows.sum(0)
    return (y_path.transpose(1, 0, 2), o_path.transpose(1, 0, 2),
            suppressed[:, 0] if widths is None else suppressed)


def simulate_trajectory(model: ModelParams, d: DiscretizationParams,
                        tape: NoiseTape) -> tuple[np.ndarray, np.ndarray]:
    """(Y rows, O rows) at grid times 0, h, ..., T, each (M+1, N); Y_0 = O_0 = P_N xi.

    The tape's one path runs through run_scheme as a batch of P = 1, once its
    raw block, which bounds dw, Y and O, is found to fit heat_errors.MAX_VALUES."""
    if tape.T != model.T:
        raise ValueError(f"tape horizon {tape.T} differs from model horizon {model.T}")
    heat_errors._check_values(float(tape.M_master + 1) * tape.N_master,
                              f"simulate at M={d.M}, N={d.N}")
    y_path, o_path, _ = run_scheme(model, d, tape.increments(d.M, d.N)[None])
    return y_path[0], o_path[0]


TRAJECTORY_HEADER = "t,mode_index,Y_coeff,O_coeff,indicator"
CSV_CHUNK_VALUES = 8192  # (grid time, mode) values per chunk of trajectory_csv


def trajectory_csv(model: ModelParams, d: DiscretizationParams,
                   Y: np.ndarray, O: np.ndarray):
    """CSV dump of the (M+1, N) rows, one line per (grid time, mode); the
    indicator is re-evaluated at each time so the column can be cross-checked
    from the dumped coefficients.  Yields the text in chunks of whole grid
    times, about CSV_CHUNK_VALUES values each, so that writing it takes
    memory for one chunk, not for the whole dump."""
    h = model.T / d.M
    on = truncation_indicator(Y, O, d, model.T, model.nu)
    yield TRAJECTORY_HEADER + "\n"
    step = max(1, CSV_CHUNK_VALUES // d.N)
    for first in range(0, len(Y), step):
        rows = zip(Y[first:first + step].tolist(), O[first:first + step].tolist(),
                   on[first:first + step].tolist())
        # each grid time formats its t and indicator once, into a row template
        yield "".join([row % v for m, (y, o, ind) in enumerate(rows, first)
                       for row in ["%.17g,%%d,%%.17g,%%.17g,%d\n" % (m * h, ind)]
                       for v in zip(range(1, d.N + 1), y, o)])


def allen_cahn_model(T: float = 1.0, nu: float = 1.0, preset: str = "bump",
                     n_xi_modes: int = 512) -> ModelParams:
    """The reference nonlinear model: F(v) = v - v^3 with a named initial state."""
    return ModelParams(T=T, nu=nu, a=allen_cahn(),
                       xi=initial_coefficients(preset, n_xi_modes))
