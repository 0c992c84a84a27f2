"""Space-time white noise tape and the Monte Carlo estimator.

The tape hands out the Brownian coefficient increments Delta W[j][k] of the
first N_master sine modes on a master grid of M_master steps.  Generation is
counter-based: element (path, substream, j, k) sits at a fixed Philox counter
position and normals come from the inverse CDF of 53-bit uniforms, so any
element can be regenerated independently, bit-identically, in any order and
under any parallel schedule.  Coarser resolutions are produced by summing
master increments in fixed groups, which is what couples refinements in the
convergence studies.  The discretized OU process itself is stepped by
scheme.run_scheme, and its closed-form moments live in heat_errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

# keeps the 128-bit Philox key apart from small seeds; 0x9E3779B97F4A7C15 as the
_KEY_SALT = 0x9E3779B97F4A8000  # float64 it was always rounded to, so tapes keep their bits

SUBSTREAM_INCREMENTS = 0
SUBSTREAM_AUX = 1  # residual draws for the exact true-vs-discrete coupling
MAX_COUNTER = 2**64 - 1  # a tape's seed and path index are 64-bit Philox words


def _uniform_open(raw: np.ndarray) -> np.ndarray:
    # 53-bit mantissa, shifted to the open interval (0,1)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


@dataclass(frozen=True)
class NoiseTape:
    """Reproducible white-noise increments for one sample path.

    Fields
    ------
    seed : master seed shared by a whole experiment, an integer in [0, MAX_COUNTER]
    M_master, N_master : master resolution; every consumed (M, N) must satisfy
        M | M_master and N <= N_master
    T : time horizon; master step is T/M_master
    path : sub-stream index of this sample path, an integer in [0, MAX_COUNTER]
    """

    seed: int
    M_master: int
    N_master: int
    T: float
    path: int = 0

    def __post_init__(self):
        for name in ("seed", "M_master", "N_master", "path"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if not (0 <= self.seed <= MAX_COUNTER):
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.M_master < 1 or self.N_master < 1:
            raise ValueError("master resolution must be at least (1, 1)")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError(f"horizon T must be positive and finite, got {self.T}")
        if not (0 <= self.path <= MAX_COUNTER):
            raise ValueError(f"path index must fit in 64 bits, got {self.path}")

    @property
    def h_master(self) -> float:
        return self.T / self.M_master

    def _raw(self, substream: int, start: int, count: int) -> np.ndarray:
        """count raw 64-bit words from stream position `start`."""
        block, offset = divmod(start, 4)
        bg = Philox(  # as uint64 arrays: a list with a word past 2^63 would round as floats
            counter=np.array([block, substream, self.path, 0], dtype=np.uint64),
            key=np.array([self.seed, _KEY_SALT], dtype=np.uint64))
        return bg.random_raw(offset + count)[offset:]

    def normals(self, rows: int | None = None, cols: int | None = None,
                substream: int = SUBSTREAM_INCREMENTS) -> np.ndarray:
        """Standard normal block of shape (rows, cols), rows of stride N_master.

        Element (j, k) is a pure function of (seed, path, substream, j, k);
        requesting fewer rows or columns returns the identical leading block.
        """
        return self._block(substream, 0, self.M_master if rows is None else rows, cols)

    def _block(self, substream: int, first: int, stop: int, cols: int | None) -> np.ndarray:
        """Normals of rows first..stop-1 and the leading cols columns."""
        cols = self.N_master if cols is None else cols
        if not (0 <= first <= stop <= self.M_master and 0 <= cols <= self.N_master):
            raise ValueError(
                f"requested rows [{first},{stop}) x {cols} columns lie outside master "
                f"({self.M_master},{self.N_master})"
            )
        raw = self._raw(substream, first * self.N_master, (stop - first) * self.N_master)
        block = raw.reshape(stop - first, self.N_master)[:, :cols]
        from scipy.special import ndtri  # here, so a run that draws no normal never loads scipy
        return ndtri(_uniform_open(block))

    def normal_at(self, j: int, k: int, substream: int = SUBSTREAM_INCREMENTS) -> float:
        """Single element (j, k), derived independently of any block request."""
        if not (0 <= j < self.M_master and 0 <= k < self.N_master):
            raise ValueError(f"element ({j},{k}) outside master block")
        raw = self._raw(substream, j * self.N_master + k, 1)
        from scipy.special import ndtri
        return float(ndtri(_uniform_open(raw))[0])

    def master_increments(self, n_modes: int | None = None,
                          rows: tuple[int, int] | None = None) -> np.ndarray:
        """Delta W at master resolution: normals scaled by sqrt(T/M_master).

        rows=(first, stop) returns only master steps first..stop-1, bit for
        bit the same rows as the full block, without drawing the others.
        """
        first, stop = (0, self.M_master) if rows is None else rows
        z = self._block(SUBSTREAM_INCREMENTS, first, stop, n_modes)
        return z * np.sqrt(self.h_master)

    def increments(self, n_steps: int, n_modes: int) -> np.ndarray:
        """Delta W at a coarse resolution (n_steps, n_modes).

        Coarse step j is the in-order group sum of master increments; the
        result is a deterministic function of the tape identity alone.
        """
        return coarsen_increments(self.master_increments(n_modes), n_steps)


def coarsen_increments(master: np.ndarray, n_steps: int) -> np.ndarray:
    """Group-sum master-resolution increments (..., m_master, n_modes) down to
    n_steps rows; leading axes (paths) are kept.  With n_steps = m_master
    there is nothing to sum and the input itself is returned.  Every group
    is summed row by row, so coarsening the first n modes gives the first n
    modes of a wider coarsening: numpy sums the group axis so for two or
    more modes, but a lone mode's pairwise, so one mode takes a running sum."""
    *lead, m_master, n_modes = master.shape
    if not (n_steps >= 1 and m_master % n_steps == 0):
        raise ValueError(f"n_steps must be a positive divisor of the master step count "
                         f"{m_master}, got {n_steps}")
    group = m_master // n_steps
    if group == 1:
        return master
    grouped = master.reshape(*lead, n_steps, group, n_modes)
    if n_modes == 1:
        return np.add.accumulate(grouped, axis=-2)[..., -1, :]
    return grouped.sum(axis=-2)


# ---------------------------------------------------------------------------
# Monte Carlo estimator
#
# A batch of samples is kept as its in-order sum and its M2, the sum of
# squared deviations from the batch mean; batches merge with the pairwise
# update of Chan, Golub & LeVeque (1979).  Unlike E[x^2] - mean^2 this does
# not cancel when the spread is small against the mean.

def sum_and_m2(samples):
    """(sum, M2) along the first axis of samples: two left folds in sample
    order (np.add.accumulate; the pairwise np.add.reduce has other bits)."""
    samples = np.asarray(samples, dtype=np.float64)
    total = np.add.accumulate(samples, axis=0)[-1]
    d = samples - total / len(samples)
    return total, np.add.accumulate(d * d, axis=0)[-1]


def merge_m2(n_a: int, total_a, m2_a, n_b: int, total_b, m2_b):
    """M2 of two batches joined, from each batch's count, sum and M2."""
    delta = total_b / n_b - total_a / n_a
    return m2_a + m2_b + delta * delta * (n_a * n_b / (n_a + n_b))


def mean_stderr(total, m2, n: int, root: bool = False) -> tuple[float, float]:
    """(mean, stderr of the mean) of n samples from their sum and M2.

    root=True returns sqrt(mean) with its delta-method stderr, the form used
    for L^2(P) norms estimated from squared samples.  One sample has no
    stderr (nan).
    """
    mean = total / n
    se = math.sqrt(m2 / (n - 1) / n) if n >= 2 else math.nan
    if not root:
        return mean, se
    est = math.sqrt(max(mean, 0.0))
    return est, (se / (2.0 * est) if est > 0.0 else se)  # est == 0: every sample was 0
