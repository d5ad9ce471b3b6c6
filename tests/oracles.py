"""Independent oracles used by the unit and acceptance suites.

The water-filling oracle never looks at the solver's KKT structure: it
enumerates power grids for all but the last channel and solves the last
one analytically from the residual rate, so any feasible vector cheaper
than the closed form would be found.

The frozen-draw outage oracle keeps no cache at all: every try or commit
recomputes the whole rate column at both powers.
"""

import math

import numpy as np

from slicepower import OutageEstimate
from slicepower.rng import substream


def residual_power(gain: float, rate_bits) -> np.ndarray:
    """Cheapest power carrying ``rate_bits`` on a single channel."""
    return (np.exp2(rate_bits) - 1.0) / gain


def oracle_min_total(gains, target_bits: float, budget: float, step: float) -> float:
    """Cheapest feasible total found by grid search (1 to 3 channels).

    Only vectors whose coordinates stay within ``budget`` are searched;
    any vector with a coordinate beyond the budget already costs more
    than ``budget`` in total, so a candidate answer at or below the
    budget cannot be missed.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.size == 1:
        return float(residual_power(gains[0], target_bits))
    axis = np.arange(0.0, budget + step, step)
    if gains.size == 2:
        r1 = np.log2(1.0 + gains[0] * axis)
        need = np.clip(target_bits - r1, 0.0, None)
        totals = axis + residual_power(gains[1], need)
        return float(totals.min())
    if gains.size == 3:
        r1 = np.log2(1.0 + gains[0] * axis)[:, None]
        r2 = np.log2(1.0 + gains[1] * axis)[None, :]
        need = np.clip(target_bits - r1 - r2, 0.0, None)
        totals = axis[:, None] + axis[None, :] + residual_power(gains[2], need)
        return float(totals.min())
    raise ValueError("oracle supports at most 3 channels")


def check_against_oracle(gains, target_bits: float, closed_powers) -> tuple:
    """Compare a closed-form solution against the grid oracle.

    Returns (closed_total, oracle_total, step); the step is 1e-3 of the
    closed form's water level, as measured from its largest entry.
    """
    closed_powers = np.asarray(closed_powers, dtype=float)
    closed_total = float(closed_powers.sum())
    positive = closed_powers > 0.0
    level = float((closed_powers + 1.0 / np.asarray(gains, float))[positive].max())
    step = 1e-3 * level
    oracle_total = oracle_min_total(gains, target_bits, closed_total + step, step)
    return closed_total, oracle_total, step


class UncachedCommonRandomOutage:
    """Oracle: the frozen-draw estimator before its columns were cached.

    The draws are draw-major and every try or commit recomputes the rate
    column at both the current and the new value.
    """

    def __init__(self, gamma_u_mean, f_count, r_u, draws, seed):
        self.target_nats = f_count * r_u * math.log(2.0)
        self.gamma = gamma_u_mean * substream(seed, "crn").standard_exponential((draws, f_count))
        self.draws = draws
        self.f_count = f_count

    @staticmethod
    def _rate(gamma, p_u, p_e):
        num = gamma * p_u
        den = 1.0 + gamma * p_e
        return np.log1p(num / den)

    def _estimate(self, total):
        return OutageEstimate.from_counts(int((total <= self.target_nats).sum()), self.draws)

    def estimate(self, p_u, p_e):
        p_u = np.broadcast_to(np.asarray(p_u, float), (self.f_count,))
        p_e = np.broadcast_to(np.asarray(p_e, float), (self.f_count,))
        return self._estimate(self._rate(self.gamma, p_u, p_e).sum(axis=1))

    def attach(self, p_u, p_e):
        self._p_u = np.array(np.broadcast_to(np.asarray(p_u, float), (self.f_count,)))
        self._p_e = np.array(np.broadcast_to(np.asarray(p_e, float), (self.f_count,)))
        self._total = self._rate(self.gamma, self._p_u, self._p_e).sum(axis=1)
        return self._estimate(self._total)

    def _delta(self, f, value):
        g, p_e_f = self.gamma[:, f], self._p_e[f]
        return self._rate(g, value, p_e_f) - self._rate(g, self._p_u[f], p_e_f)

    def try_coordinate(self, f, value):
        return self._estimate(self._total + self._delta(f, value))

    def commit(self, f, value):
        self._total += self._delta(f, value)
        self._p_u[f] = value
