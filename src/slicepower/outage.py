"""Mutual-information evaluators and Monte Carlo outage estimation.

The URLLC receiver always sees the broadband signal as interference, so
its per-resource mutual information is ``log2(1 + g Pu / (1 + g Pe))``.
Outage is the event that the sum over the assigned resources falls at or
below ``F_u * r_u``.  Fading is quasi-static: mini-slots repeat the same
draw, so rates fold the window length and a single draw per frequency
suffices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .grid import Scheme
from .waterfill import substitute_zero_interference

__all__ = [
    "OutageEstimate",
    "mutual_info_u",
    "mutual_info_sic",
    "mutual_info_e",
    "mutual_info_il",
    "estimate_outage",
    "single_freq_power",
    "CommonRandomOutage",
]

_LN2 = math.log(2.0)
#: draws per block of fading gains; it bounds the working memory of the kernels
_ROWS = 1 << 12
#: margin of the near set: its width grows with a try's largest fall by
#: this share and this many nats, far above the rounding of any rate or total
_BAND = 1e-6


def _sinr_rate_nats(gamma, p_u, p_e, den: np.ndarray, out=None) -> np.ndarray:
    """ln(1 + gamma*p_u / (1 + gamma*p_e)), broadcast to the shape of ``den``.

    ``den`` receives ``1 + gamma*p_e``; it may be ``gamma`` itself, which
    is then overwritten.  The rates go to ``out`` or a new array.
    """
    rate = np.multiply(gamma, p_u, out=np.empty_like(den) if out is None else out)
    np.multiply(gamma, p_e, out=den)
    den += 1.0
    rate /= den
    return np.log1p(rate, out=rate)


def mutual_info_u(p_u, p_e, gamma_u) -> float:
    """Rate [bit/s/Hz] of the URLLC stream at its own receiver."""
    p_u, p_e, gamma_u = np.broadcast_arrays(
        np.asarray(p_u, float), np.asarray(p_e, float), np.asarray(gamma_u, float)
    )
    rate = _sinr_rate_nats(gamma_u, p_u, p_e, np.empty(p_u.shape))
    return float(rate.sum() / (_LN2 * p_u.size))


def mutual_info_sic(p_u, p_e, gamma_e, scheme: Scheme) -> float:
    """Rate of the URLLC stream as seen by the broadband receiver.

    This is what the interference-cancellation step must decode; it is
    identically zero under OMA where no cancellation happens.
    """
    if Scheme(scheme) is Scheme.OMA:
        return 0.0
    return mutual_info_u(p_u, p_e, gamma_e)


def mutual_info_e(p_e, gamma_e) -> float:
    """Rate of the broadband stream after interference cancellation."""
    p_e = np.asarray(p_e, dtype=float)
    gamma_e = np.asarray(gamma_e, dtype=float)
    return float(np.log1p(gamma_e * p_e).sum() / (_LN2 * p_e.size))


def mutual_info_il(p_u, p_e) -> float:
    """Interference-limited lower-bound rate of the URLLC stream.

    Noise is dropped and zero-interference entries take the smallest
    positive broadband power before the ratio is formed.
    """
    p_u = np.asarray(p_u, dtype=float)
    filled = substitute_zero_interference(p_e)
    return float(np.log1p(p_u / filled).sum() / (_LN2 * p_u.size))


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo outage probability with a 3-sigma binomial half-width."""

    p_hat: float
    trials: int
    ci_halfwidth: float

    @classmethod
    def from_counts(cls, outages: int, trials: int) -> "OutageEstimate":
        p = outages / trials
        return cls(p, trials, 3.0 * math.sqrt(p * (1.0 - p) / trials))


def _power_vectors(p_u, p_e, f_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Float copies of both power vectors over ``f_count`` resources."""
    p_u = np.array(np.broadcast_to(np.asarray(p_u, dtype=float), (f_count,)))
    p_e = np.array(np.broadcast_to(np.asarray(p_e, dtype=float), (f_count,)))
    if not (np.all(p_u >= 0.0) and np.all(p_e >= 0.0)):
        raise ValueError("powers must be non-negative")
    return p_u, p_e


def _target_nats(gamma_u_mean: float, samples: int, f_count: int, r_u: float) -> float:
    """Outage target ``F_u * r_u`` in nats, once the sampling setup is checked."""
    if samples < 1:
        raise ValueError(f"need at least one fading draw, got {samples}")
    if not 0.0 < gamma_u_mean < math.inf:
        raise ValueError(f"mean SNR must be positive and finite, got {gamma_u_mean}")
    if f_count < 1 or not 0.0 <= r_u < math.inf:
        raise ValueError(f"need F_u >= 1 and a finite rate r_u >= 0, got {f_count}, {r_u}")
    return f_count * r_u * _LN2


def _fading_blocks(seed: int, label: str, draws: int, f_count: int, gamma_u_mean: float):
    """``(rows, block)`` pairs of one ``(draws, F_u)`` exponential draw of mean
    ``gamma_u_mean`` from stream ``label``, in one reused C-ordered buffer."""
    gen = rngmod.substream(seed, label)
    buffer = np.empty((_ROWS, f_count))
    for start in range(0, draws, _ROWS):
        block = gen.standard_exponential(out=buffer[:draws - start])
        block *= gamma_u_mean
        yield slice(start, start + len(block)), block


def _outages(total_nats: np.ndarray, target_nats: float) -> int:
    """Number of draws whose accumulated rate is at or below the target."""
    return int(np.count_nonzero(total_nats <= target_nats))


def _sure_outage_bound_nats(p_u: np.ndarray, p_e: np.ndarray) -> float:
    """Supremum of the achievable rate over all fading draws, if finite.

    On interfered resources the rate is strictly below ``log(1+Pu/Pe)``
    for every finite draw; resources with power but no interference have
    unbounded rate.
    """
    bound = 0.0
    for pu_f, pe_f in zip(p_u, p_e):
        if pu_f <= 0.0:
            continue
        if pe_f <= 0.0:
            return math.inf
        bound += math.log1p(pu_f / pe_f)
    return bound


def estimate_outage(
    p_u,
    p_e,
    gamma_u_mean: float,
    r_u: float,
    trials: int,
    seed: int,
) -> OutageEstimate:
    """Fraction of fading draws whose accumulated rate misses ``F_u * r_u``.

    ``p_u`` and ``p_e`` are per-frequency power vectors over the URLLC
    set (uniform power is just a constant vector); draws are exponential
    with mean ``gamma_u_mean``, independent per frequency, from a stream
    derived from ``seed``.  When no draw can reach the target the exact
    value 1 is returned without sampling; this equals what any seed would
    estimate.
    """
    f_count = np.size(p_u)
    target_nats = _target_nats(gamma_u_mean, trials, f_count, r_u)
    p_u, p_e = _power_vectors(p_u, p_e, f_count)

    if _sure_outage_bound_nats(p_u, p_e) <= target_nats:
        return OutageEstimate(1.0, trials, 0.0)

    rate, outages = np.empty((_ROWS, f_count)), 0
    for _, gamma in _fading_blocks(seed, "outage", trials, f_count, gamma_u_mean):
        block = _sinr_rate_nats(gamma, p_u, p_e, den=gamma, out=rate[:len(gamma)])
        outages += _outages(block.sum(axis=1), target_nats)
    return OutageEstimate.from_counts(outages, trials)


def single_freq_power(r_u: float, gamma_u_mean: float, epsilon_u: float, p_e_f: float = 0.0) -> float:
    """Exact minimum power on a single Rayleigh resource.

    With one frequency the outage probability has a closed form, so the
    power solving ``p_u = epsilon_u`` is
    ``(2^r - 1) (P_e - 1 / (Gamma ln(1 - epsilon)))``.
    """
    if not 0.0 < epsilon_u < 1.0:
        raise ValueError("epsilon_u must be in (0, 1)")
    if gamma_u_mean <= 0.0:
        raise ValueError("mean SNR must be positive")
    if r_u == 0.0:
        return 0.0
    return (2.0**r_u - 1.0) * (p_e_f - 1.0 / (gamma_u_mean * math.log1p(-epsilon_u)))


class CommonRandomOutage:
    """Outage estimator over one frozen matrix of fading draws.

    Reusing the same draws across candidate power vectors makes
    comparisons deterministic and exactly monotone: lowering any single
    power coordinate can only grow the outage count.

    The draws are kept resource-major, one contiguous column per
    resource.  :meth:`attach` caches, per resource, the rate column
    ``ln(1 + g Pu / (1 + g Pe))`` and the per-draw totals.  A try moving
    resource ``f`` from ``p`` to ``v`` counts ``fl(total + fl(col -
    rate_f)) <= target`` over the near set only: the draws whose total is
    at most ``target + W``, with ``W >= max(0, ln(p/v)) (1 + b) + b`` and
    ``b = 1e-6``.  As ``ln(1 + a p) - ln(1 + a v) <= ln(p/v)`` for
    ``v < p`` and any ``a >= 0``, a move lowers no total by more than
    ``ln(p/v)`` and a raise lowers none, up to rounding far below ``b``
    nats, so no other draw can be in outage.  The near set, with each
    tried resource's draws, denominators ``1 + g Pe`` and rates in it, is
    built on the first try after :meth:`attach` or :meth:`commit` and
    rebuilt wider when a try needs a larger ``W``.  A try to ``v = 0``
    counts ``fl(total - rate_f)`` over every draw.

    An attached estimator holds 2 x draws x F_u float64 (the draws and
    rates), the totals, two draws-long buffers and four values per near
    draw and tried resource.  Estimates are bit-identical to a full
    recompute.
    """

    def __init__(self, gamma_u_mean: float, f_count: int, r_u: float, draws: int, seed: int):
        self.target_nats = _target_nats(gamma_u_mean, draws, f_count, r_u)
        self._gamma = np.empty((f_count, draws))
        for rows, block in _fading_blocks(seed, "crn", draws, f_count, gamma_u_mean):
            self._gamma[:, rows] = block.T
        self.draws, self.f_count = draws, f_count
        self._total = None  # set, with the cached columns, by attach()

    def _estimate(self, total_nats: np.ndarray) -> OutageEstimate:
        return OutageEstimate.from_counts(_outages(total_nats, self.target_nats), self.draws)

    def _columns(self, p_u: np.ndarray, p_e: np.ndarray):
        """Rate columns at checked vectors, and the per-draw totals."""
        rate, total = np.empty_like(self._gamma), np.empty(self.draws)
        gamma, block = np.empty((2, _ROWS, self.f_count))
        for start in range(0, self.draws, _ROWS):  # draw-major, as in estimate_outage
            rows = slice(start, start + _ROWS)
            g = gamma[:self.draws - start]
            g[:] = self._gamma[:, rows].T
            b = _sinr_rate_nats(g, p_u, p_e, den=g, out=block[:len(g)])
            b.sum(axis=1, out=total[rows])
            rate[:, rows] = b.T
        return rate, total

    def estimate(self, p_u, p_e) -> OutageEstimate:
        """Outage estimate at an arbitrary vector pair (full recompute)."""
        p_u, p_e = _power_vectors(p_u, p_e, self.f_count)
        return self._estimate(self._columns(p_u, p_e)[1])

    # -- coordinate-update session -------------------------------------

    def attach(self, p_u, p_e) -> OutageEstimate:
        """Fix the working vectors and cache the columns and per-draw totals."""
        self._p_u, self._p_e = _power_vectors(p_u, p_e, self.f_count)
        self._rate, self._total = self._columns(self._p_u, self._p_e)
        self._col, self._den = np.empty(self.draws), np.empty(self.draws)
        self._near = None
        return self._estimate(self._total)

    def _near_columns(self, f: int, width: float):
        """Draws, denominators, rates and totals of ``f`` over a near set at least ``width`` wide."""
        if self._near is None or self._near[0] < width:
            idx = np.flatnonzero(self._total <= self.target_nats + width)
            self._near = (width, idx, self._total[idx], {})
        _, idx, total, gathered = self._near
        if f not in gathered:
            g = self._gamma[f][idx]
            den = np.multiply(g, self._p_e[f])
            den += 1.0
            gathered[f] = (g, den, self._rate[f][idx])
        return (*gathered[f], total)

    def _check(self, f: int, value: float) -> None:
        if self._total is None:
            raise RuntimeError("attach() a working vector first")
        if not 0 <= f < self.f_count:
            raise ValueError(f"resource {f} is outside 0..{self.f_count - 1}")
        if not value >= 0.0:
            raise ValueError("powers must be non-negative")

    def try_coordinate(self, f: int, value: float) -> OutageEstimate:
        """Estimate with coordinate ``f`` set to ``value`` (not committed)."""
        self._check(f, value)
        if value == 0.0:  # the rate at 0 is exactly 0
            return self._estimate(np.subtract(self._total, self._rate[f], out=self._col))
        p_f = self._p_u[f]
        fall = math.log(p_f) - math.log(value) if value < p_f else 0.0
        g, den, rate, total = self._near_columns(f, fall * (1.0 + _BAND) + _BAND)
        col = np.multiply(g, value, out=self._col[:len(g)])
        col /= den
        np.log1p(col, out=col)
        col -= rate
        col += total
        return self._estimate(col)

    def commit(self, f: int, value: float) -> None:
        """Adopt the change and drop the near set."""
        self._check(f, value)
        col = _sinr_rate_nats(self._gamma[f], value, self._p_e[f], self._den, out=self._col)
        self._total += np.subtract(col, self._rate[f], out=self._den)  # the change of each total
        self._rate[f] = col
        self._p_u[f], self._near = value, None
