"""Water-filling, its three closed-form uses and the interference-limited rate.

All solvers minimize total power subject to a sum-rate constraint
``sum_f log2(1 + g(f) P(f)) >= rate_target`` and share one structure:
on the positive set the solution is ``P(f) = mu - 1/g(f)`` with the
common level ``mu`` chosen so the constraint is tight.  Channels whose
tentative power would be non-positive are excluded and the level
re-solved; the fixed point of that iteration is computed directly by
scanning channels in gain order.  The level is evaluated in the log
domain so widely spread gains cannot overflow the products.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RateInfeasibleError, ZeroInterferenceError
from .grid import Scheme

__all__ = ["waterfill", "embb_power", "sic_power", "il_power", "mutual_info_il"]

_LN2 = math.log(2.0)
# a gain at or below this has no inverse below float64's largest value
_UNREACHABLE = 1.0 / np.finfo(float).max


def waterfill(gains: np.ndarray, rate_target: float) -> np.ndarray:
    """Minimum-power allocation over parallel channels with the given gains.

    Returns the per-channel powers in the input order; excluded channels
    get exactly 0.  Gains must be strictly positive and finite; a gain at
    or below ``1 / finfo(float).max`` is unreachable and gets 0 as well.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("gains must be a non-empty vector")
    if not 0.0 < rate_target < np.inf:
        raise ValueError(f"rate target must be positive and finite, got {rate_target}")
    if not ((g > _UNREACHABLE) & (g < np.inf)).all():
        if not ((g > 0.0) & (g < np.inf)).all():
            raise ValueError("waterfill needs strictly positive finite gains")
        reachable = g > _UNREACHABLE
        if not reachable.any():
            raise RateInfeasibleError("every gain is too small for any finite power to carry rate")
        powers = np.zeros(g.size)
        powers[reachable] = waterfill(g[reachable], rate_target)
        return powers

    inv = 1.0 / g
    order = inv.argsort(kind="stable")
    inv_sorted = inv[order]
    log2_inv = np.log2(inv_sorted)
    # level when the k best channels are active, in log2 domain
    log2_mu = (rate_target + log2_inv.cumsum()) / np.arange(1.0, g.size + 1.0)
    admissible = (log2_mu > log2_inv).nonzero()[0]
    # k=1 is admissible in exact arithmetic; a rate below the rounding of
    # log2(1/g) leaves none, and the best channel alone then gets about 0
    k = admissible[-1] + 1 if admissible.size else 1
    if log2_mu[k - 1] >= 1024.0:  # 2**1024 overflows float64
        raise RateInfeasibleError(
            f"rate target {rate_target:g} bit/s/Hz needs a water level of "
            f"2^{log2_mu[k - 1]:.0f}, beyond float64 range"
        )

    powers = np.zeros(g.size)
    powers[order[:k]] = 2.0 ** log2_mu[k - 1] - inv_sorted[:k]
    np.clip(powers, 0.0, None, out=powers)
    return powers


def _usable(gamma_e: np.ndarray, which: str) -> np.ndarray:
    """Mask of the positive gains, which must be non-negative and not all zero."""
    if not (gamma_e >= 0.0).all():
        raise ValueError("gains must be non-negative")
    usable = gamma_e > 0.0
    if not usable.any():
        raise RateInfeasibleError(f"every {which} channel has zero gain")
    return usable


def embb_power(gamma_e: np.ndarray, r_e: float) -> np.ndarray:
    """Broadband powers meeting ``sum log2(1 + gamma P) >= F_e * r_e``.

    Zero-gain channels are excluded up front; they cannot carry rate at
    any power.
    """
    gamma_e = np.asarray(gamma_e, dtype=float)
    if gamma_e.ndim != 1 or gamma_e.size == 0:
        raise ValueError("gains must be a non-empty vector of offered channels")
    if gamma_e.min() > 0.0:
        return waterfill(gamma_e, r_e * gamma_e.size)
    usable = _usable(gamma_e, "offered")
    powers = np.zeros_like(gamma_e)
    powers[usable] = waterfill(gamma_e[usable], r_e * gamma_e.size)
    return powers


def sic_power(p_e: np.ndarray, gamma_e: np.ndarray, r_u: float, scheme: Scheme) -> np.ndarray:
    """Minimum URLLC power that the broadband receiver can still cancel.

    The broadband receiver decodes the URLLC stream against its own
    signal as interference, so the effective channel of resource ``f`` is
    ``gamma_e(f) / (1 + gamma_e(f) P_e(f))``.  Under OMA there is nothing
    to cancel and the result is identically zero.
    """
    p_e = np.asarray(p_e, dtype=float)
    gamma_e = np.asarray(gamma_e, dtype=float)
    if p_e.ndim != 1 or p_e.shape != gamma_e.shape:
        raise ValueError("power and gain vectors must align")
    if Scheme(scheme) is Scheme.OMA:
        return np.zeros_like(p_e)
    if not (p_e >= 0.0).all():
        raise ValueError("powers must be non-negative")
    if gamma_e.size and gamma_e.min() > 0.0:
        return waterfill(_sic_gains(gamma_e, p_e), r_u * p_e.size)
    usable = _usable(gamma_e, "shared")
    powers = np.zeros_like(p_e)
    powers[usable] = waterfill(_sic_gains(gamma_e[usable], p_e[usable]), r_u * p_e.size)
    return powers


def _sic_gains(g: np.ndarray, p_e: np.ndarray) -> np.ndarray:
    """Effective gains ``g / (1 + g P_e)``; where ``g P_e`` passes float64
    range the gain reads 0, which :func:`waterfill` rejects."""
    with np.errstate(over="ignore"):
        return g / (1.0 + g * p_e)


def substitute_zero_interference(p_e: np.ndarray) -> np.ndarray:
    """Replace zero-interference entries by the smallest positive one.

    In the interference-limited regime a channel with no broadband power
    behaves (with probability approaching one) at least as well as the
    least-interfered shared channel, so that channel's power stands in.
    """
    p_e = np.asarray(p_e, dtype=float)
    if not (p_e >= 0.0).all():
        raise ValueError("interference powers must be non-negative")
    positive = p_e > 0.0
    if not positive.any():
        raise ZeroInterferenceError(
            "no resource sees broadband interference; the interference-limited "
            "approximation does not apply"
        )
    filled = p_e.copy()
    filled[~positive] = p_e[positive].min()
    return filled


def il_power(p_e: np.ndarray, r_u: float) -> np.ndarray:
    """URLLC powers for the interference-limited regime.

    With the URLLC SNR large, noise drops out and each shared resource
    acts as a channel of gain ``1 / P_e(f)``; zero-interference resources
    take the substituted value first.  The usual exclusion applies: for
    widely spread ``P_e`` the unconstrained level would drive some
    entries negative.  An interference power at or below
    ``1 / finfo(float).max`` is a finite, near-perfect channel.
    """
    filled = substitute_zero_interference(p_e)
    if filled.min() > _UNREACHABLE:
        return waterfill(1.0 / filled, r_u * filled.size)
    # 1 / P_e overflows: fill against 2**51 times the interference, which scales
    # the level and every power by that exact factor.  2**-51 / P_e is finite and
    # positive for every float P_e; beside a tiny one, a P_e above ~1e293 is unused
    return waterfill(2.0**-51 / filled, r_u * filled.size) * 2.0**-51


def mutual_info_il(p_u, p_e) -> float:
    """Interference-limited lower-bound rate of the URLLC stream.

    Noise is dropped and zero-interference entries take the smallest
    positive broadband power before the ratio is formed.
    """
    p_u = np.asarray(p_u, dtype=float)
    filled = substitute_zero_interference(p_e)
    with np.errstate(over="ignore"):
        ratio = p_u / filled
    if filled.min() > _UNREACHABLE and np.isfinite(ratio).all():
        rates = np.log1p(ratio)
    else:  # p_u / P_e overflows float64: subtract the logarithms instead
        rates = np.log(filled + p_u) - np.log(filled)
    return float(rates.sum() / (_LN2 * p_u.size))
