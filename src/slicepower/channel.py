"""Rayleigh fading, normalized SNR bookkeeping and path-loss geometry.

Instantaneous normalized SNRs are exponential with the mean set by path
loss and noise.  Inside the package every gain is kept per milliwatt
(``gain * power_mw`` = SNR); the dB figures used for configuration are
normalized per watt, 30 dB apart (see :mod:`slicepower.units`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .units import C_LIGHT, db_to_linear

__all__ = [
    "Geometry",
    "drop",
    "distance_from_mean_snr",
    "mean_snr_from_distance",
]


@dataclass(frozen=True)
class Geometry:
    """Antenna/path-loss constants of the cell.

    ``G_db`` is the combined transmit+receive antenna gain, ``f0`` the
    carrier [Hz], ``d0`` the free-space reference distance [m], ``alpha``
    the path-loss exponent and ``cell_radius`` the serving range [m].
    """

    G_db: float = 17.15
    f0: float = 2e9
    d0: float = 10.0
    alpha: float = 4.0
    cell_radius: float = 500.0

    def __post_init__(self):
        if self.alpha <= 2.0:
            raise ValueError("path-loss exponent must exceed 2")
        if self.d0 <= 0.0 or self.cell_radius < self.d0:
            raise ValueError("need 0 < d0 <= cell_radius")


def drop(seed: int, index: int, gamma_e_mean: float, f_count: int) -> np.ndarray:
    """Broadband gains of fading drop ``index``: ``f_count`` i.i.d.
    Rayleigh-fading draws, exponential with mean ``gamma_e_mean`` per mW.
    The draw depends on ``(seed, index)`` only, so every scheme, algorithm
    and placement of a run shares it."""
    if not 0.0 < gamma_e_mean < math.inf or f_count < 1:
        raise ValueError(f"need a finite mean > 0 and count >= 1, got mean={gamma_e_mean}, "
                         f"count={f_count}")
    return gamma_e_mean * rngmod.substream(seed, "drop", index).standard_exponential(f_count)


def _path_gain_numerator(geom: Geometry) -> float:
    return (
        db_to_linear(geom.G_db)
        * (C_LIGHT / (4.0 * math.pi * geom.f0)) ** 2
        * geom.d0 ** (geom.alpha - 2.0)
    )


def distance_from_mean_snr(gamma_mean: float, geom: Geometry, sigma2_watt: float) -> float:
    """Distance [m] at which the mean normalized SNR equals ``gamma_mean``.

    ``gamma_mean`` is linear, normalized per watt; the noise power must be
    in watts for the inversion to land on physical distances.
    """
    if gamma_mean <= 0.0:
        raise ValueError("mean SNR must be positive")
    return (_path_gain_numerator(geom) / (gamma_mean * sigma2_watt)) ** (1.0 / geom.alpha)


def mean_snr_from_distance(distance: float, geom: Geometry, sigma2_watt: float) -> float:
    """Exact inverse of :func:`distance_from_mean_snr` (per-watt linear)."""
    if distance < geom.d0:
        raise ValueError(
            f"distance {distance} m is inside the free-space reference d0={geom.d0} m"
        )
    return _path_gain_numerator(geom) / (sigma2_watt * distance**geom.alpha)
