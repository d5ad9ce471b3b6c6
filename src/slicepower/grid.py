"""Time-frequency resource grid, traffic targets and resource-set construction.

One slot of duration ``T`` is split into ``M`` mini-slots; the band holds
``F`` orthogonal resources of ``delta_f`` Hz each.  A (mini-slot, frequency)
cell is the smallest allocation unit.  The broadband user always occupies
all mini-slots of its frequencies; the low-latency user occupies a
contiguous window of mini-slots whose length is bounded by its delay budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import LatencyInfeasibleError

__all__ = [
    "Scheme",
    "ResourceGrid",
    "TrafficSpec",
    "ResourceSets",
    "spectral_efficiency",
    "select_urllc_frequencies",
    "build_resource_sets",
]


class Scheme(str, enum.Enum):
    """Multiple-access scheme: orthogonal or superposed resources."""

    OMA = "oma"
    NOMA = "noma"


@dataclass(frozen=True)
class ResourceGrid:
    """Grid constants.  ``T_m`` is always derived as ``T / M``."""

    F: int
    M: int
    delta_f: float
    T: float

    def __post_init__(self):
        if self.F < 1 or self.M < 1:
            raise ValueError(f"grid needs F >= 1 and M >= 1, got F={self.F}, M={self.M}")
        if self.delta_f <= 0.0 or self.T <= 0.0:
            raise ValueError("delta_f and T must be positive")

    @property
    def T_m(self) -> float:
        return self.T / self.M


@dataclass(frozen=True)
class TrafficSpec:
    """Payload sizes and the URLLC reliability/latency targets.

    ``M_u_max`` is the delay budget in mini-slots and ``W_u`` the number of
    mini-slots already consumed by waiting, so a transmission may span at
    most ``M_u_max - W_u`` mini-slots.
    """

    N_e: float
    N_u: float
    epsilon_u: float
    M_u_max: int
    W_u: int = 0

    def __post_init__(self):
        if self.N_e <= 0.0 or self.N_u <= 0.0:
            raise ValueError("payloads must be positive")
        if not 0.0 < self.epsilon_u < 1.0:
            raise ValueError(f"epsilon_u must be in (0, 1), got {self.epsilon_u}")
        if self.M_u_max < 1:
            raise ValueError("M_u_max must be >= 1")
        if not 0 <= self.W_u <= self.M_u_max:
            raise ValueError(f"W_u must satisfy 0 <= W_u <= M_u_max, got {self.W_u}")

    @property
    def max_window(self) -> int:
        return self.M_u_max - self.W_u


@dataclass(frozen=True)
class ResourceSets:
    """URLLC frequency and mini-slot index sets; the broadband frequencies
    follow from the scheme, and the broadband user spans every mini-slot."""

    f_u: tuple
    m_u: tuple
    scheme: Scheme
    grid: ResourceGrid = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        if any(f < 0 or f >= self.grid.F for f in self.f_u):
            raise ValueError(f"frequency indices out of range 0..{self.grid.F - 1}")
        if len(set(self.f_u)) != len(self.f_u):
            raise ValueError("duplicate frequency indices")
        if self.scheme is Scheme.OMA and len(self.f_u) == self.grid.F:
            raise ValueError(
                f"OMA reserves all {self.grid.F} frequencies for URLLC, "
                "leaving the broadband user none"
            )
        if not self.m_u:
            raise ValueError("the URLLC window must span at least one mini-slot")
        if list(self.m_u) != list(range(min(self.m_u), min(self.m_u) + len(self.m_u))):
            raise ValueError("URLLC mini-slots must be contiguous")
        if min(self.m_u) < 0 or max(self.m_u) >= self.grid.M:
            raise ValueError(f"mini-slot indices out of range 0..{self.grid.M - 1}")

    @property
    def f_e(self) -> tuple:
        """The whole band under NOMA; under OMA, the frequencies URLLC leaves."""
        return tuple(f for f in range(self.grid.F)
                     if self.scheme is Scheme.NOMA or f not in self.f_u)

    @property
    def F_u(self) -> int:
        return len(self.f_u)

    @property
    def F_e(self) -> int:
        return len(self.f_e)

    @property
    def M_u(self) -> int:
        return len(self.m_u)


def spectral_efficiency(n_bits: float, grid: ResourceGrid, f_count: int, m_count: int) -> float:
    """Average rate [bit/s/Hz] that carries ``n_bits`` over the given resources.

    ``n_bits / (T_m * delta_f * f_count * m_count)``; doubling the number of
    resources halves the per-resource rate.
    """
    if f_count < 1 or m_count < 1:
        raise ValueError(f"resource counts must be >= 1, got F={f_count}, M={m_count}")
    if n_bits <= 0.0:
        raise ValueError(f"payload must be positive, got {n_bits}")
    return n_bits / (grid.T_m * grid.delta_f * f_count * m_count)


def select_urllc_frequencies(gamma_e: np.ndarray, f_u_count: int) -> tuple:
    """Indices of the ``f_u_count`` weakest broadband channels.

    Reserving the weakest channels for the URLLC user costs the broadband
    user the least; the URLLC link statistics do not depend on the choice.
    Ties break toward the lowest index so runs are reproducible.
    """
    gamma_e = np.asarray(gamma_e, dtype=float)
    if gamma_e.ndim != 1:
        raise ValueError("gamma_e must be a vector")
    if not (gamma_e >= 0.0).all():
        raise ValueError("SNRs must be non-negative")
    if not 0 <= f_u_count <= gamma_e.size:
        raise ValueError(f"need 0 <= F_u <= {gamma_e.size}, got {f_u_count}")
    return tuple(sorted(gamma_e.argsort(kind="stable")[:f_u_count].tolist()))


def build_resource_sets(
    scheme: Scheme,
    grid: ResourceGrid,
    f_u: tuple,
    m_u_count: int,
    traffic: TrafficSpec,
) -> ResourceSets:
    """Assemble the per-user index sets for one slot.

    The URLLC window is the earliest admissible one, starting right after
    the already-elapsed waiting time.  Channel gains are static over the
    slot so any admissible window performs identically.
    """
    if traffic.M_u_max > grid.M:
        raise ValueError(
            f"latency budget M_u_max={traffic.M_u_max} exceeds the slot "
            f"({grid.M} mini-slots)"
        )
    if m_u_count > traffic.max_window:
        raise LatencyInfeasibleError(
            f"window of {m_u_count} mini-slots exceeds the remaining budget "
            f"{traffic.max_window} (M_u_max={traffic.M_u_max}, W_u={traffic.W_u})"
        )
    return ResourceSets(f_u=tuple(sorted(int(f) for f in f_u)),
                        m_u=tuple(range(traffic.W_u, traffic.W_u + m_u_count)),
                        scheme=scheme, grid=grid)
