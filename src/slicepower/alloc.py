"""The broadband stage of a slot and the two URLLC allocation algorithms.

The joint minimum-power problem decouples: the broadband powers follow
from water-filling alone and the cancellation floor from the broadband
solution (:func:`embb_stage`, once per drop); only the URLLC reliability
power needs search (:func:`urllc_stage`).  The table-based allocator picks
the uniform power that survives the worst tabulated interference; the
descent allocator starts there and walks coordinates down toward the
cancellation floor while a frozen-draw outage estimate stays inside the
target.  :func:`evidence_stage` then checks the final powers on fresh
draws; :func:`allocate` runs the two stages in turn, and a sweep runs each
evidence stage apart, on a helper thread.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import SlicePowerError
from .grid import (
    ResourceGrid,
    ResourceSets,
    Scheme,
    TrafficSpec,
    build_resource_sets,
    select_urllc_frequencies,
    spectral_efficiency,
)
from .outage import CommonRandomOutage, OutageEstimate, estimate_outage, mutual_info_u
from .table import OutageTable, min_feasible_power
from .units import dbm_to_mw
from .waterfill import embb_power, sic_power

__all__ = [
    "Algorithm",
    "BcdOptions",
    "AllocationResult",
    "EmbbStage",
    "embb_stage",
    "feasible_urllc_power",
    "descend_urllc_power",
    "urllc_stage",
    "evidence_stage",
    "allocate",
]

log = logging.getLogger(__name__)

_SIC_REL_TOL = 1e-9
# a step below this share of the largest active power only moves float rounding
_STEP_RESOLUTION = 1e-12


class Algorithm:
    FEASIBLE = "fea"
    BCD = "bcd"
    ALL = (FEASIBLE, BCD)


@dataclass(frozen=True)
class BcdOptions:
    """Descent controls.

    The initial step [mW] is ``mu0_fraction`` of the mean starting power.
    The step halves after any sweep that changes nothing and the loop
    stops at ``tau``, or sooner once the step is float noise on the powers.
    A move is accepted only when the frozen-draw estimate plus its
    confidence half-width stays at or below the outage target, so the
    final point is feasible with margin rather than by luck.
    """

    mu0_fraction: float = 0.1
    tau: float = 1e-7
    draws: int = 10**6
    use_margin: bool = True

    def __post_init__(self):
        for name in ("mu0_fraction", "tau"):  # the first step and the stop
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class EmbbStage:
    """The broadband half of one slot, from broadband CSI alone.

    ``p_e`` and the cancellation floor ``p_u_sic`` span the full grid.  The
    arrays are read-only copies, so one stage can serve every URLLC
    placement and algorithm of a drop."""

    gamma_e: np.ndarray
    sets: ResourceSets
    r_e: float
    r_u: float
    p_e: np.ndarray
    p_u_sic: np.ndarray

    def __post_init__(self):
        for name in ("gamma_e", "p_e", "p_u_sic"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)


@dataclass(frozen=True)
class AllocationResult:
    """The URLLC powers over the full grid on top of their broadband stage
    ``embb``, plus the feasibility evidence."""

    embb: EmbbStage
    p_u: np.ndarray
    p_u_hat: OutageEstimate
    sic_satisfied: bool
    algorithm: str
    iterations: int = 0

    @property
    def embb_power_mw(self) -> float:
        """Power spent on the broadband stream over the slot."""
        return float(self.embb.sets.grid.M * self.embb.p_e.sum())

    @property
    def urllc_power_mw(self) -> float:
        """Power spent on the URLLC stream over its window."""
        return float(self.embb.sets.M_u * self.p_u.sum())

    @property
    def p_total_mw(self) -> float:
        """Broadband plus URLLC power over the slot."""
        return self.embb_power_mw + self.urllc_power_mw


def feasible_urllc_power(
    p_e_on_fu: np.ndarray,
    p_u_sic_on_fu: np.ndarray,
    table: OutageTable,
    epsilon_u: float,
) -> np.ndarray:
    """Uniform tabulated power against the worst interference, then the
    cancellation floor per resource.

    Assuming every resource suffers the strongest broadband power makes
    the tabulated uniform entry a feasible choice for the true vector;
    raising individual entries to the cancellation floor only helps.
    """
    worst = float(np.max(p_e_on_fu)) if p_e_on_fu.size else 0.0
    level = dbm_to_mw(min_feasible_power(table, worst, epsilon_u))
    return np.maximum(level, p_u_sic_on_fu)


def descend_urllc_power(
    p_u_init: np.ndarray,
    p_u_sic_on_fu: np.ndarray,
    p_e_on_fu: np.ndarray,
    crn: CommonRandomOutage,
    epsilon_u: float,
    options: BcdOptions,
) -> tuple[np.ndarray, int]:
    """Block-coordinate descent from a feasible start.

    Sweeps coordinates in natural order; each move lowers one entry by
    the current step (never below the cancellation floor) and keeps it
    only if the frozen-draw outage estimate stays acceptable.  Entries
    that reach the floor leave the sweep.  Returns the final vector and
    the number of sweeps, and logs one DEBUG line with the sweeps, tries,
    accepted moves and step halvings beside the evaluator's ``repr``
    (for :class:`CommonRandomOutage`, its live draws out of all).
    """
    p = np.asarray(p_u_init, dtype=float).copy()
    floor = np.asarray(p_u_sic_on_fu, dtype=float)
    crn.attach(p, p_e_on_fu)
    active = [f for f in range(p.size) if p[f] > floor[f]]
    mu = options.mu0_fraction * float(np.mean(p))
    sweeps = tries = accepted = halvings = 0
    while active and mu > max(options.tau, _STEP_RESOLUTION * max(p[f] for f in active)):
        tries, before = tries + len(active), accepted
        for f in list(active):
            candidate = max(floor[f], p[f] - mu)
            est = crn.try_coordinate(f, candidate)
            margin = est.ci_halfwidth if options.use_margin else 0.0
            if est.p_hat + margin <= epsilon_u:
                crn.commit(f, candidate)
                p[f] = candidate
                accepted += 1
                if p[f] <= floor[f]:
                    active.remove(f)
        sweeps += 1
        if accepted == before:
            mu /= 2.0
            halvings += 1
    log.debug("bcd descent: %d sweeps, %d tries, %d accepted moves, %d step halvings on %r",
              sweeps, tries, accepted, halvings, crn)
    return p, sweeps


def _as_full(values: np.ndarray, indices, f_total: int) -> np.ndarray:
    full = np.zeros(f_total)
    full[list(indices)] = values
    return full


def embb_stage(grid: ResourceGrid, traffic: TrafficSpec, gamma_e: np.ndarray, scheme: Scheme,
               f_u_count: int, m_u_count: int) -> EmbbStage:
    """Selection -> resource sets -> broadband water-filling -> cancellation
    floor for one drop's broadband gains; nothing here needs URLLC input."""
    gamma_e = np.asarray(gamma_e, dtype=float)
    if gamma_e.size != grid.F:
        raise ValueError("broadband gains do not match the grid size")

    sets = build_resource_sets(
        scheme, grid, select_urllc_frequencies(gamma_e, f_u_count), m_u_count, traffic
    )
    r_e = spectral_efficiency(traffic.N_e, grid, sets.F_e, grid.M)
    r_u = spectral_efficiency(traffic.N_u, grid, sets.F_u, sets.M_u)
    fe = list(sets.f_e)
    fu = list(sets.f_u)
    p_e = _as_full(embb_power(gamma_e[fe], r_e), fe, grid.F)
    p_u_sic = _as_full(sic_power(p_e[fu], gamma_e[fu], r_u, scheme), fu, grid.F)
    return EmbbStage(gamma_e=gamma_e, sets=sets, r_e=r_e, r_u=r_u, p_e=p_e, p_u_sic=p_u_sic)


def urllc_stage(embb: EmbbStage, gamma_u: float, algorithm: str, epsilon_u: float, seed: int,
                table: OutageTable, bcd: BcdOptions = BcdOptions()) -> tuple[np.ndarray, int]:
    """URLLC powers on the URLLC resources by the chosen algorithm, for the
    URLLC mean gain ``gamma_u`` [per mW], and the descent's sweep count
    (0 for the table algorithm)."""
    if algorithm not in Algorithm.ALL:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {Algorithm.ALL}")
    if not gamma_u > 0.0:
        raise ValueError(f"mean SNR must be positive, got {gamma_u!r}")
    sets, r_u = embb.sets, embb.r_u
    if not table.matches(gamma_u, sets.F_u, r_u):
        raise SlicePowerError(
            f"table mismatch: table is for (Gamma_u={table.gamma_u:g}, "
            f"F_u={table.f_count}, r_u={table.r_u:g}) but the run needs "
            f"(Gamma_u={gamma_u:g}, F_u={sets.F_u}, r_u={r_u:g})"
        )

    fu = list(sets.f_u)
    p_e_on_fu = embb.p_e[fu]
    p_sic_on_fu = embb.p_u_sic[fu]
    p_u_on_fu = feasible_urllc_power(p_e_on_fu, p_sic_on_fu, table, epsilon_u)
    if algorithm != Algorithm.BCD:
        return p_u_on_fu, 0
    # built in the call, so its draws are freed when the stage returns
    crn_seed = int(rngmod.derive_seed_sequence(seed, "bcd-draws").generate_state(1)[0])
    return descend_urllc_power(
        p_u_on_fu, p_sic_on_fu, p_e_on_fu,
        CommonRandomOutage(gamma_u, sets.F_u, r_u, bcd.draws, seed=crn_seed), epsilon_u, bcd,
    )


def evidence_stage(embb: EmbbStage, gamma_u: float, algorithm: str, p_u_on_fu: np.ndarray,
                   iterations: int, seed: int, evidence_trials: int = 10**6) -> AllocationResult:
    """The result of :func:`urllc_stage`'s powers and sweep count under the
    same seed: an independent Monte Carlo outage estimate of the final
    vectors as evidence, and the cancellation check."""
    sets, r_u = embb.sets, embb.r_u
    fu = list(sets.f_u)
    p_e_on_fu = embb.p_e[fu]
    evidence_seed = int(rngmod.derive_seed_sequence(seed, "evidence").generate_state(1)[0])
    p_u_hat = estimate_outage(p_u_on_fu, p_e_on_fu, gamma_u, r_u, evidence_trials, evidence_seed)
    # under OMA nothing is superposed, so the broadband receiver has nothing to cancel
    sic_ok = sets.scheme is Scheme.OMA or mutual_info_u(
        p_u_on_fu, p_e_on_fu, embb.gamma_e[fu]) >= r_u * (1.0 - _SIC_REL_TOL)

    return AllocationResult(embb=embb, p_u=_as_full(p_u_on_fu, fu, sets.grid.F), p_u_hat=p_u_hat,
                            sic_satisfied=sic_ok, algorithm=algorithm, iterations=iterations)


def allocate(embb: EmbbStage, gamma_u: float, algorithm: str, epsilon_u: float, seed: int,
             table: OutageTable, bcd: BcdOptions = BcdOptions(),
             evidence_trials: int = 10**6) -> AllocationResult:
    """URLLC power by the chosen algorithm on top of a broadband stage, for
    the URLLC mean gain ``gamma_u`` [per mW], then an independent Monte
    Carlo outage estimate of the final vectors as evidence: the
    :func:`urllc_stage` and then the :func:`evidence_stage`."""
    p_u_on_fu, iterations = urllc_stage(embb, gamma_u, algorithm, epsilon_u, seed, table, bcd)
    return evidence_stage(embb, gamma_u, algorithm, p_u_on_fu, iterations, seed, evidence_trials)
