"""Independent oracles used by the unit and acceptance suites.

The water-filling oracle never looks at the solver's KKT structure: it
enumerates power grids for all but the last channel and solves the last
one analytically from the residual rate, so any feasible vector cheaper
than the closed form would be found.

The one-shot outage oracle draws all fading gains as one array and sums
each draw's rates in one call, with no blocks and no sure-outage shortcut.

The frozen-draw outage oracle keeps no cache at all: every try or commit
recomputes the whole rate column at both powers.  ``every_total`` reads a
``CommonRandomOutage`` session's current total of every draw, live or not,
for comparison with the oracle's.

The reference broadband stage (``ref_waterfill``, ``ref_embb_power``,
``ref_sic_power``, ``ref_select_urllc_frequencies``) and the reference
stream derivation (``ref_derive_seed_sequence``) are frozen copies of the
straightforward numpy versions that the per-call rewrite in ``src/`` must
match bit for bit.
"""

import hashlib
import math
import weakref

import numpy as np

from slicepower import OutageEstimate, RateInfeasibleError, Scheme
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


def rate_nats(gamma, p_u, p_e):
    """Per-draw, per-resource rate ``ln(1 + g Pu / (1 + g Pe))``."""
    num = gamma * p_u
    den = 1.0 + gamma * p_e
    return np.log1p(num / den)


def one_shot_totals(p_u, p_e, gamma_u_mean, trials, seed):
    """Oracle: each draw's summed rate, from one ``(trials, F_u)`` draw of
    the ``"outage"`` stream."""
    p_u, p_e = np.asarray(p_u, float), np.asarray(p_e, float)
    gamma = gamma_u_mean * substream(seed, "outage").standard_exponential((trials, p_u.size))
    return rate_nats(gamma, p_u, p_e).sum(axis=1)


def one_shot_outage(p_u, p_e, gamma_u_mean, r_u, trials, seed):
    """Oracle: ``estimate_outage`` without blocks or the sure-outage shortcut."""
    total = one_shot_totals(p_u, p_e, gamma_u_mean, trials, seed)
    outages = int((total <= np.size(p_u) * r_u * math.log(2.0)).sum())
    return OutageEstimate.from_counts(outages, trials)


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

    def _estimate(self, total):
        return OutageEstimate.from_counts(int((total <= self.target_nats).sum()), self.draws)

    def estimate(self, p_u, p_e):
        p_u = np.broadcast_to(np.asarray(p_u, float), (self.f_count,))
        p_e = np.broadcast_to(np.asarray(p_e, float), (self.f_count,))
        return self._estimate(rate_nats(self.gamma, p_u, p_e).sum(axis=1))

    def attach(self, p_u, p_e):
        self._p_u = np.array(np.broadcast_to(np.asarray(p_u, float), (self.f_count,)))
        self._p_e = np.array(np.broadcast_to(np.asarray(p_e, float), (self.f_count,)))
        self._total = rate_nats(self.gamma, self._p_u, self._p_e).sum(axis=1)
        return self._estimate(self._total)

    def _delta(self, f, value):
        g, p_e_f = self.gamma[:, f], self._p_e[f]
        return rate_nats(g, value, p_e_f) - rate_nats(g, self._p_u[f], p_e_f)

    def try_coordinate(self, f, value):
        return self._estimate(self._total + self._delta(f, value))

    def commit(self, f, value):
        self._total += self._delta(f, value)
        self._p_u[f] = value


#: per session, the commit log a replay of the draws outside its live set
#: ran to, its length then, and the replayed totals (NaN for draws then live)
_REPLAYED = weakref.WeakKeyDictionary()


def every_total(crn):
    """Every draw's current total in a ``CommonRandomOutage`` session, in
    draw order, leaving the session as it is: the live draws' totals, and
    the others brought up to date as entering the live set would.

    The replay is redone after each commit or attach only: a try changes
    no total, and the live set only grows until the next attach."""
    live = np.zeros(crn.draws, dtype=bool)
    live[crn._idx] = True
    assert np.count_nonzero(live) == len(crn._idx), "a draw is live twice"
    out = np.full(crn.draws, np.nan)
    if crn._t0 is not None:
        log, commits, replayed = _REPLAYED.get(crn, (None, None, None))
        if log is not crn._log or commits != len(crn._log):
            rest = np.flatnonzero(~live)
            totals = crn._t0[rest]
            crn._replay(rest, totals, np.empty((crn.f_count, len(rest))))
            replayed = np.full(crn.draws, np.nan)
            replayed[rest] = totals
            _REPLAYED[crn] = (crn._log, len(crn._log), replayed)
        out[:] = replayed
    out[crn._idx] = crn._total
    return out


def ref_waterfill(gains, rate_target):
    """Reference ``waterfill``."""
    g = np.asarray(gains, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("gains must be a non-empty vector")
    if np.any(g <= 0.0) or not np.all(np.isfinite(g)):
        raise ValueError("waterfill needs strictly positive finite gains")
    if rate_target <= 0.0:
        raise ValueError(f"rate target must be positive, got {rate_target}")
    inv = 1.0 / g
    order = np.argsort(inv, kind="stable")
    inv_sorted = inv[order]
    ks = np.arange(1, g.size + 1, dtype=float)
    log2_mu = (rate_target + np.cumsum(np.log2(inv_sorted))) / ks
    active = log2_mu > np.log2(inv_sorted)
    k = int(np.nonzero(active)[0].max()) + 1
    powers = np.zeros_like(g)
    powers[order[:k]] = 2.0 ** log2_mu[k - 1] - inv_sorted[:k]
    np.clip(powers, 0.0, None, out=powers)
    return powers


def ref_embb_power(gamma_e, r_e):
    """Reference ``embb_power``: water-filling over the positive gains."""
    gamma_e = np.asarray(gamma_e, dtype=float)
    if gamma_e.size == 0:
        raise ValueError("no channels offered")
    usable = gamma_e > 0.0
    if not usable.any():
        raise RateInfeasibleError("every offered channel has zero gain")
    powers = np.zeros_like(gamma_e)
    powers[usable] = ref_waterfill(gamma_e[usable], r_e * gamma_e.size)
    return powers


def ref_sic_power(p_e, gamma_e, r_u, scheme):
    """Reference ``sic_power``: water-filling over the effective gains."""
    p_e = np.asarray(p_e, dtype=float)
    gamma_e = np.asarray(gamma_e, dtype=float)
    if p_e.shape != gamma_e.shape:
        raise ValueError("power and gain vectors must align")
    if Scheme(scheme) is Scheme.OMA:
        return np.zeros_like(p_e)
    effective = np.zeros_like(gamma_e)
    usable = gamma_e > 0.0
    if not usable.any():
        raise RateInfeasibleError("every shared channel has zero gain")
    effective[usable] = gamma_e[usable] / (1.0 + gamma_e[usable] * p_e[usable])
    powers = np.zeros_like(p_e)
    powers[usable] = ref_waterfill(effective[usable], r_u * p_e.size)
    return powers


def ref_select_urllc_frequencies(gamma_e, f_u_count):
    """Reference ``select_urllc_frequencies``."""
    gamma_e = np.asarray(gamma_e, dtype=float)
    if gamma_e.ndim != 1:
        raise ValueError("gamma_e must be a vector")
    if np.any(gamma_e < 0.0):
        raise ValueError("SNRs must be non-negative")
    if not 0 <= f_u_count <= gamma_e.size:
        raise ValueError(f"need 0 <= F_u <= {gamma_e.size}, got {f_u_count}")
    order = np.argsort(gamma_e, kind="stable")
    return tuple(sorted(int(i) for i in order[:f_u_count]))


def _ref_label_to_int(label):
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError(f"stream labels must be non-negative, got {label}")
        return int(label)
    if isinstance(label, float):
        return int.from_bytes(np.float64(label).tobytes(), "little")
    if isinstance(label, str):
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"unsupported stream label type: {type(label)!r}")


def ref_derive_seed_sequence(base_seed, *labels):
    """Reference ``derive_seed_sequence``."""
    entropy = (int(base_seed),) + tuple(_ref_label_to_int(x) for x in labels)
    return np.random.SeedSequence(entropy)
