"""Mutual-information evaluators and Monte Carlo outage estimation.

The URLLC receiver always sees the broadband signal as interference, so
its per-resource mutual information is ``log2(1 + g Pu / (1 + g Pe))``.
Outage is the event that the sum over the assigned resources falls at or
below ``F_u * r_u``.  Fading is quasi-static: mini-slots repeat the same
draw, so rates fold the window length and a single draw per frequency
suffices.  The cancellation verdict is decided in :func:`alloc.allocate`
and the interference-limited rate sits beside ``il_power`` in ``waterfill``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod

__all__ = [
    "OutageEstimate",
    "mutual_info_u",
    "mutual_info_e",
    "estimate_outage",
    "single_freq_power",
    "CommonRandomOutage",
]

_LN2 = math.log(2.0)
#: float64 values per draw-major block of fading gains (96 KiB, 1024 draws
#: of 12 resources): below glibc's 128 KiB mmap threshold, so the blocks of
#: each call come from the heap and map no fresh pages
_BLOCK = 3 << 12
#: draws per block of the resource-major pass over frozen draws; each block
#: makes about F_u + 5 numpy calls, and at F_u = 12 a 1024-draw block made
#: a 1e5-draw attach 1.7x slower than this width
_ROWS = 1 << 12
#: margin of the near set and of the live set's drift: a move's width grows
#: with its largest fall by this share and this many nats, far above the
#: rounding of any rate or total
_BAND = 1e-6
#: nats by which the live set of a coordinate session reaches past what the
#: try that widens it needs, so that later commits widen it rarely; on the
#: ``sweep-warm`` benchmark a descent then ends with a median 4.8% of the
#: draws live, against 8.1% (28% at most) at 1 nat
_SLACK = 0.25


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


def mutual_info_e(p_e, gamma_e) -> float:
    """Rate of the broadband stream after interference cancellation."""
    p_e = np.asarray(p_e, dtype=float)
    gamma_e = np.asarray(gamma_e, dtype=float)
    return float(np.log1p(gamma_e * p_e).sum() / (_LN2 * p_e.size))


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
    """Both power vectors as float arrays over ``f_count`` resources,
    checked to be non-negative (NaN fails); they may be read-only views."""
    p_u, p_e = (np.asarray(p, dtype=float) for p in (p_u, p_e))
    if p_u.shape != (f_count,) or p_e.shape != (f_count,):
        p_u, p_e = np.broadcast_to(p_u, (f_count,)), np.broadcast_to(p_e, (f_count,))
    if not (p_u.min() >= 0.0 and p_e.min() >= 0.0):
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


def _block_rows(f_count: int) -> int:
    """Draws per draw-major block of ``F_u`` columns."""
    return max(1, _BLOCK // f_count)


def _fading_blocks(seed: int, label: str, draws: int, f_count: int, gamma_u_mean: float):
    """``(rows, block)`` pairs of one ``(draws, F_u)`` exponential draw of mean
    ``gamma_u_mean`` from stream ``label``, in one reused C-ordered buffer.

    How the draw is cut into blocks does not change its values: the
    stream fills C order whatever the block."""
    gen, step = rngmod.substream(seed, label), _block_rows(f_count)
    buffer = np.empty((step, f_count))
    for start in range(0, draws, step):
        block = gen.standard_exponential(out=buffer[:draws - start])
        block *= gamma_u_mean
        yield slice(start, start + len(block)), block


def _row_totals(cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each draw's total rate ``sum_f cols[f]``, into ``out``, by whole-column adds.

    ``cols`` holds one row of rates per resource, so a draw-major block
    passes its transpose.  The adds follow numpy's pairwise summation of
    one draw, so the bits equal ``sum(axis=1)`` over the draw-major block
    (``tests/test_outage_properties.py`` checks this):

    - fewer than 8 values add in order;
    - up to 128, 8 running sums take every 8th value, add as
      ``((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7))``, and the last ``F mod 8``
      values follow in order;
    - a longer row adds its two halves, split at a multiple of 8.

    numpy's reduction starts at 0.0, which only turns a -0.0 total into +0.0.
    One call makes ``F - 1`` adds over ``len(out)`` draws where
    ``sum(axis=1)`` runs one short inner loop per draw.
    """
    f_count = len(cols)
    if f_count > 128:
        half = f_count // 2 - f_count // 2 % 8
        _row_totals(cols[:half], out)
        out += _row_totals(cols[half:], np.empty_like(out))
    elif f_count < 8:
        np.add(cols[0], cols[1] if f_count > 1 else 0.0, out=out)
        for col in cols[2:]:
            out += col
    else:
        tail = f_count - f_count % 8
        sums = list(cols[:8])
        for start in range(8, tail, 8):
            sums = [np.add(s, col) for s, col in zip(sums, cols[start:start + 8])]
        np.add(sums[0], sums[1], out=out)
        left, right = np.add(sums[2], sums[3]), np.add(sums[6], sums[7])
        out += left
        np.add(sums[4], sums[5], out=left)
        left += right
        out += left
        for col in cols[tail:]:
            out += col
    out += 0.0
    return out


def _outages(total_nats: np.ndarray, target_nats: float) -> int:
    """Number of draws whose accumulated rate is at or below the target."""
    return int(np.count_nonzero(total_nats <= target_nats))


def _sure_outage(p_u: np.ndarray, p_e: np.ndarray, target_nats: float) -> bool:
    """True when no fading draw can beat the target: any seed then estimates 1.

    On interfered resources the rate is strictly below ``log(1+Pu/Pe)``
    for every finite draw; resources with power but no interference have
    unbounded rate.
    """
    bound = 0.0
    for pu_f, pe_f in zip(p_u.tolist(), p_e.tolist()):
        if pu_f <= 0.0:
            continue
        if pe_f <= 0.0:
            return False
        bound += math.log1p(pu_f / pe_f)
    return bound <= target_nats


def _block_factor(p: np.ndarray, rows: int) -> np.ndarray:
    """A power vector as a factor of draw-major blocks of up to ``rows``
    draws: a ``(1, 1)`` scalar when uniform, else the vector tiled to a block."""
    return p[:1, None] if (p == p[0]).all() else np.tile(p, (rows, 1))


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
    derived from ``seed``.
    """
    f_count = np.size(p_u)
    target_nats = _target_nats(gamma_u_mean, trials, f_count, r_u)
    p_u, p_e = _power_vectors(p_u, p_e, f_count)
    rows = _block_rows(f_count)
    rate, total, outages = np.empty((rows, f_count)), np.empty(rows), 0
    p_u, p_e = _block_factor(p_u, rows), _block_factor(p_e, rows)
    for _, gamma in _fading_blocks(seed, "outage", trials, f_count, gamma_u_mean):
        n = len(gamma)
        block = _sinr_rate_nats(gamma, p_u[:n], p_e[:n], den=gamma, out=rate[:n])
        outages += _outages(_row_totals(block.T, total[:n]), target_nats)
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


def _fall_width(p: float, v: float, p_e: float) -> float:
    """Width in nats that covers any draw's fall when one power moves from
    ``p`` to ``v`` against interference ``p_e``.

    The rate is ``ln(1 + a p)`` with ``a = g/(1 + g p_e) < 1/p_e``, and
    the fall ``ln(1 + a p) - ln(1 + a v)`` grows with ``a``, so it stays
    below ``ln((p_e + p)/(p_e + v))``; a raise lowers no rate.  The width
    adds the band to that bound and is infinite when ``p_e + v`` is 0.
    """
    p, v, p_e = float(p), float(v), float(p_e)
    if not v < p:
        fall = 0.0
    elif p_e + v > 0.0:
        fall = math.log(p_e + p) - math.log(p_e + v)
    else:
        return math.inf
    width = fall * (1.0 + _BAND) + _BAND
    return width if width < math.inf else math.inf  # an infinite power gives inf - inf


class CommonRandomOutage:
    """Outage estimator over one frozen matrix of fading draws.

    Reusing the same draws across candidate power vectors makes
    comparisons deterministic and exactly monotone: lowering any single
    power coordinate can only grow the outage count.

    The draws are kept resource-major, one contiguous column per
    resource.  A try moving resource ``f`` from ``p`` to ``v`` counts
    ``fl(total + fl(col - rate_f)) <= target`` over the near set only:
    the draws whose current total is at most ``target + W``, with ``W``
    from :func:`_fall_width`, ``ln((P_e,f + p)/(P_e,f + v)) (1 + b) + b``
    and ``b = 1e-6``.  No draw's rate falls by more than that bound, up to
    rounding far below ``b`` nats, so no other draw can be in outage.

    :meth:`attach` keeps only each draw's total at the attach vector.
    Totals and rates are kept current for the live draws alone: every
    draw whose attach total is at most ``target + reach``.  Each commit
    adds its own width to a drift ``D``, so a draw outside the live set
    still has a total above ``target + reach - D``, and the live set
    holds every near set of width ``W <= reach - D``.  A try that needs
    more widens ``reach`` to ``D + W`` plus ``_SLACK`` nats; each draw
    that enters recomputes its rates at the attach vector and replays
    every commit since, with the same operations as a commit, so its
    total has the same bits.  A try to ``v = 0`` with ``P_e,f = 0`` has
    no bound and makes every draw live; so does a widening past half the
    draws.  The near set, with each tried resource's draws, denominators
    ``1 + g Pe`` and rates in it, is built from the live set on the first
    try after :meth:`attach` or :meth:`commit`, and rebuilt wider when a
    try needs a larger ``W``.  A try to ``v = 0`` counts ``fl(total -
    rate_f)`` over the live set.

    An attached estimator holds the draws (``draws x F_u`` float64), the
    attach totals, the attach and working vectors, ``F_u + 2`` values per
    live draw and four per near draw and tried resource; once every draw
    is live, the attach totals become the live totals.  Estimates are
    bit-identical to a full recompute.
    """

    def __init__(self, gamma_u_mean: float, f_count: int, r_u: float, draws: int, seed: int):
        self.target_nats = _target_nats(gamma_u_mean, draws, f_count, r_u)
        self._gamma = np.empty((f_count, draws))
        for rows, block in _fading_blocks(seed, "crn", draws, f_count, gamma_u_mean):
            self._gamma[:, rows] = block.T
        self.draws, self.f_count = draws, f_count
        self._log = None  # the commits since attach(), which sets the session up

    def __repr__(self) -> str:
        live = "not attached" if self._log is None else f"{len(self._idx)} live"
        return f"CommonRandomOutage({self.f_count} x {self.draws} draws, {live})"

    def _estimate(self, total_nats: np.ndarray) -> OutageEstimate:
        return OutageEstimate.from_counts(_outages(total_nats, self.target_nats), self.draws)

    def _totals(self, p_u: np.ndarray, p_e: np.ndarray) -> np.ndarray:
        """Per-draw totals at checked vectors, ``_ROWS`` draws at a time."""
        total = np.empty(self.draws)
        rate = np.empty((self.f_count, min(_ROWS, self.draws)))
        den = np.empty_like(rate)
        p_u, p_e = p_u[:, None], p_e[:, None]
        for start in range(0, self.draws, _ROWS):
            rows, n = slice(start, start + _ROWS), min(_ROWS, self.draws - start)
            b = _sinr_rate_nats(self._gamma[:, rows], p_u, p_e, den=den[:, :n], out=rate[:, :n])
            _row_totals(b, total[rows])
        return total

    def estimate(self, p_u, p_e) -> OutageEstimate:
        """Outage estimate at an arbitrary vector pair (full recompute)."""
        return self._estimate(self._totals(*_power_vectors(p_u, p_e, self.f_count)))

    # -- coordinate-update session -------------------------------------

    def attach(self, p_u, p_e) -> OutageEstimate:
        """Fix the working vectors and keep each draw's total; no draw is live yet."""
        self._p_u, self._p_e = map(np.array, _power_vectors(p_u, p_e, self.f_count))
        self._p0, self._t0 = self._p_u.copy(), self._totals(self._p_u, self._p_e)
        self._log, self._drift, self._reach = [], 0.0, -math.inf
        self._idx, self._total = np.empty(0, dtype=np.intp), np.empty(0)
        self._rate, self._near = np.empty((self.f_count, 0)), None
        return self._estimate(self._t0)

    def _replay(self, idx: np.ndarray, total: np.ndarray, rate: np.ndarray) -> None:
        """Bring draws ``idx``, whose attach totals ``total`` holds, to the
        working vector: ``rate`` gets their rates at the attach vector, then
        each logged commit updates both as :meth:`commit` does."""
        p_u, p_e = self._p0[:, None], self._p_e[:, None]
        for start in range(0, len(idx), _ROWS):
            cols = slice(start, start + _ROWS)
            g = self._gamma[:, idx[cols]]
            den, block, sums = np.empty_like(g), rate[:, cols], total[cols]
            _sinr_rate_nats(g, p_u, p_e, den=den, out=block)
            for f, value in self._log:
                col = np.multiply(g[f], value)
                col /= den[f]
                np.log1p(col, out=col)
                sums += np.subtract(col, block[f])
                block[f] = col

    def _sync(self, width: float) -> None:
        """Widen the live set, if need be, to every draw a near set ``width`` wide may hold."""
        need = self._drift + width
        if need <= self._reach:
            return
        reach, self._near = need + _SLACK, None
        enter = np.flatnonzero((self._t0 <= self.target_nats + reach)
                               & (self._t0 > self.target_nats + self._reach))
        if reach < math.inf and 2 * (len(self._idx) + len(enter)) <= self.draws:
            total, rate = self._t0[enter], np.empty((self.f_count, len(enter)))
            self._replay(enter, total, rate)
            self._idx = np.concatenate((self._idx, enter))
            self._total = np.concatenate((self._total, total))
            self._rate = np.concatenate((self._rate, rate), axis=1)
            self._reach = reach
            return
        # every draw, with the attach totals updated in place: no more memory
        # than one rate per draw and resource beside the draws
        self._rate = None
        idx, total, self._t0 = np.arange(self.draws), self._t0, None
        rate = np.empty((self.f_count, self.draws))
        self._replay(idx, total, rate)
        self._idx, self._total, self._rate, self._reach = idx, total, rate, math.inf

    def _near_columns(self, f: int, width: float):
        """Draws, denominators, rates and totals of ``f`` over a near set at least ``width`` wide."""
        self._sync(width)
        if self._near is None or self._near[0] < width:
            pos = np.flatnonzero(self._total <= self.target_nats + width)
            self._near = (width, pos, self._idx[pos], self._total[pos], {})
        _, pos, idx, total, gathered = self._near
        if f not in gathered:
            g = self._gamma[f][idx]
            den = np.multiply(g, self._p_e[f])
            den += 1.0
            gathered[f] = (g, den, self._rate[f][pos])
        return (*gathered[f], total)

    def _check(self, f: int, value: float) -> None:
        if self._log is None:
            raise RuntimeError("attach() a working vector first")
        if not 0 <= f < self.f_count:
            raise ValueError(f"resource {f} is outside 0..{self.f_count - 1}")
        if not value >= 0.0:
            raise ValueError("powers must be non-negative")

    def try_coordinate(self, f: int, value: float) -> OutageEstimate:
        """Estimate with coordinate ``f`` set to ``value`` (not committed)."""
        self._check(f, value)
        width = _fall_width(self._p_u[f], value, self._p_e[f])
        if value == 0.0:  # the rate at 0 is exactly 0
            self._sync(width)
            return self._estimate(np.subtract(self._total, self._rate[f]))
        g, den, rate, total = self._near_columns(f, width)
        col = np.multiply(g, value)
        col /= den
        np.log1p(col, out=col)
        col -= rate
        col += total
        return self._estimate(col)

    def commit(self, f: int, value: float) -> None:
        """Adopt the change on the live draws, log it and drop the near set."""
        self._check(f, value)
        g = self._gamma[f][self._idx]
        col = _sinr_rate_nats(g, value, self._p_e[f], den=g)
        self._total += np.subtract(col, self._rate[f], out=g)  # the change of each total
        self._rate[f] = col
        self._drift += _fall_width(self._p_u[f], value, self._p_e[f])
        self._log.append((f, value))
        self._p_u[f], self._near = value, None
