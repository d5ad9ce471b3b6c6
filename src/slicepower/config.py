"""Scenario configuration with the default experimental setup baked in.

An empty config file (or none at all) reproduces the reference setup: a
12x7 grid of 180 kHz resources in a 1 ms slot, 8640 broadband bits and
2160/7 URLLC bits per slot at outage target 1e-5, a 500 m cell with
path-loss exponent 4 and -108 dBm receiver noise.  Config files are
plain ``key = value`` lines; ``#`` starts a comment and lists are
comma-separated.  A config checks itself on every construction, however
it is built, and warns once about any sample size too small for its
outage target.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, fields

from .alloc import Algorithm, BcdOptions
from .channel import Geometry, distance_from_mean_snr, mean_snr_from_distance
from .grid import ResourceGrid, Scheme, TrafficSpec, build_resource_sets
from .units import db_to_linear, dbm_to_watt

__all__ = ["ScenarioConfig", "scheme_f_u_count", "load_config", "dump_config"]

log = logging.getLogger(__name__)

_FLOAT_LISTS = {"d_u", "d_e", "gamma_u_db", "gamma_e_db"}
_SAMPLE_FIELDS = ("table_trials", "crn_draws", "evidence_trials")


@dataclass(frozen=True)
class ScenarioConfig:
    # resource grid
    f_count: int = 12
    m_count: int = 7
    slot_duration: float = 1e-3
    delta_f: float = 180e3
    # traffic
    n_e: float = 8640.0
    n_u: float = 2160.0 / 7.0
    epsilon_u: float = 1e-5
    m_u: int = 1
    m_u_max: int = 7
    w_u: int = 0
    # geometry and noise
    antenna_gain_db: float = Geometry.G_db
    carrier_hz: float = Geometry.f0
    d0: float = Geometry.d0
    path_loss_exponent: float = Geometry.alpha
    cell_radius: float = Geometry.cell_radius
    noise_dbm: float = -108.0
    # sweep definition
    schemes: tuple = ("noma", "oma-3", "oma-6", "oma-9")
    algorithms: tuple = Algorithm.ALL
    # sweep axes; mean-SNR values [dB] are converted to the equivalent
    # distances and merged with the distance lists
    d_u: tuple = ()
    d_e: tuple = (146.9,)
    gamma_u_db: tuple = ()
    gamma_e_db: tuple = ()
    drops: int = 2000
    seed: int = 1
    # Monte Carlo machinery
    table_dir: str = "tables"
    auto_build_tables: bool = False
    table_trials: int = 10**7
    crn_draws: int = BcdOptions.draws
    mu0_fraction: float = BcdOptions.mu0_fraction
    tau: float = BcdOptions.tau
    evidence_trials: int = 10**6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is int and not isinstance(value, numbers.Integral):
                raise ValueError(f"integer field {f.name!r} got {value!r}")
        for name in ("drops",) + _SAMPLE_FIELDS:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # the derived objects check F and M, epsilon_u, the path loss and the
        # descent's first step and stop; the resource sets place the URLLC window
        build_resource_sets(Scheme.NOMA, self.grid(), (), self.m_u, self.traffic())
        self.geometry()
        self.bcd_options()
        for name in (f.name for f in fields(self) if type(f.default) is float):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for label in self.schemes:
            scheme_f_u_count(label, self.f_count)
        for algo in self.algorithms:
            if algo not in Algorithm.ALL:
                raise ValueError(f"unknown algorithm {algo!r}; expected one of {Algorithm.ALL}")
        for distance in (d for axis in self.placements() for d in axis):
            if not self.d0 <= distance <= self.cell_radius:
                raise ValueError(f"{distance:g} m is outside the {self.cell_radius:g} m cell "
                                 f"(d0 = {self.d0:g} m)")
        _warn_small_samples(self)

    def grid(self) -> ResourceGrid:
        return ResourceGrid(F=self.f_count, M=self.m_count,
                            delta_f=self.delta_f, T=self.slot_duration)

    def traffic(self) -> TrafficSpec:
        return TrafficSpec(N_e=self.n_e, N_u=self.n_u, epsilon_u=self.epsilon_u,
                           M_u_max=self.m_u_max, W_u=self.w_u)

    def geometry(self) -> Geometry:
        return Geometry(G_db=self.antenna_gain_db, f0=self.carrier_hz, d0=self.d0,
                        alpha=self.path_loss_exponent, cell_radius=self.cell_radius)

    def mean_gain(self, distance_m: float) -> float:
        """Per-mW mean gain at ``distance_m``: the per-watt mean SNR / 1e3."""
        sigma2_w = dbm_to_watt(self.noise_dbm)
        return mean_snr_from_distance(distance_m, self.geometry(), sigma2_w) / 1e3

    def placements(self) -> tuple[list, list]:
        """The sweep's URLLC and broadband distance axes [m]: each distance
        list merged with the distances of its mean-SNR list, sorted."""
        geom, sigma2_w = self.geometry(), dbm_to_watt(self.noise_dbm)
        d_u, d_e = ({distance_from_mean_snr(db_to_linear(g), geom, sigma2_w) for g in snrs_db}
                    for snrs_db in (self.gamma_u_db, self.gamma_e_db))
        return sorted(set(self.d_u) | d_u), sorted(set(self.d_e) | d_e)

    def bcd_options(self) -> BcdOptions:
        return BcdOptions(mu0_fraction=self.mu0_fraction, tau=self.tau, draws=self.crn_draws)


def scheme_f_u_count(scheme_label: str, f_count: int) -> tuple[Scheme, int]:
    """Map a scheme label to (access scheme, URLLC frequency count).

    ``"noma"`` shares the whole band; ``"oma-3"`` reserves 3 orthogonal
    resources for the URLLC user, and so on.
    """
    label = scheme_label.strip().lower()
    if label == "noma":
        return Scheme.NOMA, f_count
    if label.startswith("oma-"):
        count = int(label.split("-", 1)[1])
        if not 1 <= count < f_count:
            raise ValueError(f"OMA reservation must be in 1..{f_count - 1}, got {count}")
        return Scheme.OMA, count
    raise ValueError(f"unknown scheme label {scheme_label!r} (use 'noma' or 'oma-<k>')")


def _parse_value(name: str, raw: str, kind):
    raw = raw.strip()
    if kind is tuple:
        if raw == "":
            return ()
        items = [x.strip() for x in raw.split(",") if x.strip()]
        if name in _FLOAT_LISTS:
            return tuple(float(x) for x in items)
        return tuple(items)
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"boolean field {name!r} got {raw!r}")
    if kind is int:
        value = float(raw)  # a non-integral value is left for the config to reject
        return int(value) if value.is_integer() else value
    if kind is float:
        return float(raw)
    return raw


def _warn_small_samples(cfg: ScenarioConfig) -> None:
    """Log one warning naming every sample size below ``10 / epsilon_u``.

    Below that, an estimate at the target expects fewer than ten outages.
    """
    minimum = math.ceil(10.0 / cfg.epsilon_u)
    short = [f"{name} = {getattr(cfg, name)}" for name in _SAMPLE_FIELDS
             if getattr(cfg, name) < minimum]
    if short:
        log.warning("%s below the minimum 10/epsilon_u = %d: estimates at "
                    "epsilon_u = %g expect fewer than ten outages",
                    ", ".join(short), minimum, cfg.epsilon_u)


def load_config(path=None, overrides: dict | None = None) -> ScenarioConfig:
    """Read a key=value file (missing keys keep their defaults); each
    override replaces its file value before the config checks itself."""
    values: dict = {}
    kinds = {f.name: type(f.default) for f in fields(ScenarioConfig)}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, raw = (part.strip() for part in line.split("=", 1))
                if key not in kinds:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = _parse_value(key, raw, kinds[key])
    return ScenarioConfig(**{**values, **(overrides or {})})


def dump_config(cfg: ScenarioConfig) -> str:
    """Render a config back to the key=value format (full round-trip)."""
    lines = []
    for f in fields(ScenarioConfig):
        value = getattr(cfg, f.name)
        if type(f.default) is tuple:
            rendered = ", ".join(str(x) for x in value)
        else:
            rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"
