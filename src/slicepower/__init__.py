"""Minimum-power spectrum slicing of a shared downlink grid between one
throughput user (eMBB) and one reliability/latency user (URLLC), under
orthogonal and non-orthogonal multiple access."""

from .alloc import Algorithm, AllocationResult, BcdOptions, EmbbStage, allocate, embb_stage
from .channel import Geometry, distance_from_mean_snr, mean_snr_from_distance
from .config import ScenarioConfig, load_config, scheme_f_u_count
from .errors import (
    LatencyInfeasibleError,
    RateInfeasibleError,
    SlicePowerError,
    TableExhaustedError,
    ZeroInterferenceError,
)
from .grid import (
    ResourceGrid,
    ResourceSets,
    Scheme,
    TrafficSpec,
    build_resource_sets,
    select_urllc_frequencies,
    spectral_efficiency,
)
from .outage import (
    CommonRandomOutage,
    OutageEstimate,
    estimate_outage,
    mutual_info_e,
    mutual_info_u,
    single_freq_power,
)
from .sweep import SweepRecord, run_sweep
from .table import (
    OutageTable,
    build_table,
    load_table,
    min_feasible_power,
    save_table,
)
from .waterfill import embb_power, il_power, mutual_info_il, sic_power, waterfill

__version__ = "0.1.0"
