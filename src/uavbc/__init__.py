"""Capacity-region solver for a UAV-enabled two-user broadcast channel.

The library jointly optimizes the UAV hover-fly-hover trajectory and the
superposition-coding (or TDMA) power/rate allocation to trace the Pareto
boundary of the achievable average-rate region, and ships closed-form
asymptotic regions plus brute-force oracles for certification.
"""

from .asymptotic import (
    HoverSolution,
    hfh_tdma_achievable,
    region_high_snr,
    region_tinf,
    solve_v0,
)
from .core import (
    HfhTrajectory,
    RatePair,
    RateProfile,
    RegionBoundary,
    RegionPoint,
    SystemParams,
    channel_gain,
    hfh_position,
    leg_rate_integral,
    make_hfh,
    sc_rate_pair,
    tdma_rates,
    validate_params,
)
from .errors import (
    DegenerateLocations,
    DiscretizationInvalid,
    GridTooCoarse,
    InfeasibleFlight,
    InvalidParams,
    InvalidTrajectory,
    NoSignChange,
    PowerBudgetExceeded,
    TimeOutOfRange,
    UavbcError,
    ValidityError,
    ZeroSpeedLeg,
)
from .fixed_region import (
    FixedBoundaryPoint,
    TangentLine,
    common_tangent,
    fixed_boundary,
    fixed_region_sample,
    intersection_point,
    triangle_contains,
)
from .hfh_solver import (
    BoundarySolution,
    DiscretizedTrajectory,
    PowerSchedule,
    SearchConfig,
    discretize,
    per_slot_weighted_split,
    solve_p5,
    solve_profile,
    trace_region,
)
from .oracle import (
    DpConfig,
    FeasibilityReport,
    check_feasibility,
    dp_trajectory_oracle,
    grid_power_oracle,
    numeric_intersection_oracle,
)
from .tdma_solver import (
    TdmaSearchConfig,
    TdmaSolution,
    solve_t1,
    tdma_solve_profile,
    tdma_trace_region,
)

__version__ = "0.1.0"
