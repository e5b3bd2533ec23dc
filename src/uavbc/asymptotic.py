"""Closed-form asymptotic regions and the static-hover placement solver.

Three regimes admit (near) closed forms:
  * unbounded flight time: the region collapses to the triangle
    r1 + r2 <= log2(1 + Pbar beta0 / H^2), reached by hovering above each
    user in turn (orthogonal scheduling suffices);
  * vanishing speed: the UAV parks at one location per rate profile, on the
    half nearer the user with the larger rate target, with superposition
    coding;
  * high SNR: the region tends to r1 + r2 <= log2(Pbar beta0 / H^2) and the
    optimal trajectory degenerates to hovering above the favored user.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import (
    HfhTrajectory,
    RatePair,
    RateProfile,
    RegionBoundary,
    RegionPoint,
    SystemParams,
    channel_gain,
    uniform_profiles,
    validate_params,
)
from .errors import InfeasibleFlight, ValidityError
from .hfh_solver import solve_profile
import math

# Validity gate for the high-SNR closed form, expressed on the worst-case
# SNR Pbar*beta0/(D^2+H^2): below HARD_FLOOR the formula is refused, below
# WARN_LEVEL a warning is attached to the result metadata.  The levels gate
# on that one SNR and promise no accuracy at every profile: at 33 dBm in the
# reference scenario no warning is attached, yet the equal-rate sum is 6.9%
# below the closed form.  No accuracy target for the warning is documented,
# so the level is left where it is.
HIGH_SNR_HARD_FLOOR = 10.0
HIGH_SNR_WARN_LEVEL = 100.0


@dataclass(frozen=True)
class HoverSolution:
    """Static-hover boundary point: location, power split and rates."""

    x_star: float
    p1: float
    p2: float
    rate_pair: RatePair
    profile: RateProfile

    @property
    def r(self) -> float:
        """Common rate scale min_k r_k / alpha_k."""
        return self.profile.rate_scale(self.rate_pair.r1, self.rate_pair.r2)


def region_tinf(params: SystemParams, n_profiles: int = 33) -> RegionBoundary:
    """Capacity region for unbounded flight duration.

    Every boundary point splits the peak rate log2(1 + Pbar beta0 / H^2)
    proportionally to the profile; independent of V and D.
    """
    peak = params.peak_rate
    points = [
        RegionPoint(prof, RatePair(prof.alpha1 * peak, prof.alpha2 * peak))
        for prof in uniform_profiles(n_profiles)
    ]
    return RegionBoundary("tinf", points, {"sum_rate": peak})


def hfh_tdma_achievable(params: SystemParams, profile: RateProfile) -> RatePair:
    """Hover-above-each-user TDMA rates with the flight-time loss factor.

    The UAV spends D/V seconds crossing between the users and splits the
    remaining hover time proportionally to the profile, so each user gets
    alpha_k (1 - D/(VT)) of the peak rate.  A lower bound on the optimal
    finite-(V, T) solution; requires VT >= D.
    """
    if params.V <= 0.0 or params.V * params.T < params.D:
        raise InfeasibleFlight(
            f"VT={params.V * params.T} < D={params.D}: cannot visit both users"
        )
    factor = 1.0 - params.D / (params.V * params.T)
    peak = params.peak_rate
    return RatePair(profile.alpha1 * factor * peak, profile.alpha2 * factor * peak)


def solve_v0(params: SystemParams, profile: RateProfile) -> HoverSolution:
    """Optimal static hover for the given rate profile (V -> 0 regime).

    `hfh_solver.solve_profile` at V = 0, viewed as a hover: its static-hover
    search on the default hover grid places the UAV (on [0, D/2] for
    alpha2 >= alpha1, mirrored otherwise, above the served user at the
    corners), and the winning `fixed_boundary` point (the monotone bisection
    of the profile-constrained fixed-location problem) gives the power
    split.  Raises InvalidParams for out-of-range params, V included.
    """
    validate_params(params)
    sol = solve_profile(replace(params, V=0.0), profile)
    return HoverSolution(sol.trajectory.x_I, float(sol.schedule.p1[0]),
                         float(sol.schedule.p2[0]), sol.rate_pair, profile)


def region_high_snr(params: SystemParams, n_profiles: int = 33) -> RegionBoundary:
    """High-SNR capacity region r1 + r2 <= log2(Pbar beta0 / H^2).

    Valid when the worst-case SNR Pbar beta0/(D^2 + H^2) is large; the
    trajectory degenerates to a static hover above the user with the larger
    rate target, making the region independent of V and T.

    The closed form is an asymptote, not a bound reached at finite power.
    Every profile's achievable sum is at most ``peak_rate``,
    log2(1 + Pbar beta0 / H^2); a profile that serves both users approaches
    it only as p_s h_w -> inf, where p_s is the strong user's power and h_w
    the weak user's gain.  The equal-rate profile converges most slowly: in the reference scenario
    (H = 100 m, D = 1000 m, beta0 = 1e8) its sum is 10.1%, 5.3%, 2.7% and
    0.7% below the closed form at 30, 35, 40 and 50 dBm.
    """
    # user 1's SNR with the UAV above user 2
    worst_snr = params.Pbar * channel_gain(params, params.user_position(2), 1)
    if worst_snr < HIGH_SNR_HARD_FLOOR:
        raise ValidityError(
            f"worst-case SNR {worst_snr:.3g} below validity floor "
            f"{HIGH_SNR_HARD_FLOOR}; high-SNR region not meaningful"
        )
    warning = None
    if worst_snr < HIGH_SNR_WARN_LEVEL:
        warning = (
            f"worst-case SNR {worst_snr:.3g} below {HIGH_SNR_WARN_LEVEL}; "
            "high-SNR approximation is marginal"
        )
    total = math.log(params.Pbar * params.peak_gain) / math.log(2.0)
    half = 0.5 * params.D
    points = []
    for prof in uniform_profiles(n_profiles):
        hover_x = half if prof.alpha2 >= prof.alpha1 else -half
        traj = HfhTrajectory(hover_x, hover_x, params.T, 0.0)
        points.append(
            RegionPoint(
                prof,
                RatePair(prof.alpha1 * total, prof.alpha2 * total),
                trajectory=traj,
                extra={"static_hover": hover_x},
            )
        )
    metadata = {"sum_rate": total, "validity_ratio": worst_snr}
    if warning:
        metadata["validity_warning"] = warning
    return RegionBoundary("high-snr", points, metadata)
