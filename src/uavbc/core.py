"""Scenario parameters, channel/rate primitives and hover-fly-hover trajectories.

Units are strictly linear throughout the library: powers in watts, channel
gains normalized by the noise power (1/watt), positions in meters, times in
seconds, rates in bps/Hz.  dB/dBm conversions happen only at the CLI boundary.

Geometry convention: user 1 sits at x = -D/2, user 2 at x = +D/2, the UAV
flies at altitude H along the segment between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    InvalidParams,
    InvalidTrajectory,
    PowerBudgetExceeded,
    TimeOutOfRange,
    ZeroSpeedLeg,
)
from .numerics import adaptive_simpson

LOG2 = math.log(2.0)

# Relative slack used when checking power budgets and time windows, so that
# quantities assembled through long float computations do not trip guards.
REL_EPS = 1e-9


def log2_1p(x):
    """log2(1 + x), accurate for small x."""
    return math.log1p(x) / LOG2


@dataclass(frozen=True)
class SystemParams:
    """Physical scenario of the two-user link.

    gamma0: reference channel power gain at 1 m (linear, dimensionless)
    sigma2: receiver noise power (watts), equal for both users
    H:      UAV altitude (m)
    D:      inter-user distance (m)
    Pbar:   maximum instantaneous transmit power (watts)
    V:      maximum UAV speed (m/s), may be zero
    T:      flight duration (s)
    """

    gamma0: float
    sigma2: float
    H: float
    D: float
    Pbar: float
    V: float
    T: float

    @property
    def beta0(self) -> float:
        """Noise-normalized reference gain gamma0 / sigma2 (1/watt)."""
        return self.gamma0 / self.sigma2

    def user_position(self, user: int) -> float:
        if user == 1:
            return -0.5 * self.D
        if user == 2:
            return 0.5 * self.D
        raise ValueError(f"user must be 1 or 2, got {user}")

    @property
    def peak_gain(self) -> float:
        """Largest achievable normalized gain beta0 / H^2 (UAV above a user)."""
        return channel_gain(self, self.user_position(1), 1)

    @property
    def peak_rate(self) -> float:
        """Single-user rate with full power right above the user (bps/Hz)."""
        return log2_1p(self.Pbar * self.peak_gain)


def validate_params(params: SystemParams) -> SystemParams:
    """Check positivity of all physical quantities, return the params.

    Raises InvalidParams naming the offending field.  V may be zero; all
    other quantities must be strictly positive and finite.  The gains and
    the closed-form flight integrals must be representable: beta0 =
    gamma0 / sigma2 finite (else "gamma0"), D^2 finite (else "D"), H^2
    neither 0 nor infinite, the far user's gain beta0 / (H^2 + D^2) above 0
    and the squared peak gain (beta0 / H^2)^2 finite (else "H"), and the
    peak SNR Pbar beta0 / H^2 and H^2 + D^2 + Pbar beta0 finite (else
    "Pbar").
    """
    strict = ("gamma0", "sigma2", "H", "D", "Pbar", "T")
    for name in strict:
        value = getattr(params, name)
        if not math.isfinite(value) or value <= 0.0:
            raise InvalidParams(name)
    if not math.isfinite(params.V) or params.V < 0.0:
        raise InvalidParams("V")
    beta0 = params.beta0
    if not math.isfinite(beta0):
        raise InvalidParams("gamma0", f"gamma0 / sigma2 = {beta0!r}: the reference gain overflows")
    H2, D2 = params.H * params.H, params.D * params.D
    if D2 == math.inf:
        raise InvalidParams("D", f"D = {params.D!r} m: D^2 overflows")
    if (H2 == 0.0 or H2 == math.inf or beta0 / (H2 + D2) == 0.0
            or not math.isfinite((beta0 / H2) * (beta0 / H2))):
        raise InvalidParams("H", f"H = {params.H!r} m: the channel gains do not fit in a double")
    Pb = params.Pbar * beta0
    if not math.isfinite(Pb / H2 + H2 + D2 + Pb):
        raise InvalidParams("Pbar", f"Pbar = {params.Pbar!r} W: the received powers do not fit in a double")
    return params


def validate_least(cfg, **least):
    """Raise InvalidParams naming the first field of config cfg below its least value."""
    for name, low in least.items():
        if not getattr(cfg, name) >= low:
            raise InvalidParams(name, f"{type(cfg).__name__}.{name} must be at least {low}")


def channel_gain(params: SystemParams, x, user: int):
    """Noise-normalized channel power gain of ``user`` with the UAV at x.

    beta0 / ((x - x_k)^2 + H^2) with x_1 = -D/2, x_2 = +D/2; x may be a
    float or a numpy array.  The library's only copy of the gain formula.
    """
    dx = x - params.user_position(user)
    return params.beta0 / (dx * dx + params.H * params.H)


def gain_pair(params: SystemParams, x):
    """(h1, h2) at position(s) x."""
    return channel_gain(params, x, 1), channel_gain(params, x, 2)


@dataclass(frozen=True)
class RatePair:
    """Average rates of the two users in bps/Hz."""

    r1: float
    r2: float

    def swapped(self) -> "RatePair":
        return RatePair(self.r2, self.r1)

    @property
    def total(self) -> float:
        return self.r1 + self.r2

    def dominates(self, other: "RatePair", slack: float = 0.0) -> bool:
        """Componentwise >= with additive slack."""
        return self.r1 >= other.r1 - slack and self.r2 >= other.r2 - slack


@dataclass(frozen=True)
class RateProfile:
    """Rate-ratio weights (alpha1, alpha2), finite, nonnegative and summing
    to one, else InvalidParams (a ValueError) naming the weight (alpha2 for
    the sum)."""

    alpha1: float
    alpha2: float

    def __post_init__(self):
        for name in ("alpha1", "alpha2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParams(name, f"profile weight {name} must be finite, got {value}")
            if value < 0.0:
                raise InvalidParams(name, f"profile weight {name} must be nonnegative")
        if abs(self.alpha1 + self.alpha2 - 1.0) > 1e-9:
            raise InvalidParams("alpha2", "profile weights must sum to 1")

    @classmethod
    def of(cls, alpha1: float) -> "RateProfile":
        return cls(alpha1, 1.0 - alpha1)

    def mirrored(self) -> "RateProfile":
        return RateProfile(self.alpha2, self.alpha1)

    @property
    def is_corner(self) -> bool:
        return self.alpha1 == 0.0 or self.alpha2 == 0.0

    def rate_scale(self, r1: float, r2: float) -> float:
        """Common rate scale min_k r_k / alpha_k over the weighted users."""
        if self.alpha1 == 0.0:
            return r2 / self.alpha2
        if self.alpha2 == 0.0:
            return r1 / self.alpha1
        return min(r1 / self.alpha1, r2 / self.alpha2)


def uniform_profiles(n: int) -> list:
    """The n profiles alpha1 = i / (n - 1), i = 0 .. n - 1, corners included.

    Raises InvalidParams (a ValueError) for n < 2.
    """
    if n < 2:
        raise InvalidParams("n_profiles", f"need at least 2 profiles, got {n}")
    return [RateProfile.of(i / (n - 1)) for i in range(n)]


def sc_rate_pair(params: SystemParams, x: float, p1: float, p2: float) -> RatePair:
    """Instantaneous superposition-coding rate pair at a fixed position.

    The user with the larger gain decodes and cancels the other user's
    signal (ties at x = 0 resolve to user 2 strong, which does not affect
    the sum): strong rate log2(1 + p_s h_s), weak rate
    log2(1 + p_w h_w / (p_s h_w + 1)).  Raises PowerBudgetExceeded for
    powers outside the budget or not finite, and for a non-finite x.
    """
    if not (p1 >= 0.0 and p2 >= 0.0 and p1 + p2 <= params.Pbar * (1.0 + REL_EPS)):
        raise PowerBudgetExceeded(
            f"p1={p1!r}, p2={p2!r} outside budget Pbar={params.Pbar!r}"
        )
    if not math.isfinite(x):
        raise PowerBudgetExceeded(f"position x={x!r} is not finite")
    h1, h2 = gain_pair(params, x)
    if h2 >= h1:  # user 2 strong
        r2 = log2_1p(p2 * h2)
        r1 = log2_1p(p1 * h1 / (p2 * h1 + 1.0))
    else:
        r1 = log2_1p(p1 * h1)
        r2 = log2_1p(p2 * h2 / (p1 * h2 + 1.0))
    return RatePair(r1, r2)


@dataclass(frozen=True)
class HfhTrajectory:
    """Hover-fly-hover path: hover at x_I for t_I, fly at max speed to x_F,
    hover there for t_F.  Built through make_hfh so the time budget closes."""

    x_I: float
    x_F: float
    t_I: float
    t_F: float

    @property
    def span(self) -> float:
        return self.x_F - self.x_I

    def mirrored(self) -> "HfhTrajectory":
        """Reflection x -> -x with time reversed, so it still flies left to right."""
        return HfhTrajectory(-self.x_F, -self.x_I, self.t_F, self.t_I)


def make_hfh(params: SystemParams, x_I: float, x_F: float, t_I: float) -> HfhTrajectory:
    """Construct a valid HFH trajectory, deriving t_F from the time budget.

    For V = 0 only x_I == x_F is representable.  Raises InvalidTrajectory
    (a ValueError) on infeasible geometry or timing, a non-finite t_I
    included.
    """
    half = 0.5 * params.D
    if not (-half - REL_EPS * params.D <= x_I <= x_F <= half + REL_EPS * params.D):
        raise InvalidTrajectory(
            f"hover locations ({x_I}, {x_F}) outside [-D/2, D/2] or unordered"
        )
    if params.V == 0.0:
        if x_I != x_F:
            raise InvalidTrajectory("V = 0 admits only a fixed hover (x_I == x_F)")
        flight = 0.0
    else:
        flight = (x_F - x_I) / params.V
    t_F = params.T - t_I - flight
    if not (t_I >= -REL_EPS * params.T and t_F >= -REL_EPS * params.T):
        raise InvalidTrajectory(
            f"hover times infeasible: t_I={t_I}, flight={flight}, T={params.T}"
        )
    return HfhTrajectory(x_I, x_F, max(t_I, 0.0), max(t_F, 0.0))


def hfh_position(traj: HfhTrajectory, params: SystemParams, t: float) -> float:
    """UAV position at time t along the HFH trajectory; raises
    TimeOutOfRange for t outside [0, T] or not finite."""
    T = params.T
    if not -REL_EPS * T <= t <= T * (1.0 + REL_EPS):
        raise TimeOutOfRange(f"t={t} outside [0, {T}]")
    t = min(max(t, 0.0), T)
    if t <= traj.t_I:
        return traj.x_I
    if t >= T - traj.t_F:
        return traj.x_F
    x = traj.x_I + (t - traj.t_I) * params.V
    return min(max(x, traj.x_I), traj.x_F)


def leg_rate_integral(
    params: SystemParams,
    user: int,
    x_a: float,
    x_b: float,
    p: float,
    tol: Optional[float] = None,
) -> float:
    """Rate-time integral of log2(1 + p h_user) over a max-speed flight leg.

    The leg runs from x_a to x_b (x_a <= x_b) at speed V, so with the
    substitution t = (x - x_a)/V the result is the x-integral divided by V.
    Computed with adaptive Simpson quadrature; ``tol`` is the absolute
    tolerance on the x-integral (default 1e-9 of its magnitude).
    """
    if x_b < x_a:
        raise ValueError("leg must satisfy x_a <= x_b")
    if x_a == x_b or p == 0.0:
        return 0.0
    if params.V == 0.0:
        raise ZeroSpeedLeg("cannot traverse a leg of nonzero length with V = 0")

    def integrand(x):
        return log2_1p(p * channel_gain(params, x, user))

    return adaptive_simpson(integrand, x_a, x_b, tol=tol) / params.V


@dataclass(frozen=True)
class RegionPoint:
    """One traced boundary point: the generating profile and what it achieved."""

    profile: RateProfile
    rate_pair: RatePair
    trajectory: Optional[HfhTrajectory] = None
    extra: dict = field(default_factory=dict)


@dataclass
class RegionBoundary:
    """Ordered Pareto-boundary sample of a rate region.

    ``points`` is ordered by increasing alpha1 and may hold RegionPoint or
    any solver solution exposing .profile and .rate_pair (duck-typed).
    """

    mode: str
    points: list
    metadata: dict = field(default_factory=dict)

    def rate_pairs(self):
        return [p.rate_pair for p in self.points]

    def __len__(self):
        return len(self.points)


def trace(mode: str, n: int, solve, mirror=None) -> RegionBoundary:
    """Region boundary at the n uniform profiles, ordered by alpha1.

    ``solve(profile)`` gives each point.  With ``mirror``, a profile with
    alpha1 > alpha2 is not solved: its point is ``mirror`` of the point of
    the reflected profile, index for index.
    """
    points = []
    for i, profile in enumerate(uniform_profiles(n)):
        if mirror is not None and 2 * i > n - 1:
            points.append(mirror(points[n - 1 - i]))
        else:
            points.append(solve(profile))
    return RegionBoundary(mode, points, {"n_profiles": n})
