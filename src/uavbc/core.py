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

import numpy as np

from .errors import (
    InvalidParams,
    InvalidTrajectory,
    PowerBudgetExceeded,
    TimeOutOfRange,
    ZeroSpeedLeg,
)

LOG2 = math.log(2.0)

# Relative slack used when checking power budgets and time windows, so that
# quantities assembled through long float computations do not trip guards.
REL_EPS = 1e-9

# The independent checks' quadrature rule (`leg_rate_integral`, `tdma_rates`
# and `oracle._inequality_integrals`): 8-point Gauss-Legendre on [-1, 1], the
# nodes' positive halves and their weights as `leggauss(8)` gives them
# (`numpy.polynomial` itself is not loaded, which saves ~1 MB).  A flight leg
# runs it on equal panels at most _LEG_PANEL * H long, at most
# _LEG_MAX_PANELS of them: the integrand's nearest singularities lie H off
# the flight, so the rule's error falls geometrically with the nodes per
# panel and does not grow with the leg's length.
_GL_HALF = np.array([0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GL_HALF_WEIGHTS = np.array([0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])
GL_NODES = np.concatenate([-_GL_HALF[::-1], _GL_HALF])
GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])
_LEG_PANEL = 0.5
_LEG_MAX_PANELS = 1 << 14


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


def sc_rates(hs, hw, ps, pw):
    """Superposition rates (strong, weak) in nats at strong/weak gains hs, hw
    and powers ps, pw: the strong user decodes and cancels the weak user's
    signal, log(1 + ps hs), while the weak one decodes under the strong
    one's, log(1 + pw hw / (ps hw + 1))."""
    return math.log1p(ps * hs), math.log1p(pw * hw / (ps * hw + 1.0))


def sc_weight(h1, h2, ps):
    """The weight mu at which a full-power split giving the strong user ps
    maximizes mu r1 + (1 - mu) r2: h2 (1 + ps h1) / (h2 (1 + ps h1) +
    h1 (1 + ps h2)), 1/2 at tied gains.  Pure arithmetic, so h1, h2 and ps
    may be floats or arrays."""
    top = h2 * (1.0 + ps * h1)
    return top / (top + h1 * (1.0 + ps * h2))


def sc_split(params: SystemParams, x: float, mu: float):
    """(strong2, hs, hw, ps, r1, r2): the full-power split at position x
    maximizing mu r1 + (1 - mu) r2, with its rates in nats; the library's
    only scalar copy (`hfh_solver._strong_power` is its array version).

    User 2 is strong where h2 >= h1.  The weighted rate's slope in the
    strong power p is proportional to mus hs / (1 + p hs) - muw hw / (1 + p hw)
    (mus, muw the strong and weak users' weights), whose signs at p = 0 and
    p = Pbar decide the clamping: nonpositive at 0 gives the weak user all
    power, nonnegative at Pbar the strong one; otherwise ps is its root
    (muw hw - mus hs) / (hs hw (mus - muw)).  At mu = 1/2 only rounding
    reaches the root, where both corners tie, so it takes Pbar.
    """
    Pbar, (h1, h2), nu = params.Pbar, gain_pair(params, x), 1.0 - mu
    strong2 = h2 >= h1
    hs, hw = (h2, h1) if strong2 else (h1, h2)
    a, b = (nu * hs, mu * hw) if strong2 else (mu * hs, nu * hw)
    if a - b <= 0.0:
        ps = 0.0
    elif a * (1.0 + Pbar * hw) - b * (1.0 + Pbar * hs) >= 0.0:
        ps = Pbar
    else:
        den = hs * hw * ((mu - nu) if strong2 else (nu - mu))
        ps = min(max((a - b) / den, 0.0), Pbar) if den else Pbar
    r_s, r_w = sc_rates(hs, hw, ps, Pbar - ps)
    return (strong2, hs, hw, ps) + ((r_w, r_s) if strong2 else (r_s, r_w))


def sc_rate_pair(params: SystemParams, x: float, p1: float, p2: float) -> RatePair:
    """Instantaneous superposition-coding rate pair (`sc_rates`) at a fixed
    position.

    The user with the larger gain is strong (ties at x = 0 resolve to user
    2 strong, which does not affect the sum).  Raises PowerBudgetExceeded
    for powers outside the budget or not finite, and for a non-finite x.
    """
    if not (p1 >= 0.0 and p2 >= 0.0 and p1 + p2 <= params.Pbar * (1.0 + REL_EPS)):
        raise PowerBudgetExceeded(
            f"p1={p1!r}, p2={p2!r} outside budget Pbar={params.Pbar!r}"
        )
    if not math.isfinite(x):
        raise PowerBudgetExceeded(f"position x={x!r} is not finite")
    h1, h2 = gain_pair(params, x)
    if h2 >= h1:  # user 2 strong
        r2, r1 = sc_rates(h2, h1, p2, p1)
    else:
        r1, r2 = sc_rates(h1, h2, p1, p2)
    return RatePair(r1 / LOG2, r2 / LOG2)


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


def leg_rate_integral(params: SystemParams, user: int, x_a: float, x_b: float, p: float) -> float:
    """Rate-time integral of log2(1 + p h_user) over a max-speed flight leg.

    The leg runs from x_a to x_b (x_a <= x_b) at speed V, so with the
    substitution t = (x - x_a)/V the result is the x-integral divided by V,
    by the 8-point Gauss-Legendre rule on equal panels (`GL_NODES`).
    """
    if x_b < x_a:
        raise ValueError("leg must satisfy x_a <= x_b")
    if x_a == x_b or p == 0.0:
        return 0.0
    if params.V == 0.0:
        raise ZeroSpeedLeg("cannot traverse a leg of nonzero length with V = 0")
    panels = min(max(math.ceil((x_b - x_a) / (_LEG_PANEL * params.H)), 1), _LEG_MAX_PANELS)
    edges = np.linspace(x_a, x_b, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    xs = (edges[:-1] + half)[:, None] + half * GL_NODES
    vals = np.log1p(p * channel_gain(params, xs, user))
    return half * float(np.sum(vals @ GL_WEIGHTS)) / (LOG2 * params.V)


def tdma_rates(params: SystemParams, traj: HfhTrajectory, t1: float) -> RatePair:
    """Average TDMA rates at full power: r1 integrates over [0, t1], r2 over
    [t1, T]; hovers in closed form, the flight by `leg_rate_integral`.
    Raises TimeOutOfRange for t1 outside [0, T]."""
    T = params.T
    if t1 < -REL_EPS * T or t1 > T * (1.0 + REL_EPS):
        raise TimeOutOfRange(f"t1={t1} outside [0, {T}]")
    t1 = min(max(t1, 0.0), T)
    fly_start, fly_end = traj.t_I, T - traj.t_F

    def leg_end(t):
        return min(max(traj.x_I + (t - fly_start) * params.V, traj.x_I), traj.x_F)

    def window(user, a, b):
        """Rate-time of `user` at full power over the time window [a, b]."""
        if b <= a:
            return 0.0
        total = 0.0
        hov = max(min(b, fly_start) - a, 0.0)
        if hov > 0.0:
            total += hov * log2_1p(params.Pbar * channel_gain(params, traj.x_I, user))
        lo, hi = max(a, fly_start), min(b, fly_end)
        if hi > lo and params.V > 0.0:
            total += leg_rate_integral(params, user, leg_end(lo), leg_end(hi), params.Pbar)
        hov = b - max(a, fly_end)
        if hov > 0.0:
            total += hov * log2_1p(params.Pbar * channel_gain(params, traj.x_F, user))
        return total

    return RatePair(window(1, 0.0, t1) / T, window(2, t1, T) / T)


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
