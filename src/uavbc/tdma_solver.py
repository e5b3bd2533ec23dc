"""Achievable rate region under TDMA scheduling.

One user is served at a time with full power: user 1 on [0, t1], user 2 on
(t1, T].  Along a unidirectional left-to-right trajectory the optimal switch
time t1 is the unique root of a monotone rate-ratio balance.
`CumulativeRates` serves the cumulative full-power rates of one trajectory
or of a whole batch in closed form, from the antiderivative of the
full-power rate that the SC tables integrate with
(`hfh_solver._full_power_antiderivative`), and `solve_t1` returns the exact
root of each: closed form while hovering, a safeguarded Newton iteration on
the closed-form integral while flying.  The trajectory family itself is
small: the UAV either flies the whole time, or hovers only above a user
(never at interior points).  That leaves the one-parameter families of
`_families` (pure flight, hover above user 1 then fly, fly then hover above
user 2, hover above both; with V = 0, or a reach V*T the positions do not
resolve, the fixed hovers), each searched on a grid.  The grid is built
once, as columns (`_candidate_trajectories`), `_evaluate` scores every
candidate exactly in one batch, and the first maximum picks the basin (the
pure flight can have several local maxima at high SNR); only the winner
becomes an `HfhTrajectory`.  It is then placed by the first-order
conditions, each point scored by the same `_evaluate`: hovering above both
users in closed form (the switch at x = 0, `_hover_both`), every other
family by a root of its residual `foc` within a grid step (`_foc_root`).
The reported rates are the search's own: `CumulativeRates.pair_at` at the
winner's switch time.  `core.tdma_rates` integrates the same rates
independently, by Gauss-Legendre quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    LOG2,
    REL_EPS,
    HfhTrajectory,
    RatePair,
    RateProfile,
    RegionBoundary,
    SystemParams,
    channel_gain,
    gain_pair,
    hfh_position,
    make_hfh,
    trace,
    validate_least,
    validate_params,
)
from .hfh_solver import _full_power_antiderivative, _hover_both_time
# golden_max, leg_rate_integral and tdma_rates are unread here; the benchmark
# tracer wraps them (ROADMAP items 2 and 7).
from .core import leg_rate_integral, tdma_rates  # noqa: F401
from .numerics import FOC_XTOL, golden_max, illinois_root  # noqa: F401

# Newton steps of `solve_t1` over a flight, and the step (relative to D)
# after which the next would change nothing: convergence is quadratic.
_NEWTON_ITERS = 60
_NEWTON_XTOL = 5e-11


@dataclass(frozen=True)
class TdmaSearchConfig:
    """Grid sizes of the trajectory search: x_grid values of the free
    location of each location family, ti_grid hover times of the
    hover-both family.  Raises InvalidParams for x_grid < 2 or
    ti_grid < 1."""

    x_grid: int = 129
    ti_grid: int = 17

    def __post_init__(self):
        validate_least(self, x_grid=2, ti_grid=1)


DEFAULT_TDMA_CONFIG = TdmaSearchConfig()


@dataclass
class TdmaSolution:
    """TDMA boundary point: trajectory, switch time and achieved rates."""

    profile: RateProfile
    rate_pair: RatePair
    trajectory: HfhTrajectory
    t1: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def r(self) -> float:
        return self.profile.rate_scale(self.rate_pair.r1, self.rate_pair.r2)


class CumulativeRates:
    """Cumulative full-power single-user rate integrals along trajectories.

    R_k(t) = integral over [0, t] of log2(1 + Pbar h_k(x(s))) ds.  Hover
    segments are linear in t.  A flight leg's rate-time is the position
    integral of the rate over V, in closed form: the difference of
    `hfh_solver._full_power_antiderivative` between x_I and the position.

    `traj` is one `HfhTrajectory` or the columns of a batch (the
    `_Candidates` of `_candidate_trajectories`), one lane per candidate:
    `x_I`, `x_F`, `fly_start`, `fly_end` and `flight` hold an array of one
    value per lane, or a numpy scalar for one trajectory, and `rate_I`,
    `rate_F`, `phi_I` (the antiderivative at x_I) and `total` one such per
    user.  `total` is (R_1(T), R_2(T)).  Every lane is computed alike, so a
    trajectory's numbers do not depend on the batch it is in.
    """

    def __init__(self, params: SystemParams, traj):
        self.params = params
        self.one = isinstance(traj, HfhTrajectory)
        lane = np.float64 if self.one else np.asarray
        self.x_I, self.x_F = lane(traj.x_I), lane(traj.x_F)
        self.fly_start = lane(traj.t_I)
        self.fly_end = params.T - lane(traj.t_F)
        self.rate_I = _full_rates(params, self.x_I)
        self.rate_F = _full_rates(params, self.x_F)
        self.flight = (self.fly_end - self.fly_start > 1e-12 * params.T) & (params.V > 0.0)
        self.phi_I = _full_power_antiderivative(params, self.x_I)
        self.total = self._cum_pair(params.T)

    def _cum_pair(self, t):
        """(R_1(t), R_2(t)) in rate-seconds; t is a float or one per lane."""
        V = self.params.V
        hover_I = np.minimum(t, self.fly_start)
        hover_F = np.maximum(t - self.fly_end, 0.0)
        r = [i * hover_I + f * hover_F for i, f in zip(self.rate_I, self.rate_F)]
        flying = self.flight & (t > self.fly_start)
        if flying.any():
            x = _where(t >= self.fly_end, self.x_F, self.x_I + (t - self.fly_start) * V)
            r = [_where(flying, rk + f / V, rk) for rk, f in zip(r, self.flown(x))]
        return r

    def flown(self, x):
        """Flight integrals (user 1, user 2) from x_I to x in [x_I, x_F], one
        per lane, in bps/Hz times meters."""
        phi = _full_power_antiderivative(self.params, x)
        return [(p - p_I) / LOG2 for p, p_I in zip(phi, self.phi_I)]

    def lanes(self, values):
        """`values`, one per lane, as the object was built: a float for one
        trajectory, the array for a sequence."""
        return float(values) if self.one else values

    def pair_at(self, t1) -> RatePair:
        """(r1, r2) with user 1 served before t1 (a float, or one per lane)
        and user 2 after."""
        T = self.params.T
        r1, r2 = self._cum_pair(t1)
        return RatePair(self.lanes(r1 / T), self.lanes((self.total[1] - r2) / T))


def _where(cond, a, b):
    """`np.where` over lanes.  One lane keeps its numpy scalars: `np.where`
    would make them 0-d arrays, at an array's cost per operation."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def solve_t1(
    params: SystemParams,
    traj,
    profile: RateProfile,
    cum: CumulativeRates | None = None,
):
    """Unique switch time where r1(t1)/alpha1 = r2(t1)/alpha2: a float for
    one trajectory, an array for the columns of a batch (the lanes of
    `CumulativeRates`).

    The gap a2*R1(t) - a1*(R2(T) - R2(t)) is nondecreasing in t: gap(0) >= 0
    gives 0 and gap(T) <= 0 gives T.  Inside a hover segment the gap is
    linear and the root closed form.  Otherwise the root lies in the flight,
    where the weighted flight integral a2*F1 + a1*F2 from x_I reaches its
    target: Newton's method runs on the closed-form integral over
    [x_I, x_F], safeguarded by bisection, in all such lanes at once.  A
    lane stops moving once its step is within _NEWTON_XTOL*D, so it ends
    where it would alone.
    """
    if cum is None:
        cum = CumulativeRates(params, traj)
    T, V, a1, a2 = params.T, params.V, profile.alpha1, profile.alpha2
    if profile.is_corner:  # one user takes all the time
        return cum.lanes(np.full_like(cum.x_I, T if a2 == 0.0 else 0.0))
    R1, R2 = cum.total
    hover_I = a2 * cum.rate_I[0] + a1 * cum.rate_I[1]  # the gap's slope at x_I
    hover_F = a2 * cum.rate_F[0] + a1 * cum.rate_F[1]
    # The first case that holds in a lane wins, so they are laid over each
    # other last first; a lane in no case (NaN) has its root in the flight.
    # Values not taken (a case that does not hold, a Newton step at slope 0)
    # may divide by zero.
    with np.errstate(divide="ignore", invalid="ignore"):
        # Without a flight, both hover tests failed only by rounding.
        t1 = _where(cum.flight, np.nan, cum.fly_start)
        t1 = _where(hover_F * (T - cum.fly_end) >= a2 * R1, T - a2 * R1 / hover_F, t1)
        t1 = _where(hover_I * cum.fly_start >= a1 * R2, a1 * R2 / hover_I, t1)
        t1 = _where(a2 * R1 <= 0.0, T, t1)  # gap(T) = a2*R1(T)
        t1 = _where(a1 * R2 <= 0.0, 0.0, t1)  # gap(0) = -a1*R2(T)
        flying = np.isnan(t1)
        if not flying.any():
            return cum.lanes(t1)

        # The gap is zero where the weighted flight integral from x_I reaches
        # `target`; it rises at a2*C1 + a1*C2 > 0, so Newton's method runs on
        # it from the linear guess, kept inside [x_I, x_F] by bisection.
        # Lanes with a root already ride along, frozen.
        target = (a1 * R2 - hover_I * cum.fly_start) * V
        lo, hi = cum.x_I, cum.x_F
        f1, f2 = cum.flown(hi)
        span = a2 * f1 + a1 * f2
        x = lo + (hi - lo) * _where(span > 0.0, np.minimum(np.maximum(target / span, 0.0), 1.0), 0.0)
        xtol = _NEWTON_XTOL * params.D
        moving = flying
        for _ in range(_NEWTON_ITERS):
            f1, f2 = cum.flown(x)
            excess = a2 * f1 + a1 * f2 - target
            moving = moving & (excess != 0.0)
            lo = _where(moving & (excess < 0.0), x, lo)
            hi = _where(moving & (excess > 0.0), x, hi)
            r1, r2 = _full_rates(params, x)
            slope = a2 * r1 + a1 * r2
            mid = 0.5 * (lo + hi)
            x_new = _where(slope > 0.0, x - excess / slope, mid)
            x_new = _where((lo <= x_new) & (x_new <= hi), x_new, mid)  # keep within the bracket
            step = np.abs(x_new - x)
            x = _where(moving, x_new, x)
            moving = moving & (step > xtol)
            if not moving.any():
                break
    return cum.lanes(_where(flying, cum.fly_start + (x - cum.x_I) / V, t1))


class _Family(NamedTuple):
    """The trajectories build(s) for s in [lo, hi], scored on n grid
    values.  `ends(s)` gives a member's (x_I, x_F, t_I), for a float s or
    an array of them, and build(s) is `make_hfh` of it.  `case` names the
    family in the diagnostics: 1 pure flight (or, with V = 0 or a reach the
    positions do not resolve, a fixed hover), 2 hover above user 1 then fly,
    3 fly then hover above user 2, 4 hover above both.
    `foc(params, profile, traj, t1)` has the sign of dr/ds at a member (None
    for case 4, placed in closed form); its root is sought over s +- step
    to xtol."""

    case: int
    lo: float
    hi: float
    n: int
    step: float
    xtol: float
    ends: Callable
    build: Callable[[float], HfhTrajectory]
    foc: Callable | None


def _full_rates(params, x):
    """(C1(x), C2(x)): the users' full-power rates with the UAV at x (a
    float or an array)."""
    return tuple(np.log1p(params.Pbar * h) / LOG2 for h in gain_pair(params, x))


def _flight_foc(params, profile, traj, t1):
    """f / (C1(x_s) C2(x_F)) with f = C1(x_s) C2(x_F) - C1(x_I) C2(x_s), x_s
    the position at t1: the sign of dr/ds in families 1-3.  Moving the
    free location moves the whole flight, which trades C1(x_s) - C1(x_I)
    of user 1's rate-time against C2(x_F) - C2(x_s) of user 2's, and the
    balance at t1 weighs them by C2(x_s) and C1(x_s).  Formed from rate
    ratios, which do not underflow; 0 where a rate does (r is 0)."""
    c1_s, c2_s = _full_rates(params, hfh_position(traj, params, t1))
    c2_F = _full_rates(params, traj.x_F)[1]
    if c1_s == 0.0 or c2_F == 0.0:
        return 0.0
    return float(1.0 - _full_rates(params, traj.x_I)[0] / c1_s * (c2_s / c2_F))


def _hover_foc(params, profile, traj, t1):
    """The sign of dr/dx for a fixed hover at x, where
    r = C1 C2 / (alpha1 C2 + alpha2 C1): that of
    alpha1 C2^2 C1' + alpha2 C1^2 C2', or, over C1^2 C2, of
    alpha1 (C2 / C1) L1 + alpha2 L2 with L_k = C_k' / C_k (no product of
    rates, which can underflow), over the sum of the two terms' magnitudes.
    0 where a gain underflows (r is 0)."""
    x = traj.x_I
    L = []
    for user in (1, 2):
        u = params.Pbar * channel_gain(params, x, user)
        if u == 0.0:
            return 0.0
        dx = x - params.user_position(user)
        L.append(-2.0 * dx / (dx * dx + params.H * params.H) * u / ((1.0 + u) * math.log1p(u)))
    c1, c2 = _full_rates(params, x)
    terms = profile.alpha1 * c2 / c1 * L[0], profile.alpha2 * L[1]
    total = abs(terms[0]) + abs(terms[1])
    return float((terms[0] + terms[1]) / total) if total > 0.0 else 0.0


def _families(params: SystemParams, cfg: TdmaSearchConfig) -> list:
    """The hover-only-above-users HFH families admissible at (V, T).

    Pure flight needs VT <= D and hovering above both users VT >= D; the
    free parameter is the one location or hover time not fixed by the
    family and the time budget.  Each family's root search spans its own
    grid step.

    A reach V*T below the position spacing at the users over REL_EPS (V = 0,
    or under ~5.7e-5 m at D = 1 km) is not resolved by the positions:
    x + V*T can round so far that the flight overruns T beyond `make_hfh`'s
    tolerance, and switch times inside it are quantized to the spacing
    over V.  It leaves the fixed hovers, the flights' limit, which close
    their time budget exactly; every other flight closes it to REL_EPS / 2.
    """
    half = 0.5 * params.D
    V, T, D = params.V, params.T, params.D
    n, xtol = cfg.x_grid, FOC_XTOL * D
    reach = V * T

    def family(case, lo, hi, n, step, xtol, ends, foc):
        return _Family(case, lo, hi, n, step, xtol, ends, lambda s: make_hfh(params, *ends(s)), foc)

    if np.spacing(half) > REL_EPS * reach:
        return [family(1, -half, half, n, D / (n - 1), xtol, lambda x: (x, x, T), _hover_foc)]
    out = []
    if reach <= D:
        out.append(family(1, -half, half - reach, n, (D - reach) / (n - 1), xtol,
                          lambda x: (x, x + reach, 0.0), _flight_foc))
    hi = min(half, -half + reach)
    out.append(family(2, -half, hi, n, (hi + half) / (n - 1), xtol,
                      lambda x: (-half, x, T - (x + half) / V), _flight_foc))
    lo = max(-half, half - reach)
    out.append(family(3, lo, half, n, (half - lo) / (n - 1), xtol,
                      lambda x: (x, half, 0.0), _flight_foc))
    if reach >= D:
        slack = T - D / V
        out.append(family(4, 0.0, slack, cfg.ti_grid, slack / max(cfg.ti_grid - 1, 1),
                          FOC_XTOL * T, lambda t: (-half, half, t), None))
    return out


@dataclass(frozen=True, eq=False)
class _Candidates:
    """TDMA's grid as columns, one lane per candidate: lane i is member s[i]
    of families[family[i]], the trajectory (x_I, x_F, t_I, t_F)[i]."""

    families: list
    family: np.ndarray
    s: np.ndarray
    x_I: np.ndarray
    x_F: np.ndarray
    t_I: np.ndarray
    t_F: np.ndarray

    def __len__(self):
        return len(self.s)

    def member(self, i: int):
        """(family, s) of lane i; `family.build(s)` is its trajectory."""
        return self.families[self.family[i]], float(self.s[i])


def _candidate_trajectories(params: SystemParams, cfg: TdmaSearchConfig) -> _Candidates:
    """Every grid candidate of `_families`, as columns.

    Each family's `ends` runs on its whole grid at once, and the time budget
    closes with `make_hfh`'s own arithmetic (flight, t_F = T - t_I - flight,
    both hover times clamped at 0), so every lane equals `fam.build(s)` to
    the bit; `make_hfh`'s range checks are skipped, as the families hold
    only admissible members.
    """
    families = _families(params, cfg)
    grids = [np.linspace(fam.lo, fam.hi, fam.n) for fam in families]
    x_I, x_F, t_I = (np.concatenate(col) for col in zip(
        *(np.broadcast_arrays(*fam.ends(s)) for fam, s in zip(families, grids))))
    flight = 0.0 if params.V == 0.0 else (x_F - x_I) / params.V
    t_F = params.T - t_I - flight
    return _Candidates(
        families,
        np.repeat(np.arange(len(families)), [fam.n for fam in families]),
        np.concatenate(grids),
        x_I,
        x_F,
        np.where(t_I < 0.0, 0.0, t_I),  # max(t, 0.0), as `make_hfh` clamps
        np.where(t_F < 0.0, 0.0, t_F),
    )


def _evaluate(params, traj, profile):
    """(search value, t1, rate pair) on the cumulative-rate curves of one
    trajectory, as floats, or of each lane of the columns of
    `_candidate_trajectories`, as arrays (non-corner profile).  A
    trajectory scores the same alone as in a batch, to the bit."""
    cum = CumulativeRates(params, traj)
    t1 = solve_t1(params, traj, profile, cum=cum)
    pair = cum.pair_at(t1)
    return cum.lanes(np.minimum(pair.r1 / profile.alpha1, pair.r2 / profile.alpha2)), t1, pair


class _Point(NamedTuple):
    """A member s of a family, scored by `_evaluate`, and its residual."""

    r: float
    s: float
    traj: HfhTrajectory
    t1: float
    pair: RatePair
    foc: float


def _hover_both(params, profile, fam, start: _Point) -> _Point:
    """Family 4's best member, in closed form (residual 0), or the grid
    winner `start` (its foc 0) if rounding makes it better.

    Moving t_I trades C1(-D/2) against C2(D/2), which are equal, and moving
    the switch trades C1(x_s) against C2(x_s), so an interior optimum
    switches at x = 0.  With S = T - D/V, c = C1(-D/2) and the flight
    integrals F1 of C1 over [-D/2, 0] and F2 of C2 over [0, D/2], the
    balance there is alpha2 (c t_I + F1/V) = alpha1 (F2/V + c (S - t_I)),
    the root of `hfh_solver._hover_both_time`, which SC's hover-both pick
    shares.  r rises in t_I while the switch lies right of x = 0 and falls
    while it lies left, so the clamped root is the family's maximum.
    """
    half = 0.5 * params.D
    phi1, phi2 = _full_power_antiderivative(params, np.array([-half, 0.0, half]))
    F1, F2 = float(phi1[1] - phi1[0]) / LOG2, float(phi2[2] - phi2[1]) / LOG2
    t_I = _hover_both_time(profile, float(_full_rates(params, -half)[0]), F1, F2, params.V, fam.hi)
    t_I = 0.0 if t_I is None else min(max(t_I, 0.0), fam.hi)  # None: r is 0
    traj = fam.build(t_I)
    r, t1, pair = _evaluate(params, traj, profile)
    best = _Point(r, t_I, traj, t1, pair, 0.0)
    return best if best.r >= start.r else start


def _foc_root(params, profile, fam, start: _Point) -> _Point:
    """The best member of `fam` near the grid winner `start`, from the root
    of `fam.foc`.

    The root is sought on the side of start.s that foc points to, out to one
    grid step (within [lo, hi]), by `numerics.illinois_root` to `fam.xtol`,
    one `_evaluate` a step.  The best point evaluated is kept, start
    included, so r never falls below the grid winner's; without a + to -
    sign change on the bracket, the better end wins.  The returned point's
    foc is |foc|, or 0 at a family end foc points out of.
    """

    def point(s):
        traj = fam.build(s)
        r, t1, pair = _evaluate(params, traj, profile)
        return _Point(r, s, traj, t1, pair, fam.foc(params, profile, traj, t1))

    s = start.s
    outer = min(fam.hi, s + fam.step) if start.foc > 0.0 else max(fam.lo, s - fam.step)
    best = illinois_root(point, start, outer, fam.xtol)
    points_out = (best.s == fam.lo and best.foc < 0.0) or (best.s == fam.hi and best.foc > 0.0)
    return best._replace(foc=0.0 if points_out else abs(best.foc))


def _mirror_tdma(params, sol: TdmaSolution) -> TdmaSolution:
    diag = dict(sol.diagnostics)
    diag["mirrored"] = True
    return TdmaSolution(
        sol.profile.mirrored(),
        sol.rate_pair.swapped(),
        sol.trajectory.mirrored(),
        params.T - sol.t1,
        diag,
    )


def _corner_tdma(params, profile) -> TdmaSolution:
    user = 2 if profile.alpha1 == 0.0 else 1
    x = params.user_position(user)
    traj = make_hfh(params, x, x, params.T)
    peak = params.peak_rate
    pair = RatePair(0.0, peak) if user == 2 else RatePair(peak, 0.0)
    t1 = 0.0 if user == 2 else params.T
    return TdmaSolution(profile, pair, traj, t1, {"corner": True})


def tdma_solve_profile(
    params: SystemParams,
    profile: RateProfile,
    cfg: TdmaSearchConfig = DEFAULT_TDMA_CONFIG,
) -> TdmaSolution:
    """Best TDMA rate pair for one profile over the admissible HFH family.

    Scores the columns of every grid candidate of the families with one
    `_evaluate` (the first maximum wins, its numbers read from its lane,
    which scores as it would alone), builds only the winner's trajectory,
    places its family optimum by its first-order conditions and reports the
    rates it searched on, `CumulativeRates.pair_at` at the resulting
    trajectory and switch time.  The diagnostics hold the family
    (`case`), the value searched (`search_r`, equal to r) and `foc_residual`,
    the relative first-order residual at the winner (0 hovering above both
    users, placed in closed form, and at a family end the residual points
    out of).  Raises InvalidParams for out-of-range params.
    """
    validate_params(params)
    if profile.is_corner:
        return _corner_tdma(params, profile)
    if profile.alpha1 > profile.alpha2:
        return _mirror_tdma(
            params, tdma_solve_profile(params, profile.mirrored(), cfg)
        )

    cands = _candidate_trajectories(params, cfg)
    r, t1, pair = _evaluate(params, cands, profile)
    i = int(np.argmax(r))  # the first maximum
    fam, s = cands.member(i)
    traj = fam.build(s)
    r, t1, pair = float(r[i]), float(t1[i]), RatePair(float(pair.r1[i]), float(pair.r2[i]))
    start = _Point(r, s, traj, t1, pair, 0.0 if fam.foc is None else fam.foc(params, profile, traj, t1))
    win = (_hover_both if fam.foc is None else _foc_root)(params, profile, fam, start)
    diagnostics = {"case": fam.case, "search_r": win.r, "foc_residual": win.foc}
    return TdmaSolution(profile, win.pair, win.traj, win.t1, diagnostics)


def tdma_trace_region(
    params: SystemParams,
    n_profiles: int = 33,
    cfg: TdmaSearchConfig = DEFAULT_TDMA_CONFIG,
) -> RegionBoundary:
    """TDMA region boundary at uniformly spaced profiles (mirror-folded)."""
    validate_params(params)
    return trace(
        "tdma",
        n_profiles,
        lambda profile: tdma_solve_profile(params, profile, cfg),
        lambda sol: _mirror_tdma(params, sol),
    )
