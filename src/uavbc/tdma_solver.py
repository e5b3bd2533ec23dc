"""Achievable rate region under TDMA scheduling.

One user is served at a time with full power: user 1 on [0, t1], user 2 on
(t1, T].  Along a unidirectional left-to-right trajectory the optimal switch
time t1 is the unique root of a monotone rate-ratio balance.
`CumulativeRates` serves a trajectory's cumulative full-power rates from the
cached pair tables of `hfh_solver`, whose mu = 1 and mu = 0 rows are exactly
the single-user rates and their position integrals, and `solve_t1` returns
the exact root: closed form while hovering, Newton's method within one table
cell while flying.  The trajectory family itself is small: the UAV either
flies the whole time, or hovers only above a user (never at interior
points).  That leaves the one-parameter families of `_families` (pure
flight, hover above user 1 then fly, fly then hover above user 2, hover
above both; with V = 0, or a reach V*T the positions do not resolve, the
fixed hovers), each searched on a grid.
`_screen` values the whole grid at once from its own cumulative-rate table
over position; only the candidates near its best are scored by the
per-trajectory `_evaluate`, in grid order, so the first exact maximum wins
as if all were scored.  The screen picks the basin (the pure flight can
have several local maxima at high SNR); the winner is then placed by the
first-order conditions: hovering above both users in closed form (the
switch at x = 0, `_hover_both`), every other family by a root of its
residual `foc` within a grid step (`_foc_root`).  The reported rates are
the search's own: `CumulativeRates.pair_at` at the winner's switch time.
`tdma_rates` integrates the same rates independently, by adaptive
quadrature.
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
    leg_rate_integral,
    log2_1p,
    make_hfh,
    trace,
    validate_least,
    validate_params,
)
from .errors import TimeOutOfRange
from .hfh_solver import _SQRT3, _SUBCELLS, _hover_both_time, pair_tables
# golden_max is unread here; the benchmark tracer wraps it (ROADMAP item 4).
from .numerics import golden_max  # noqa: F401

# `_screen`'s trapezoid nodes over [-D/2, D/2] and its t1 bisection tolerance
# (relative to T).
_CUM_SAMPLES = 8193
_T1_REL_TOL = 1e-9

# Newton steps of `solve_t1` in a flight cell, and the step (relative to the
# cell) after which the next would change nothing: convergence is quadratic.
_NEWTON_ITERS = 60
_NEWTON_XTOL = 1e-8

# `_flight_integrals`' nodes along an interval, as unit offsets: the 2-point
# Gauss nodes of _SUBCELLS equal sub-cells, then the right end; and their
# weights per unit width, nats to bits included (the right end's is 0).
_GAUSS_AT = np.append(
    ((np.arange(_SUBCELLS)[:, None] + 0.5 + np.array([-0.5, 0.5]) / _SQRT3) / _SUBCELLS).ravel(), 1.0
)
_GAUSS_WEIGHTS = np.append(np.full(2 * _SUBCELLS, 0.5 / (_SUBCELLS * LOG2)), 0.0)

# Grid candidates whose `_screen` value is within this (relative) of the
# best screen value are scored exactly by `_evaluate`.  The exact winner is
# among them while no screen value is further from its exact value than
# about half of this times the best exact value.
_SCREEN_WINDOW = 1e-5


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
    """Cumulative full-power single-user rate integrals along a trajectory.

    R_k(t) = integral over [0, t] of log2(1 + Pbar h_k(x(s))) ds.  Hover
    segments are linear in t.  A flight leg's rate-time is the position
    integral of the rate over V, read from the cached pair tables: their
    mu = 1 row (user 1) and mu = 0 row (user 2) hold exactly these full-power
    rates and their cumulative integrals at the table nodes.  The flight's
    breakpoints are x_I, the nodes strictly inside (x_I, x_F) and x_F, at
    most one table cell apart; the integral from x_I to a breakpoint is a
    difference of table entries plus the partial cell at x_I, and to any
    other position adds the partial cell from the breakpoint before it.
    Partial cells go through `_flight_integrals`, the tables' own rule.
    `total` is (R_1(T), R_2(T)).
    """

    def __init__(self, params: SystemParams, traj: HfhTrajectory):
        self.params = params
        self.x_I, self.x_F = traj.x_I, traj.x_F
        self.fly_start = traj.t_I
        self.fly_end = params.T - traj.t_F
        self.rate_I = _full_rates(params, traj.x_I)
        self.rate_F = _full_rates(params, traj.x_F)
        self.flight = self.fly_end - self.fly_start > 1e-12 * params.T and params.V > 0.0
        if self.flight:
            tables = pair_tables(params)
            x = tables.x
            a = int(np.searchsorted(x, traj.x_I, side="right"))
            b = int(np.searchsorted(x, traj.x_F))  # x[a:b] lie strictly inside (x_I, x_F)
            c = (tables.c1[-1], tables.c2[0])
            if b > a:
                # Both end cells in one call: [x_I, x[a]] and [x[b - 1], x_F].
                lo, hi = np.array([traj.x_I, x[b - 1]]), np.array([x[a], traj.x_F])
                ends = _flight_integrals(params, lo, hi)[0]
                first = tuple(ends[:, 0].tolist())
                last = [f + float(ck[b - 1] - ck[a]) + e for f, ck, e in zip(first, c, ends[:, 1].tolist())]
            else:
                first = tuple(_flight_integrals(params, traj.x_I, traj.x_F)[0].tolist())
                last = first
            self._x, self._c, self._a, self._b = x, c, a, b
            self._first, self._last = first, tuple(last)
        self.total = self._cum_pair(params.T)

    def _breakpoint(self, j: int):
        """Position of flight breakpoint j (0 is x_I, b - a + 1 is x_F) and the
        flight integrals (user 1, user 2) from x_I to it."""
        if j == 0:
            return self.x_I, (0.0, 0.0)
        if j > self._b - self._a:
            return self.x_F, self._last
        k, a = self._a + j - 1, self._a
        return float(self._x[k]), tuple(f + float(ck[k] - ck[a]) for f, ck in zip(self._first, self._c))

    def _cum_pair(self, t: float):
        """(R_1(t), R_2(t)) in rate-seconds."""
        hover_I = min(t, self.fly_start)
        hover_F = max(t - self.fly_end, 0.0)
        r = [i * hover_I + f * hover_F for i, f in zip(self.rate_I, self.rate_F)]
        if self.flight and t > self.fly_start:
            flown = self._last if t >= self.fly_end else self.flown(self.x_I + (t - self.fly_start) * self.params.V)
            r = [rk + f / self.params.V for rk, f in zip(r, flown)]
        return tuple(r)

    def flown(self, x: float):
        """Flight integrals (user 1, user 2) from x_I to x in [x_I, x_F], in
        bps/Hz times meters."""
        xa, at_xa = self._breakpoint(int(np.searchsorted(self._x, x, side="right")) - self._a)
        return tuple(f + p for f, p in zip(at_xa, _flight_integrals(self.params, xa, x)[0].tolist()))

    def cum(self, t: float, user: int) -> float:
        """R_user(t) in rate-seconds."""
        return self._cum_pair(t)[user - 1]

    def pair_at(self, t1: float) -> RatePair:
        """(r1, r2) with user 1 served before t1 and user 2 after."""
        T = self.params.T
        r1, r2 = self._cum_pair(t1)
        return RatePair(r1 / T, (self.total[1] - r2) / T)


def _flight_integrals(params, a, b):
    """Full-power rate integrals of users 1 and 2 over [a, b] (scalars or
    arrays, each interval within one pair-table cell), in bps/Hz times
    meters, and the rates at b: two arrays with a leading axis of 2.  The
    pair tables' rule: 2-point Gauss on _SUBCELLS equal sub-cells, so a sub-
    cell is at most D / ((_PAIR_NODES - 1) * _SUBCELLS) wide."""
    width = b - a
    x = np.multiply.outer(width, _GAUSS_AT)
    x += np.asarray(a)[..., None]
    f = np.array(gain_pair(params, x))
    f *= params.Pbar
    np.log1p(f, out=f)
    return width * (f @ _GAUSS_WEIGHTS), f[..., -1] / LOG2


def tdma_rates(params: SystemParams, traj: HfhTrajectory, t1: float) -> RatePair:
    """Average TDMA rates: r1 integrates over [0, t1], r2 over [t1, T].

    Hover portions use closed forms; flight portions the adaptive
    leg quadrature.
    """
    T = params.T
    if t1 < -1e-9 * T or t1 > T * (1.0 + 1e-9):
        raise TimeOutOfRange(f"t1={t1} outside [0, {T}]")
    t1 = min(max(t1, 0.0), T)
    fly_start, fly_end = traj.t_I, T - traj.t_F

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
            xa = traj.x_I + (lo - traj.t_I) * params.V
            xb = traj.x_I + (hi - traj.t_I) * params.V
            total += leg_rate_integral(params, user, xa, min(xb, traj.x_F), params.Pbar)
        hov = b - max(a, fly_end)
        if hov > 0.0:
            total += hov * log2_1p(params.Pbar * channel_gain(params, traj.x_F, user))
        return total

    return RatePair(window(1, 0.0, t1) / T, window(2, t1, T) / T)


def solve_t1(
    params: SystemParams,
    traj: HfhTrajectory,
    profile: RateProfile,
    cum: CumulativeRates | None = None,
) -> float:
    """Unique switch time where r1(t1)/alpha1 = r2(t1)/alpha2.

    The gap a2*R1(t) - a1*(R2(T) - R2(t)) is nondecreasing in t: gap(0) >= 0
    gives 0 and gap(T) <= 0 gives T.  Inside a hover segment the gap is
    linear and the root closed form.  Otherwise the root lies in the flight
    cell (between `CumulativeRates` breakpoints) where the weighted flight
    integral a2*F1 + a1*F2 reaches its target, found from the table nodes at
    once; inside it Newton's method runs on the exact partial integral,
    safeguarded by bisection to stay within the cell.
    """
    if profile.alpha1 == 0.0:
        return 0.0
    if profile.alpha2 == 0.0:
        return params.T
    if cum is None:
        cum = CumulativeRates(params, traj)
    a1, a2 = profile.alpha1, profile.alpha2
    R1, R2 = cum.total
    if a1 * R2 <= 0.0:  # gap(0) = -a1*R2(T)
        return 0.0
    if a2 * R1 <= 0.0:  # gap(T) = a2*R1(T)
        return params.T
    hover_I = a2 * cum.rate_I[0] + a1 * cum.rate_I[1]  # the gap's slope at x_I
    if hover_I * cum.fly_start >= a1 * R2:
        return a1 * R2 / hover_I
    hover_F = a2 * cum.rate_F[0] + a1 * cum.rate_F[1]
    if hover_F * (params.T - cum.fly_end) >= a2 * R1:
        return params.T - a2 * R1 / hover_F
    if not cum.flight:  # both hover tests failed only by rounding
        return cum.fly_start

    # The gap is zero where the weighted flight integral from x_I reaches
    # `target`; it does so between breakpoints j and j + 1.
    target = (a1 * R2 - hover_I * cum.fly_start) * params.V
    (c1, c2), a, b = cum._c, cum._a, cum._b
    j = 0
    if b > a:  # at node k the integral is the table's from x[a] plus the first cell's
        at_nodes = a2 * c1[a:b] + a1 * c2[a:b]
        first = a2 * cum._first[0] + a1 * cum._first[1]
        j = int(np.searchsorted(at_nodes, target - first + at_nodes[0], side="right"))
    xa, (f1, f2) = cum._breakpoint(j)
    xb, (g1, g2) = cum._breakpoint(j + 1)
    rest = target - (a2 * f1 + a1 * f2)  # a2*P1(xa, x) + a1*P2(xa, x) at the root
    cell = a2 * (g1 - f1) + a1 * (g2 - f2)
    lo, hi = xa, xb
    x = xa + (xb - xa) * (min(max(rest / cell, 0.0), 1.0) if cell > 0.0 else 0.0)
    for _ in range(_NEWTON_ITERS):
        (p1, p2), (r1, r2) = (v.tolist() for v in _flight_integrals(params, xa, x))
        excess = a2 * p1 + a1 * p2 - rest
        if excess == 0.0:
            break
        if excess < 0.0:
            lo = x
        else:
            hi = x
        x_new = x - excess / (a2 * r1 + a1 * r2)
        if not lo <= x_new <= hi:  # keep within the cell
            x_new = 0.5 * (lo + hi)
        done = abs(x_new - x) <= _NEWTON_XTOL * (xb - xa)
        x = x_new
        if done:
            break
    return cum.fly_start + (x - cum.x_I) / params.V


class _Family(NamedTuple):
    """The trajectories build(s) for s in [lo, hi], screened on n grid
    values.  `case` names the family in the diagnostics: 1 pure flight (or,
    with V = 0 or a reach the positions do not resolve, a fixed hover), 2
    hover above user 1 then fly, 3 fly then hover above user 2, 4 hover
    above both.  `foc(params, profile, traj, t1)` has the sign of dr/ds at a
    member (None for case 4, placed in closed form); its root is sought over
    s +- step to xtol."""

    case: int
    lo: float
    hi: float
    n: int
    step: float
    xtol: float
    build: Callable[[float], HfhTrajectory]
    foc: Callable | None


def _full_rates(params, x):
    """(C1(x), C2(x)): the users' full-power rates with the UAV at x."""
    return tuple(log2_1p(params.Pbar * h) for h in gain_pair(params, x))


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
    return 1.0 - _full_rates(params, traj.x_I)[0] / c1_s * (c2_s / c2_F)


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
    return (terms[0] + terms[1]) / total if total > 0.0 else 0.0


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
    n, xtol = cfg.x_grid, 1e-9 * D
    reach = V * T
    if np.spacing(half) > REL_EPS * reach:
        return [_Family(1, -half, half, n, D / (n - 1), xtol, lambda x: make_hfh(params, x, x, T), _hover_foc)]
    out = []
    if reach <= D:
        out.append(_Family(1, -half, half - reach, n, (D - reach) / (n - 1), xtol,
                           lambda x: make_hfh(params, x, x + reach, 0.0), _flight_foc))
    hi = min(half, -half + reach)
    out.append(_Family(2, -half, hi, n, (hi + half) / (n - 1), xtol,
                       lambda x: make_hfh(params, -half, x, T - (x + half) / V), _flight_foc))
    lo = max(-half, half - reach)
    out.append(_Family(3, lo, half, n, (half - lo) / (n - 1), xtol,
                       lambda x: make_hfh(params, x, half, 0.0), _flight_foc))
    if reach >= D:
        slack = T - D / V
        out.append(_Family(4, 0.0, slack, cfg.ti_grid, slack / max(cfg.ti_grid - 1, 1),
                           1e-9 * T, lambda t: make_hfh(params, -half, half, t), None))
    return out


def _candidate_trajectories(params: SystemParams, cfg: TdmaSearchConfig):
    """Every grid candidate of `_families`, as (family, parameter, trajectory)."""
    return [
        (fam, s, fam.build(s))
        for fam in _families(params, cfg)
        for s in np.linspace(fam.lo, fam.hi, fam.n).tolist()
    ]


def _evaluate(params, traj, profile):
    """(search value, t1, rate pair) of a trajectory on its cumulative-rate
    curves."""
    cum = CumulativeRates(params, traj)
    t1 = solve_t1(params, traj, profile, cum=cum)
    pair = cum.pair_at(t1)
    return profile.rate_scale(pair.r1, pair.r2), t1, pair


def _screen(params, trajs, profile):
    """`_evaluate`'s search values of all `trajs` at once (non-corner profile).

    A flight leg's rate-time is its position integral over V, so one
    trapezoid table of cumulative full-power rates over [-D/2, D/2] serves
    every trajectory; t1 is then bisected for all of them together.
    """
    T, V, Pbar, half = params.T, params.V, params.Pbar, 0.5 * params.D
    x_I = np.array([t.x_I for t in trajs])
    x_F = np.array([t.x_F for t in trajs])
    t_I = np.array([t.t_I for t in trajs])
    fly_end = T - np.array([t.t_F for t in trajs])
    rate_I = [np.log1p(Pbar * h) / LOG2 for h in gain_pair(params, x_I)]
    rate_F = [np.log1p(Pbar * h) / LOG2 for h in gain_pair(params, x_F)]
    if V > 0.0:
        xs = np.linspace(-half, half, _CUM_SAMPLES)
        f = [np.log1p(Pbar * h) for h in gain_pair(params, xs)]
        scale = (xs[1] - xs[0]) / (2.0 * LOG2 * V)
        table = [np.concatenate([[0.0], np.cumsum(fk[1:] + fk[:-1])]) * scale for fk in f]
        start = [np.interp(x_I, xs, tk) for tk in table]

    def cum(t, k):
        """R_k(t) in rate-seconds for every trajectory (k = 0, 1)."""
        total = rate_I[k] * np.minimum(t, t_I) + rate_F[k] * np.maximum(t - fly_end, 0.0)
        if V > 0.0:
            x = np.minimum(np.maximum(x_I + (t - t_I) * V, x_I), x_F)
            total += np.interp(x, xs, table[k]) - start[k]
        return total

    a1, a2 = profile.alpha1, profile.alpha2
    total2 = cum(T, 1)
    lo, hi = np.zeros(len(trajs)), np.full(len(trajs), T)
    while np.max(hi - lo) > _T1_REL_TOL * T:
        mid = 0.5 * (lo + hi)
        below = a2 * cum(mid, 0) <= a1 * (total2 - cum(mid, 1))
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    t1 = 0.5 * (lo + hi)
    return np.minimum(cum(t1, 0) / a1, (total2 - cum(t1, 1)) / a2) / T


class _Point(NamedTuple):
    """A member s of a family, scored by `_evaluate`, and its residual."""

    r: float
    s: float
    traj: HfhTrajectory
    t1: float
    pair: RatePair
    foc: float


def _hover_both(params, profile, fam, traj) -> _Point:
    """Family 4's best member, in closed form (residual 0).

    Moving t_I trades C1(-D/2) against C2(D/2), which are equal, and moving
    the switch trades C1(x_s) against C2(x_s), so an interior optimum
    switches at x = 0.  With S = T - D/V, c = C1(-D/2) and the flight
    integrals F1 of C1 over [-D/2, 0] and F2 of C2 over [0, D/2], the
    balance there is alpha2 (c t_I + F1/V) = alpha1 (F2/V + c (S - t_I)),
    the root of `hfh_solver._hover_both_time`, which SC's hover-both pick
    shares.  r rises in t_I while the switch lies right of x = 0 and falls
    while it lies left, so the clamped root is the family's maximum.
    """
    cum = CumulativeRates(params, traj)  # every member flies the same flight
    F1, at_zero = cum.flown(0.0)
    F2 = cum._last[1] - at_zero
    t_I = _hover_both_time(profile, cum.rate_I[0], F1, F2, params.V, fam.hi)
    t_I = 0.0 if t_I is None else min(max(t_I, 0.0), fam.hi)  # None: r is 0
    traj = fam.build(t_I)
    r, t1, pair = _evaluate(params, traj, profile)
    return _Point(r, t_I, traj, t1, pair, 0.0)


def _foc_root(params, profile, fam, start: _Point) -> _Point:
    """The best member of `fam` near the grid winner `start`, from the root
    of `fam.foc`.

    The root is sought on the side of start.s that foc points to, out to one
    grid step (within [lo, hi]), by Illinois regula falsi to `fam.xtol`, one
    `_evaluate` a step.  The best point evaluated is kept, start included,
    so r never falls below the grid winner's; without a + to - sign change
    on the bracket, the better end wins.  The returned point's foc is
    |foc|, or 0 at a family end foc points out of.
    """

    def point(s):
        traj = fam.build(s)
        r, t1, pair = _evaluate(params, traj, profile)
        return _Point(r, s, traj, t1, pair, fam.foc(params, profile, traj, t1))

    best, s, f = start, start.s, start.foc
    outer = min(fam.hi, s + fam.step) if f > 0.0 else max(fam.lo, s - fam.step)
    if f != 0.0 and outer != s:
        end = point(outer)
        if end.r > best.r:
            best = end
        if end.foc * f < 0.0:  # foc falls from + at sa to - at sb
            (sa, fa), (sb, fb) = sorted([(s, f), (outer, end.foc)])
            kept = 0  # +1 if sb, -1 if sa was kept by the last step
            while sb - sa > fam.xtol:
                v = sb - fb * (sb - sa) / (fb - fa)
                if not sa < v < sb:
                    v = 0.5 * (sa + sb)
                p = point(v)
                if p.r > best.r:
                    best = p
                if p.foc > 0.0:
                    sa, fa = v, p.foc
                    if kept > 0:
                        fb *= 0.5  # Illinois: halve the end kept twice
                    kept = 1
                elif p.foc < 0.0:
                    sb, fb = v, p.foc
                    if kept < 0:
                        fa *= 0.5
                    kept = -1
                else:
                    break
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

    Screens the families' grid with `_screen`, scores the candidates within
    `_SCREEN_WINDOW` of its best with `_evaluate` (the first exact maximum
    wins), places the winner's family optimum by its first-order conditions
    and reports the rates it searched on, `CumulativeRates.pair_at` at the
    resulting trajectory and switch time.  The diagnostics hold the family
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
    screen = _screen(params, [traj for _, _, traj in cands], profile)
    best = None
    for k in np.flatnonzero(screen >= screen.max() * (1.0 - _SCREEN_WINDOW)):
        fam, s, traj = cands[k]
        r, t1, pair = _evaluate(params, traj, profile)
        if best is None or r > best[0]:
            best = (r, fam, s, traj, t1, pair)
    r, fam, s, traj, t1, pair = best
    if fam.foc is None:
        win = _hover_both(params, profile, fam, traj)
    else:
        win = _foc_root(params, profile, fam, _Point(r, s, traj, t1, pair, fam.foc(params, profile, traj, t1)))
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
