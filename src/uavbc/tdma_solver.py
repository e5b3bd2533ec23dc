"""Achievable rate region under TDMA scheduling.

One user is served at a time with full power: user 1 on [0, t1], user 2 on
(t1, T].  Along a unidirectional left-to-right trajectory the optimal switch
time t1 is the unique root of a monotone rate-ratio balance, found by
bisection.  The trajectory family itself is small: the UAV either flies the
whole time, or hovers only above a user (never at interior points).  That
leaves the one-parameter families of `_families` (pure flight, hover above
user 1 then fly, fly then hover above user 2, hover above both; with V = 0
the fixed hovers), each searched on a grid.  `_screen` values the whole
grid at once from one cumulative-rate table over position; only the
candidates near its best are scored by the per-trajectory `_evaluate`, in
grid order, so the first exact maximum wins as if all were scored.  The
winner's parameter is then refined by one golden-section search over a grid
step on either side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    LOG2,
    HfhTrajectory,
    RatePair,
    RateProfile,
    RegionBoundary,
    SystemParams,
    channel_gain,
    gain_pair,
    leg_rate_integral,
    log2_1p,
    make_hfh,
    trace,
)
from .errors import TimeOutOfRange
from .hfh_solver import positions_at
from .numerics import bisect_increasing, golden_max

# Trapezoid nodes of the cumulative flight rates, the t1 bisection tolerance
# (relative to T) and the golden-section iterations of the refinement.
_CUM_SAMPLES = 8193
_T1_REL_TOL = 1e-9
_GOLDEN_ITERS = 50

# Grid candidates whose `_screen` value is within this (relative) of the
# best screen value are scored exactly by `_evaluate`.  The exact winner is
# among them while no screen value is further from its exact value than
# about half of this times the best exact value.
_SCREEN_WINDOW = 1e-5


@dataclass(frozen=True)
class TdmaSearchConfig:
    """Grid sizes of the trajectory search: x_grid values of the free
    location of each location family, ti_grid hover times of the
    hover-both family."""

    x_grid: int = 129
    ti_grid: int = 17


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

    R_k(t) = integral over [0, t] of log2(1 + Pbar h_k(x(s))) ds, evaluated
    through a dense trapezoid prefix over the flight leg (hover segments are
    linear in t and handled exactly).  Supports the fast t1 bisection; final
    reported rates go through the adaptive quadrature in tdma_rates.
    """

    def __init__(self, params: SystemParams, traj: HfhTrajectory):
        self.params = params
        self.fly_start = traj.t_I
        self.fly_end = params.T - traj.t_F
        self.rate_I = tuple(log2_1p(params.Pbar * h) for h in gain_pair(params, traj.x_I))
        self.rate_F = tuple(log2_1p(params.Pbar * h) for h in gain_pair(params, traj.x_F))
        dur = self.fly_end - self.fly_start
        if dur > 1e-12 * params.T and params.V > 0.0:
            ts = np.linspace(self.fly_start, self.fly_end, _CUM_SAMPLES)
            h1, h2 = gain_pair(params, positions_at(params, traj, ts))
            f1 = np.log1p(params.Pbar * h1)
            f2 = np.log1p(params.Pbar * h2)
            dt = ts[1] - ts[0]
            scale = dt / (2.0 * math.log(2.0))
            self._fly_t = ts
            self._fly_cum1 = np.concatenate([[0.0], np.cumsum((f1[1:] + f1[:-1]))]) * scale
            self._fly_cum2 = np.concatenate([[0.0], np.cumsum((f2[1:] + f2[:-1]))]) * scale
        else:
            self._fly_t = None
            self._fly_cum1 = self._fly_cum2 = None
        self._total2 = self.cum(params.T, 2)

    def _flight_cum(self, t: float, user: int) -> float:
        if self._fly_t is None:
            return 0.0
        cum = self._fly_cum1 if user == 1 else self._fly_cum2
        t = min(max(t, self.fly_start), self.fly_end)
        return float(np.interp(t, self._fly_t, cum))

    def cum(self, t: float, user: int) -> float:
        """R_user(t) in rate-seconds."""
        hover_I = self.rate_I[user - 1] * min(t, self.fly_start)
        flight = self._flight_cum(t, user)
        hover_F = self.rate_F[user - 1] * max(t - self.fly_end, 0.0)
        return hover_I + flight + hover_F

    def pair_at(self, t1: float) -> RatePair:
        """(r1, r2) with user 1 served before t1 and user 2 after."""
        T = self.params.T
        r1 = self.cum(t1, 1) / T
        r2 = (self._total2 - self.cum(t1, 2)) / T
        return RatePair(r1, r2)


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

    r1 grows and r2 falls with t1, so the weighted difference is monotone
    and the root is found by bisection on [0, T].
    """
    if profile.alpha1 == 0.0:
        return 0.0
    if profile.alpha2 == 0.0:
        return params.T
    if cum is None:
        cum = CumulativeRates(params, traj)
    a1, a2 = profile.alpha1, profile.alpha2

    def gap(t1):
        pair = cum.pair_at(t1)
        return a2 * pair.r1 - a1 * pair.r2

    return bisect_increasing(gap, 0.0, params.T, iters=80, xtol=_T1_REL_TOL * params.T)


class _Family(NamedTuple):
    """The trajectories build(s) for s in [lo, hi]: searched on n grid
    values, then refined by golden section over s +- step to xtol.  `case`
    names the family in the diagnostics: 1 pure flight (or, with V = 0, a
    fixed hover), 2 hover above user 1 then fly, 3 fly then hover above
    user 2, 4 hover above both."""

    case: int
    lo: float
    hi: float
    n: int
    step: float
    xtol: float
    build: Callable[[float], HfhTrajectory]


def _families(params: SystemParams, cfg: TdmaSearchConfig) -> list:
    """The hover-only-above-users HFH families admissible at (V, T).

    Pure flight needs VT <= D and hovering above both users VT >= D; the
    free parameter is the one location or hover time not fixed by the
    family and the time budget.  Each family refines over its own grid
    step, except pure flight, which keeps the fixed hover's wider D / (n - 1)
    (over its own step its results move by up to 1e-9 relative, both ways).
    """
    half = 0.5 * params.D
    V, T, D = params.V, params.T, params.D
    n, xtol = cfg.x_grid, 1e-9 * D
    if V == 0.0:
        return [_Family(1, -half, half, n, D / (n - 1), xtol, lambda x: make_hfh(params, x, x, T))]
    reach = V * T
    out = []
    if reach <= D:
        out.append(_Family(1, -half, half - reach, n, D / (n - 1), xtol,
                           lambda x: make_hfh(params, x, x + reach, 0.0)))
    hi = min(half, -half + reach)
    out.append(_Family(2, -half, hi, n, (hi + half) / (n - 1), xtol,
                       lambda x: make_hfh(params, -half, x, T - (x + half) / V)))
    lo = max(-half, half - reach)
    out.append(_Family(3, lo, half, n, (half - lo) / (n - 1), xtol,
                       lambda x: make_hfh(params, x, half, 0.0)))
    if reach >= D:
        slack = T - D / V
        out.append(_Family(4, 0.0, slack, cfg.ti_grid, slack / max(cfg.ti_grid - 1, 1),
                           1e-9 * T, lambda t: make_hfh(params, -half, half, t)))
    return out


def _candidate_trajectories(params: SystemParams, cfg: TdmaSearchConfig):
    """Every grid candidate of `_families`, as (family, parameter, trajectory)."""
    return [
        (fam, s, fam.build(s))
        for fam in _families(params, cfg)
        for s in np.linspace(fam.lo, fam.hi, fam.n).tolist()
    ]


def _evaluate(params, traj, profile):
    """(search value, t1) of a trajectory on its cumulative-rate curves."""
    cum = CumulativeRates(params, traj)
    t1 = solve_t1(params, traj, profile, cum=cum)
    pair = cum.pair_at(t1)
    return profile.rate_scale(pair.r1, pair.r2), t1


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
    wins), golden-refines the winner's parameter on `_evaluate` and reports
    the rates of `tdma_rates` at the resulting trajectory and switch time.
    """
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
        r, t1 = _evaluate(params, traj, profile)
        if best is None or r > best[0]:
            best = (r, fam, s, traj, t1)
    r_best, fam, s, traj, t1 = best

    # Refine the winning family's parameter over one grid step either side.
    s, _ = golden_max(
        lambda v: _evaluate(params, fam.build(v), profile)[0],
        max(fam.lo, s - fam.step),
        min(fam.hi, s + fam.step),
        iters=_GOLDEN_ITERS,
        xtol=fam.xtol,
    )
    cand = fam.build(s)
    r_cand, t1_cand = _evaluate(params, cand, profile)
    if r_cand > r_best:
        r_best, traj, t1 = r_cand, cand, t1_cand

    # Report rates through the adaptive quadrature for the final answer.
    return TdmaSolution(
        profile,
        tdma_rates(params, traj, t1),
        traj,
        t1,
        {"case": fam.case, "search_r": r_best},
    )


def tdma_trace_region(
    params: SystemParams,
    n_profiles: int = 33,
    cfg: TdmaSearchConfig = DEFAULT_TDMA_CONFIG,
) -> RegionBoundary:
    """TDMA region boundary at uniformly spaced profiles (mirror-folded)."""
    return trace(
        "tdma",
        n_profiles,
        lambda profile: tdma_solve_profile(params, profile, cfg),
        lambda sol: _mirror_tdma(params, sol),
    )
