"""General finite-speed finite-duration capacity solver.

For a fixed hover-fly-hover (HFH) trajectory the power/rate allocation (P5)
is convex; its profile-constrained optimum is found by bisection on a scalar
weight mu in [0, 1] (the normalized dual weight of user 1), where each
weight decouples into independent per-slot full-power splits with a closed
form.  The trajectory is searched over endpoint pairs (x_I, x_F): for fixed
endpoints, sharing the slack time between the two hovers is a time-share,
so the pair's rate set is convex and its profile value is one mu-root with
a blend across the bracket.  Per-weight tables of hover rates and
cumulative flight integrals (`pair_tables`, independent of T, V and the
profile) give every pair's value in a few vectorized passes; the best pair
is zoomed on local tables, and its switch times are aligned with the slots
by golden searches on the slotted P5.  A dense hover scan covers the
x_I == x_F family exactly.

Every reported solution is evaluated with exact per-slot integration
(closed-form hover segments, Gauss nodes on flight segments cut at the
hover/flight switch times and at x = 0), so emitted rate pairs are
achievable to quadrature precision and survive independent feasibility
re-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    LOG2,
    HfhTrajectory,
    RatePair,
    RateProfile,
    RegionBoundary,
    SystemParams,
    gain_pair,
    make_hfh,
    trace,
)
from .errors import DiscretizationInvalid
from .fixed_region import fixed_boundary
from .numerics import golden_max

_SQRT3 = math.sqrt(3.0)

# A flight replaces the best hover only when better by more than this
# (relative); the reported solve doubles the slots up to _MAX_SLOT_DOUBLINGS
# times until r moves by less than _SLOT_DOUBLING_TOL (relative).
_TIE_TOL_REL = 1e-6
_SLOT_DOUBLING_TOL = 1e-4
_MAX_SLOT_DOUBLINGS = 3


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the trajectory search and the inner weight bisection.

    The search reads n_slots, hover_grid, golden_iters, mu_tol and
    mu_max_iter.  grid_xi, grid_xf, grid_ti, refine_rounds and rerank_top
    are accepted but not read: the benchmark's small test config still sets
    them.
    """

    n_slots: int = 512            # schedule slots of reported solutions
    grid_xi: int = 17
    grid_xf: int = 17
    grid_ti: int = 9
    hover_grid: int = 257         # dense scan of the x_I == x_F family
    refine_rounds: int = 3
    golden_iters: int = 30        # cap of each slot-alignment golden search
    mu_tol: float = 1e-6          # |r1/a1 - r2/a2| <= mu_tol * r at exit
    mu_max_iter: int = 60
    rerank_top: int = 16


DEFAULT_CONFIG = SearchConfig()


@dataclass(frozen=True)
class DiscretizedTrajectory:
    """Uniform-slot sampling of a trajectory (positions at slot midpoints)."""

    positions: np.ndarray
    slot_duration: float
    source: Optional[HfhTrajectory] = None

    @property
    def n_slots(self) -> int:
        return len(self.positions)


@dataclass
class PowerSchedule:
    """Per-slot transmit powers (watts) of the superposition split."""

    p1: np.ndarray
    p2: np.ndarray

    @property
    def n_slots(self) -> int:
        return len(self.p1)


@dataclass
class BoundarySolution:
    """One Pareto-boundary point with its generating trajectory/schedule."""

    profile: RateProfile
    rate_pair: RatePair
    r: float
    trajectory: HfhTrajectory
    schedule: PowerSchedule
    mu: float
    diagnostics: dict = field(default_factory=dict)


def positions_at(params: SystemParams, traj: HfhTrajectory, times: np.ndarray) -> np.ndarray:
    """Vectorized HFH position lookup (no bounds checking)."""
    x = np.minimum(np.maximum(traj.x_I + (times - traj.t_I) * params.V, traj.x_I), traj.x_F)
    x = np.where(times <= traj.t_I, traj.x_I, x)
    return np.where(times >= params.T - traj.t_F, traj.x_F, x)


def discretize(params: SystemParams, traj: HfhTrajectory, n_slots: int) -> DiscretizedTrajectory:
    if n_slots < 1:
        raise DiscretizationInvalid("need at least one slot")
    delta = params.T / n_slots
    mids = (np.arange(n_slots) + 0.5) * delta
    return DiscretizedTrajectory(positions_at(params, traj, mids), delta, traj)


def validate_discretization(params: SystemParams, disc: DiscretizedTrajectory) -> DiscretizedTrajectory:
    half = 0.5 * params.D
    pos = disc.positions
    if pos.size == 0:
        raise DiscretizationInvalid("empty discretization")
    if abs(disc.n_slots * disc.slot_duration - params.T) > 1e-9 * params.T:
        raise DiscretizationInvalid("slot durations do not add up to T")
    if np.any(pos < -half - 1e-9 * params.D) or np.any(pos > half + 1e-9 * params.D):
        raise DiscretizationInvalid("positions leave [-D/2, D/2]")
    budget = params.V * disc.slot_duration
    if disc.n_slots > 1:
        step = np.max(np.abs(np.diff(pos)))
        if step > budget * (1.0 + 1e-9) + 1e-12 * params.D:
            raise DiscretizationInvalid("inter-slot motion exceeds V * delta")
    return disc


# ---------------------------------------------------------------------------
# per-slot weighted power split
# ---------------------------------------------------------------------------


def _split_frame(h1, h2, Pbar):
    """(strong2, hs, hw, 1 + Pbar*hw, 1 + Pbar*hs, +-hs*hw): the mu-independent
    split terms; hs*hw is negated where user 1 is strong, so that times
    mu - (1 - mu) it equals hs*hw*(muw - mus) exactly."""
    strong2 = h2 >= h1
    hs = np.where(strong2, h2, h1)
    hw = np.where(strong2, h1, h2)
    hshw = hs * hw
    return strong2, hs, hw, 1.0 + Pbar * hw, 1.0 + Pbar * hs, np.where(strong2, hshw, -hshw)


def _strong_power(frame, mu, Pbar):
    """Strong-user power maximizing mus*r_s + muw*r_w at full total power.

    mus and muw weigh the strong and the weak user.  The derivative of the
    weighted objective in p_s is proportional to
    mus*hs/(1 + p hs) - muw*hw/(1 + p hw), whose root is unique and whose
    endpoint signs decide the clamping: nonpositive at 0 means all power to
    the weak user, nonnegative at Pbar means all power to the strong one,
    otherwise the interior stationary point
        p* = (muw*hw - mus*hs) / (hw*hs*(mus - muw)),
    clamped to [0, Pbar].  At mu = 1/2 the denominator is zero: p* is
    +-inf, which the clamp sends to a corner (reached only when rounding
    makes d0 > 0 > dP on near-tied gains, where both corners are within
    rounding of each other), or NaN, which needs d0 = 0 and is discarded.
    """
    strong2, hs, hw, cw, cs, hshw = frame
    nu = 1.0 - mu
    a = np.where(strong2, nu, mu) * hs
    b = np.where(strong2, mu, nu) * hw
    d0 = a - b
    dP = a * cw - b * cs
    with np.errstate(divide="ignore", invalid="ignore"):
        p_star = np.minimum(np.maximum(d0 / (hshw * (mu - nu)), 0.0), Pbar)
    return np.where(d0 <= 0.0, 0.0, np.where(dP >= 0.0, Pbar, p_star))


def _sc_rates(strong2, hs, hw, ps, pw):
    """Superposition rates (r1, r2) in nats at strong/weak powers ps, pw."""
    r_strong = np.log1p(ps * hs)
    r_weak = np.log1p(pw * hw / (ps * hw + 1.0))
    return np.where(strong2, r_weak, r_strong), np.where(strong2, r_strong, r_weak)


def _split_powers(frame, mu, Pbar):
    """Per-slot (p1, p2) of the split at weight mu."""
    ps = _strong_power(frame, mu, Pbar)
    p_weak = Pbar - ps
    return np.where(frame[0], p_weak, ps), np.where(frame[0], ps, p_weak)


def split_weighted(h1, h2, mu, Pbar):
    """Full-power splits maximizing mu*r1 + (1-mu)*r2 slot by slot.

    h1, h2 may be arrays (one entry per slot); mu is scalar or broadcastable.
    """
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    return _split_powers(_split_frame(h1, h2, Pbar), mu, Pbar)


def per_slot_weighted_split(params: SystemParams, x: float, mu: float):
    """Scalar convenience wrapper of split_weighted at a single position."""
    p1, p2 = split_weighted(*gain_pair(params, np.array([x])), mu, params.Pbar)
    return float(p1[0]), float(p2[0])


# ---------------------------------------------------------------------------
# trajectory evaluators
# ---------------------------------------------------------------------------


def _time_windows(params, traj):
    """(start, end, position) of both hovers, then (start, end, None) of the
    flight, cut where it crosses x = 0: the strong user flips there, so the
    rates jump."""
    start, end = traj.t_I, params.T - traj.t_F
    hovers = [(0.0, start, traj.x_I), (end, params.T, traj.x_F)]
    if params.V == 0.0 or end - start <= 1e-15 * params.T:
        return hovers
    cuts = [start - traj.x_I / params.V] if traj.x_I < 0.0 < traj.x_F else []
    return hovers + [(a, b, None) for a, b in zip([start, *cuts], [*cuts, end])]


class TrajectoryEvaluator:
    """Caches per-trajectory geometry for repeated (P5) solves.

    Split decisions are taken at slot midpoints; rate aggregation runs over
    "atoms" (position, time-weight, owning slot).  With exact=True the atoms
    integrate each slot exactly: hover portions as single weighted points,
    flight portions with two Gauss-Legendre nodes (the integrand is smooth
    within a slot once cut at the hover/flight switch times and at the x = 0
    crossing).

    The mu-independent terms (slot split frame, atom strong user and gains)
    are built once here, so `solve_weight` runs only the mu-dependent ufuncs,
    bit-identical to `split_weighted` plus the per-atom rate formula.
    """

    def __init__(self, params, mid_positions, atom_pos, atom_w, atom_slot):
        self.params = params
        self.h1m, self.h2m = gain_pair(params, mid_positions)
        self.frame = _split_frame(self.h1m, self.h2m, params.Pbar)
        atom_frame = _split_frame(*gain_pair(params, atom_pos), params.Pbar)
        self.astrong2, self.ahs, self.ahw = atom_frame[:3]
        self.aw = atom_w / params.T
        self.aslot = atom_slot
        self.n_slots = len(mid_positions)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_positions(cls, params, positions, slot_duration):
        """Piecewise-constant path (e.g. a DP grid path): midpoints are exact."""
        positions = np.asarray(positions, dtype=float)
        n = len(positions)
        return cls(
            params,
            positions,
            positions,
            np.full(n, slot_duration),
            np.arange(n),
        )

    @classmethod
    def exact(cls, params, traj: HfhTrajectory, n_slots: int):
        T = params.T
        delta = T / n_slots
        t0 = np.arange(n_slots) * delta
        t1 = t0 + delta
        mids = positions_at(params, traj, t0 + 0.5 * delta)

        pos_parts, w_parts, slot_parts = [], [], []
        for lo_edge, hi_edge, x_h in _time_windows(params, traj):
            lo = np.maximum(t0, lo_edge)
            hi = np.minimum(t1, hi_edge)
            dur = hi - lo
            idx = np.nonzero(dur > 1e-15 * T)[0]
            if x_h is not None:
                pos_parts.append(np.full(idx.size, x_h))
                w_parts.append(dur[idx])
                slot_parts.append(idx)
            elif idx.size:
                mid = 0.5 * (lo[idx] + hi[idx])
                off = 0.5 * dur[idx] / _SQRT3
                t_nodes = np.concatenate([mid - off, mid + off])
                x_nodes = traj.x_I + (t_nodes - traj.t_I) * params.V
                x_nodes = np.minimum(np.maximum(x_nodes, traj.x_I), traj.x_F)
                pos_parts.append(x_nodes)
                w_parts.append(np.concatenate([0.5 * dur[idx]] * 2))
                slot_parts.append(np.concatenate([idx, idx]))

        return cls(
            params,
            mids,
            np.concatenate(pos_parts),
            np.concatenate(w_parts),
            np.concatenate(slot_parts),
        )

    @classmethod
    def of(cls, params, disc: DiscretizedTrajectory):
        """Exact evaluator when the analytic source is known, else midpoint."""
        if disc.source is not None:
            return cls.exact(params, disc.source, disc.n_slots)
        return cls.from_positions(params, disc.positions, disc.slot_duration)

    # -- evaluation ---------------------------------------------------------

    def rates_for_powers(self, p1, p2):
        """Average (r1, r2) of the superposition rates under a slot schedule."""
        p1a = p1[self.aslot]
        p2a = p2[self.aslot]
        strong2 = self.astrong2
        ps = np.where(strong2, p2a, p1a)
        pw = np.where(strong2, p1a, p2a)
        r1a, r2a = _sc_rates(strong2, self.ahs, self.ahw, ps, pw)
        scale = 1.0 / LOG2
        return scale * float(self.aw @ r1a), scale * float(self.aw @ r2a)

    def solve_weight(self, mu):
        p1, p2 = _split_powers(self.frame, mu, self.params.Pbar)
        r1, r2 = self.rates_for_powers(p1, p2)
        return p1, p2, r1, r2


@dataclass
class P5Result:
    """Profile-constrained allocation on a fixed trajectory."""

    r: float
    schedule: PowerSchedule
    rate_pair: RatePair
    mu: float
    iterations: int
    tie_break: bool = False


def _solve_p5_on(params, ev: TrajectoryEvaluator, profile, mu_tol, max_iter) -> P5Result:
    """Bisection on mu, one `ev.solve_weight` per iterate, then the tie-break
    blend if needed; the mu = 0 and mu = 1 states are solved only when the
    blend needs a bracket end that never moved."""
    Pbar = params.Pbar
    n = ev.n_slots
    if profile.alpha1 == 0.0 or profile.alpha2 == 0.0:
        p1 = np.full(n, Pbar if profile.alpha2 == 0.0 else 0.0)
        p2 = Pbar - p1
        r1, r2 = ev.rates_for_powers(p1, p2)
        return P5Result(
            profile.rate_scale(r1, r2),
            PowerSchedule(p1, p2),
            RatePair(r1, r2),
            1.0 if profile.alpha2 == 0.0 else 0.0,
            0,
        )

    a1, a2 = profile.alpha1, profile.alpha2

    def imbalance(r1, r2):
        return a2 * r1 - a1 * r2

    lo, hi = 0.0, 1.0
    state_lo = state_hi = None
    iterations = 0
    best = None
    for _ in range(max_iter):
        iterations += 1
        mid = 0.5 * (lo + hi)
        state = ev.solve_weight(mid)
        _, _, r1, r2 = state
        r = profile.rate_scale(r1, r2)
        if best is None or r > best[0]:
            best = (r, mid, state)
        if abs(r1 / a1 - r2 / a2) <= mu_tol * max(r, 1e-12):
            break
        if imbalance(r1, r2) <= 0.0:
            lo, state_lo = mid, state
        else:
            hi, state_hi = mid, state

    r_best, mu_best, (p1, p2, r1, r2) = best
    if abs(r1 / a1 - r2 / a2) <= mu_tol * max(r_best, 1e-12):
        return P5Result(
            r_best, PowerSchedule(p1, p2), RatePair(r1, r2), mu_best, iterations
        )

    # The ratio jumped across the final bracket: this happens when slots with
    # tied gains flip all power between the users at a critical weight.  On
    # such slots the slot region degenerates to the line r1 + r2 = const, so
    # any blend of the bracket schedules is realized exactly by an
    # intermediate power; blend with the ratio-matching coefficient.
    p1L, p2L, r1L, r2L = state_lo or ev.solve_weight(lo)
    p1H, p2H, r1H, r2H = state_hi or ev.solve_weight(hi)
    gL, gH = imbalance(r1L, r2L), imbalance(r1H, r2H)
    mixed = None
    if gL <= 0.0 <= gH and gH - gL > 0.0:
        lam = gH / (gH - gL)
        p1_mix = p1L.copy()
        p2_mix = p2L.copy()
        differ = np.abs(p2L - p2H) > 1e-9 * Pbar
        tied = np.abs(ev.h1m - ev.h2m) <= 1e-9 * np.maximum(ev.h1m, ev.h2m)
        if np.all(~differ | tied):
            h = ev.h2m[differ]
            r2L_slot = np.log1p(p2L[differ] * h)
            r2H_slot = np.log1p(p2H[differ] * h)
            target = lam * r2L_slot + (1.0 - lam) * r2H_slot
            p2_mix[differ] = np.expm1(target) / h
            p1_mix[differ] = Pbar - p2_mix[differ]
            r1m, r2m = ev.rates_for_powers(p1_mix, p2_mix)
            mixed = (
                profile.rate_scale(r1m, r2m),
                lam * 1.0,
                (p1_mix, p2_mix, r1m, r2m),
            )
    if mixed is not None and mixed[0] >= r_best:
        r_best, lam, (p1, p2, r1, r2) = mixed
        mu_best = lam * lo + (1.0 - lam) * hi
        return P5Result(
            r_best,
            PowerSchedule(p1, p2),
            RatePair(r1, r2),
            mu_best,
            iterations,
            tie_break=True,
        )
    # Conservative fallback: report the best achievable iterate.
    return P5Result(
        r_best, PowerSchedule(p1, p2), RatePair(r1, r2), mu_best, iterations, True
    )


def solve_p5(
    params: SystemParams,
    disc: DiscretizedTrajectory,
    profile: RateProfile,
    cfg: SearchConfig = DEFAULT_CONFIG,
) -> P5Result:
    """Profile-constrained power allocation over a discretized trajectory.

    Bisection on the user-1 weight mu: the aggregated r1 is nondecreasing in
    mu (and r2 nonincreasing), so the rate ratio crosses alpha1:alpha2
    exactly once.  Zero-weight profiles short-circuit to the corners.
    """
    validate_discretization(params, disc)
    ev = TrajectoryEvaluator.of(params, disc)
    return _solve_p5_on(params, ev, profile, cfg.mu_tol, cfg.mu_max_iter)


# ---------------------------------------------------------------------------
# endpoint-pair tables
# ---------------------------------------------------------------------------


# Position nodes (odd, so x = 0 is a node) and weights mu of the pair tables,
# Gauss sub-cells per node cell, and weight rows per build chunk (bounds the
# build's temporaries).  The polish zooms in _POLISH_STAGES stages, each on
# _POLISH_SIDE positions around either endpoint at a quarter of the previous
# spacing and _POLISH_WEIGHTS weights across the widened bracket.
_PAIR_NODES = 201
_PAIR_WEIGHTS = 129
_SUBCELLS = 16
_TABLE_CHUNK = 8
_POLISH_SIDE = 9
_POLISH_WEIGHTS = 17
_POLISH_STAGES = 5


@dataclass(frozen=True)
class PairTables:
    """At weight mu[m] (row m) and sorted positions x: hover rates (h1, h2)
    in bps/Hz and cumulative flight integrals (c1, c2) of the per-position
    rates from x[0], in bps/Hz times meters.  They depend on (beta0, H, D,
    Pbar) only."""

    x: np.ndarray
    mu: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray


def _gauss_rates(params, a, b, mu):
    """2-point Gauss integrals over [a, b] of the per-position rates (r1, r2)
    in nats times meters at weights mu (broadcast against a[..., None]), and
    the split's regime at both nodes (0 weak, 1 interior, 2 strong power)."""
    half = 0.5 * (b - a)
    x = (a + half)[..., None] + (half / _SQRT3)[..., None] * np.array([-1.0, 1.0])
    frame = _split_frame(*gain_pair(params, x), params.Pbar)
    ps = _strong_power(frame, mu[..., None], params.Pbar)
    r1, r2 = _sc_rates(*frame[:3], ps, params.Pbar - ps)
    regime = (ps > 0.0).astype(np.int8) + (ps >= params.Pbar)
    return half * (r1[..., 0] + r1[..., 1]), half * (r2[..., 0] + r2[..., 1]), regime


def _rate_tables(params, x, mu) -> PairTables:
    """PairTables at sorted positions x and weights mu.

    Flight integrals use 2-point Gauss on sub-cells at most
    D / ((_PAIR_NODES - 1) * _SUBCELLS) wide, cut at every x and at x = 0
    (the rates jump there).  A sub-cell whose Gauss nodes, or whose node and
    its neighbour's, disagree on the split's regime holds a kink and is
    integrated on _SUBCELLS pieces instead.
    """
    cuts = np.union1d(x, [0.0]) if x[0] < 0.0 < x[-1] else np.unique(x)
    gaps = np.diff(cuts)
    n_sub = np.ceil(gaps / params.D * (_PAIR_NODES - 1) * _SUBCELLS - 1e-9).clip(1).astype(int)
    ends = np.concatenate([[0], np.cumsum(n_sub)])
    k = np.arange(ends[-1]) - np.repeat(ends[:-1], n_sub)
    edges = np.append(np.repeat(cuts[:-1], n_sub) + np.repeat(gaps / n_sub, n_sub) * k, cuts[-1])
    node_frame = _split_frame(*gain_pair(params, x), params.Pbar)
    at_x = ends[np.searchsorted(cuts, x)]
    out = np.empty((4, len(mu), len(x)))
    for s in range(0, len(mu), _TABLE_CHUNK):
        rows = slice(s, s + _TABLE_CHUNK)
        m = mu[rows, None]
        ps = _strong_power(node_frame, m, params.Pbar)
        out[0, rows], out[1, rows] = _sc_rates(*node_frame[:3], ps, params.Pbar - ps)
        f1, f2, regime = _gauss_rates(params, edges[:-1], edges[1:], m)
        step = regime[:, :-1, 1] != regime[:, 1:, 0]
        kink = regime[..., 0] != regime[..., 1]
        kink[:, :-1] |= step
        kink[:, 1:] |= step
        r, c = np.nonzero(kink)
        piece = (edges[c + 1] - edges[c])[:, None] / _SUBCELLS
        a = edges[c, None] + piece * np.arange(_SUBCELLS)
        k1, k2, _ = _gauss_rates(params, a, a + piece, m[r])
        f1[r, c], f2[r, c] = k1.sum(-1), k2.sum(-1)
        out[2, rows] = np.pad(np.cumsum(f1, axis=1), ((0, 0), (1, 0)))[:, at_x]
        out[3, rows] = np.pad(np.cumsum(f2, axis=1), ((0, 0), (1, 0)))[:, at_x]
    return PairTables(x, mu, *(out / LOG2))


def pair_tables(params: SystemParams) -> PairTables:
    """The search's tables: _PAIR_NODES positions over [-D/2, D/2] and
    _PAIR_WEIGHTS weights over [0, 1]."""
    half = 0.5 * params.D
    x = np.linspace(-half, half, _PAIR_NODES)
    return _rate_tables(params, x, np.linspace(0.0, 1.0, _PAIR_WEIGHTS))


def _pair_primal(params, tables, m, i, j):
    """(r1, r2, at_i) of the pairs (x[i], x[j]) at weight index m: fly at the
    per-position split and hover all slack at the endpoint with the larger
    weighted hover rate (x[i] when at_i)."""
    t = tables
    slack = params.T - (t.x[j] - t.x[i]) / params.V
    w = t.mu[m]
    at_i = w * t.h1[m, i] + (1.0 - w) * t.h2[m, i] >= w * t.h1[m, j] + (1.0 - w) * t.h2[m, j]
    e = np.where(at_i, i, j)
    r1 = ((t.c1[m, j] - t.c1[m, i]) / params.V + slack * t.h1[m, e]) / params.T
    r2 = ((t.c2[m, j] - t.c2[m, i]) / params.V + slack * t.h2[m, e]) / params.T
    return r1, r2, at_i


def _batched_profile_values(params, pairs, profile, tables):
    """Achievable profile values of many HFH endpoint pairs at once.

    Row (i, j) of `pairs` is the pair x[i] <= x[j] of `tables`, with a
    feasible flight.  The weight index is bisected for all pairs at once,
    and the primal points at the bracket ends (imbalance <= 0 at lo, > 0 at
    hi) are time-shared onto the profile ray.  Returns (value, t_I, lo, hi):
    the value, the hover time at x[i] that realizes it, and the bracket.
    """
    a1, a2 = profile.alpha1, profile.alpha2
    i, j = pairs[:, 0], pairs[:, 1]
    lo = np.zeros(len(pairs), dtype=int)
    hi = np.full(len(pairs), len(tables.mu) - 1)
    for _ in range(math.ceil(math.log2(len(tables.mu) - 1))):
        mid = (lo + hi) // 2
        r1, r2, _ = _pair_primal(params, tables, mid, i, j)
        take = a2 * r1 - a1 * r2 <= 0.0
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    r1L, r2L, iL = _pair_primal(params, tables, lo, i, j)
    r1H, r2H, iH = _pair_primal(params, tables, hi, i, j)
    gL, gH = a2 * r1L - a1 * r2L, a2 * r1H - a1 * r2H
    lam = gH / (gH - gL)  # mu = 1 gives r2 = 0, so gH > 0 >= gL
    r1 = lam * r1L + (1.0 - lam) * r1H
    r2 = lam * r2L + (1.0 - lam) * r2H
    slack = params.T - (tables.x[j] - tables.x[i]) / params.V
    t_I = slack * (lam * iL + (1.0 - lam) * iH)
    return np.minimum(r1 / a1, r2 / a2), t_I, lo, hi


def _best_pair(params, profile, tables):
    """The best feasible pair of `tables`, zoomed in _POLISH_STAGES stages of
    local tables around it.  Returns (x_I, x_F, t_I, value, upper bound,
    polished value): the table pick's value and its upper bound, the min
    over the weights of D(mu) / (mu a1 + (1 - mu) a2), above which no
    schedule on that pair reaches."""
    half = 0.5 * params.D
    offsets = (tables.x[1] - tables.x[0]) * (np.arange(_POLISH_SIDE) - _POLISH_SIDE // 2)
    for stage in range(_POLISH_STAGES + 1):
        if stage:
            pos = np.union1d(
                np.clip(x_I + offsets * 0.25 ** stage, -half, half),
                np.clip(x_F + offsets * 0.25 ** stage, -half, half),
            )
            w = mu_hi - mu_lo  # widened bracket, with mu = 0 and 1 as sentinels
            mu = np.linspace(max(mu_lo - w, 0.0), min(mu_hi + w, 1.0), _POLISH_WEIGHTS)
            tables = _rate_tables(params, pos, np.union1d([0.0, 1.0], mu))
        x, mu = tables.x, tables.mu
        i, j = np.triu_indices(len(x))
        keep = x[j] - x[i] <= params.V * params.T
        pairs = np.stack([i[keep], j[keep]], axis=1)
        value, t_I, lo, hi = _batched_profile_values(params, pairs, profile, tables)
        k = int(np.argmax(value))
        i, j = pairs[k]
        x_I, x_F, mu_lo, mu_hi = x[i], x[j], mu[lo[k]], mu[hi[k]]
        if not stage:
            r1, r2, _ = _pair_primal(params, tables, np.arange(len(mu)), i, j)
            a1, a2 = profile.alpha1, profile.alpha2
            bound = np.min((mu * r1 + (1.0 - mu) * r2) / (mu * a1 + (1.0 - mu) * a2))
            pair_value = value[k]
    return float(x_I), float(x_F), float(t_I[k]), float(pair_value), float(bound), float(value[k])


# ---------------------------------------------------------------------------
# outer trajectory search
# ---------------------------------------------------------------------------


def _hover_value(params, x, profile):
    pair = fixed_boundary(params, x, profile).rate_pair
    return profile.rate_scale(pair.r1, pair.r2)


def _exact_solution(params, profile, traj, n_slots, cfg, diagnostics):
    disc = discretize(params, traj, n_slots)
    res = _solve_p5_on(
        params, TrajectoryEvaluator.exact(params, traj, n_slots), profile,
        cfg.mu_tol, cfg.mu_max_iter,
    )
    validate_discretization(params, disc)
    diag = dict(diagnostics)
    diag.update(n_slots=n_slots, mu_iterations=res.iterations, tie_break=res.tie_break)
    return BoundarySolution(
        profile, res.rate_pair, res.r, traj, res.schedule, res.mu, diag
    )


def _corner_solution(params, profile, cfg) -> BoundarySolution:
    """All weight on one user: hover above that user the whole flight."""
    user = 2 if profile.alpha1 == 0.0 else 1
    x = params.user_position(user)
    traj = make_hfh(params, x, x, params.T)
    n = cfg.n_slots
    p2 = np.full(n, params.Pbar if user == 2 else 0.0)
    p1 = params.Pbar - p2
    peak = params.peak_rate
    pair = RatePair(0.0, peak) if user == 2 else RatePair(peak, 0.0)
    return BoundarySolution(
        profile,
        pair,
        peak,
        traj,
        PowerSchedule(p1, p2),
        0.0 if user == 2 else 1.0,
        {"corner": True, "n_slots": n},
    )


def mirror_solution(params: SystemParams, sol: BoundarySolution) -> BoundarySolution:
    """Reflect a solution through the r1 = r2 symmetry (x -> -x, users swapped).

    Time is also reversed so the mirrored trajectory stays unidirectional
    left-to-right.
    """
    sched = PowerSchedule(sol.schedule.p2[::-1].copy(), sol.schedule.p1[::-1].copy())
    diag = dict(sol.diagnostics)
    diag["mirrored"] = True
    return BoundarySolution(
        sol.profile.mirrored(),
        sol.rate_pair.swapped(),
        sol.r,
        sol.trajectory.mirrored(),
        sched,
        1.0 - sol.mu,
        diag,
    )


def solve_profile(
    params: SystemParams,
    profile: RateProfile,
    cfg: SearchConfig = DEFAULT_CONFIG,
    *,
    tables: Optional[PairTables] = None,
) -> BoundarySolution:
    """Boundary point of the capacity region for one rate profile.

    Searches the HFH family: a dense hover scan, then (for V > 0) the best
    endpoint pair of `tables` (`pair_tables(params)`, built here when none
    are passed; they must come from the same beta0, H, D and Pbar), zoomed
    on local tables, with its switch times aligned to the slots by golden
    searches on the slotted exact P5.  The flight replaces the hover only
    when it is better by more than `_TIE_TOL_REL`.  Ends with a slot
    doubling check.  Diagnostics report the hover value, the pair's table
    value and upper bound, the polished value and the P5 solve count.
    """
    if profile.is_corner:
        return _corner_solution(params, profile, cfg)
    if profile.alpha1 > profile.alpha2:
        mirrored = solve_profile(params, profile.mirrored(), cfg, tables=tables)
        return mirror_solution(params, mirrored)

    half = 0.5 * params.D
    diagnostics: dict = {}

    # Hover family: cheap closed-form objective on a dense grid + refinement.
    xs = np.linspace(-half, half, cfg.hover_grid)
    hover_vals = [_hover_value(params, x, profile) for x in xs]
    ih = int(np.argmax(hover_vals))
    x_h, r_h = golden_max(
        lambda x: _hover_value(params, x, profile),
        xs[max(ih - 1, 0)],
        xs[min(ih + 1, len(xs) - 1)],
        iters=60,
        xtol=1e-10 * params.D,
    )
    if hover_vals[ih] > r_h:
        x_h, r_h = float(xs[ih]), hover_vals[ih]
    best_traj = make_hfh(params, x_h, x_h, params.T)
    best_r = r_h
    diagnostics["hover_r"] = r_h
    p5_calls = 0

    if params.V > 0.0:
        x_I, x_F, t_I, pair_value, bound, polished = _best_pair(
            params, profile, pair_tables(params) if tables is None else tables
        )
        diagnostics.update(pair_value=pair_value, pair_upper_bound=bound, polish_value=polished)
        tie = _TIE_TOL_REL * max(r_h, 1e-12)
        best = [-math.inf, None]

        def value_of(x_i, t):
            nonlocal p5_calls
            p5_calls += 1
            traj = make_hfh(params, x_i, x_F, min(t, params.T - (x_F - x_i) / params.V))
            ev = TrajectoryEvaluator.exact(params, traj, cfg.n_slots)
            r = _solve_p5_on(params, ev, profile, cfg.mu_tol, cfg.mu_max_iter).r
            best[:] = max(best, [r, traj], key=lambda b: b[0])
            return r

        # Slots only lose rate against the continuous value, so a polished
        # value within the tie of the hover cannot replace it.  Otherwise
        # align the switch times with the slots: the flight's start through
        # t_I, then its end through x_I, each over one slot.
        if polished > r_h + tie:
            value_of(x_I, t_I)
            slot = 0.5 * params.T / cfg.n_slots
            slack = params.T - (x_F - x_I) / params.V
            golden_max(lambda t: value_of(x_I, t), max(t_I - slot, 0.0),
                       min(t_I + slot, slack), cfg.golden_iters, 1e-6 * params.T)
            t_I, reach = best[1].t_I, params.V * slot
            x_lo = max(x_I - reach, -half, x_F - params.V * params.T)
            golden_max(lambda x: value_of(x, t_I), x_lo, min(x_I + reach, x_F),
                       cfg.golden_iters, 1e-6 * params.D)
        if best[0] > r_h + tie:
            best_r, best_traj = best

    # Slot-count convergence check on the winner, then the reported solve.
    n = cfg.n_slots
    sol = _exact_solution(params, profile, best_traj, n, cfg, diagnostics)
    p5_calls += 1
    for _ in range(_MAX_SLOT_DOUBLINGS):
        finer = _exact_solution(params, profile, best_traj, 2 * n, cfg, diagnostics)
        p5_calls += 1
        if abs(finer.r - sol.r) < _SLOT_DOUBLING_TOL * max(sol.r, 1e-12):
            break
        n *= 2
        sol = finer
    sol.diagnostics.update(search_best_r=best_r, p5_calls=p5_calls)
    return sol


def trace_region(
    params: SystemParams,
    n_profiles: int = 33,
    cfg: SearchConfig = DEFAULT_CONFIG,
) -> RegionBoundary:
    """Boundary of the capacity region at uniformly spaced profiles.

    The pair tables are built once (for V > 0) and passed to every
    `solve_profile` call.  Profiles with alpha1 > alpha2 are obtained by
    mirroring the symmetric solve (index-exact), halving the work.
    """
    tables = pair_tables(params) if params.V > 0.0 else None
    # `solve_profile` is looked up at call time, so a wrapper installed on
    # the module sees every solve.
    return trace(
        "sc",
        n_profiles,
        lambda profile: solve_profile(params, profile, cfg, tables=tables),
        lambda sol: mirror_solution(params, sol),
    )
