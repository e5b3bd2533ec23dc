"""General finite-speed finite-duration capacity solver.

For a fixed hover-fly-hover trajectory the power/rate allocation problem is
convex; its profile-constrained optimum is found by bisection on a scalar
weight mu in [0, 1] (the normalized dual weight of user 1), where each
weight decouples into independent per-slot full-power splits with a closed
form.  The trajectory itself is then optimized by a three-dimensional grid
search over (x_I, x_F, t_I) with coordinate-wise golden-section refinement,
plus a dense one-dimensional hover scan so the degenerate x_I == x_F family
is never under-resolved.

Rate bookkeeping: searching uses a fast midpoint rule over uniform slots,
while every reported solution is re-evaluated with exact per-slot
integration (closed-form hover segments, Gauss nodes on flight segments cut
at the hover/flight switch times), so emitted rate pairs are achievable to
quadrature precision and survive independent feasibility re-checks.

The mu-independent terms of a slot's split (`_split_frame`) are built once
per evaluator, or once per run of equal positions in a grid row (mostly two
hover runs), and each weight runs only the mu-dependent step; outputs are
bit-identical to evaluating the plain formula on every element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    HfhTrajectory,
    RatePair,
    RateProfile,
    RegionBoundary,
    SystemParams,
    make_hfh,
)
from .errors import DiscretizationInvalid
from .fixed_region import fixed_boundary
from .numerics import golden_max

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the trajectory search and the inner weight bisection."""

    n_slots: int = 512            # schedule slots of reported solutions
    grid_xi: int = 17             # x_I grid points
    grid_xf: int = 17             # x_F grid points per x_I (feasible wedge)
    grid_ti: int = 9              # t_I grid points per (x_I, x_F)
    hover_grid: int = 257         # dense scan of the x_I == x_F family
    refine_rounds: int = 3        # coordinate golden-section rounds
    golden_iters: int = 30
    mu_tol: float = 1e-6          # |r1/a1 - r2/a2| <= mu_tol * r at exit
    mu_max_iter: int = 60
    coarse_slots: int = 128       # midpoint slots for grid ranking
    coarse_mu_iter: int = 24
    rerank_top: int = 16          # grid winners re-scored exactly
    tie_tol_rel: float = 1e-6     # prefer least flying among near-ties
    slot_doubling_tol: float = 1e-4
    max_slot_doublings: int = 3


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


def _hfh_positions(params, x_I, x_F, t_I, t_F, times):
    """HFH positions at `times`; the trajectory terms may be broadcast arrays."""
    x = np.minimum(np.maximum(x_I + (times - t_I) * params.V, x_I), x_F)
    x = np.where(times <= t_I, x_I, x)
    return np.where(times >= params.T - t_F, x_F, x)


def positions_at(params: SystemParams, traj: HfhTrajectory, times: np.ndarray) -> np.ndarray:
    """Vectorized HFH position lookup (no bounds checking)."""
    return _hfh_positions(params, traj.x_I, traj.x_F, traj.t_I, traj.t_F, times)


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


def _gains(params, x):
    """Noise-normalized gains (h1, h2) at positions x."""
    half, H2 = 0.5 * params.D, params.H * params.H
    return params.beta0 / ((x + half) ** 2 + H2), params.beta0 / ((x - half) ** 2 + H2)


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
        p* = (muw*hw - mus*hs) / (hw*hs*(mus - muw)).
    """
    strong2, hs, hw, cw, cs, hshw = frame
    nu = 1.0 - mu
    a = np.where(strong2, nu, mu) * hs
    b = np.where(strong2, mu, nu) * hw
    d0 = a - b
    dP = a * cw - b * cs
    with np.errstate(divide="ignore", invalid="ignore"):
        p_star = d0 / (hshw * (mu - nu))
    p_star = np.where(np.isfinite(p_star), np.minimum(np.maximum(p_star, 0.0), Pbar), 0.0)
    return np.where(d0 <= 0.0, 0.0, np.where(dP >= 0.0, Pbar, p_star))


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
    p1, p2 = split_weighted(*_gains(params, np.array([x])), mu, params.Pbar)
    return float(p1[0]), float(p2[0])


# ---------------------------------------------------------------------------
# trajectory evaluators
# ---------------------------------------------------------------------------


class TrajectoryEvaluator:
    """Caches per-trajectory geometry for repeated (P5) solves.

    Split decisions are taken at slot midpoints; rate aggregation runs over
    "atoms" (position, time-weight, owning slot).  With exact=True the atoms
    integrate each slot exactly: hover portions as single weighted points,
    flight portions with two Gauss-Legendre nodes (the integrand is smooth
    within a slot once cut at the hover/flight switch times).

    The mu-independent terms (slot split frame, atom strong user and gains)
    are built once here, so `solve_weight` runs only the mu-dependent ufuncs,
    bit-identical to `split_weighted` plus the per-atom rate formula.
    """

    def __init__(self, params, mid_positions, atom_pos, atom_w, atom_slot):
        self.params = params
        self.h1m, self.h2m = _gains(params, mid_positions)
        self.frame = _split_frame(self.h1m, self.h2m, params.Pbar)
        ah1, ah2 = _gains(params, atom_pos)
        self.astrong2 = ah2 >= ah1
        self.ahs = np.where(self.astrong2, ah2, ah1)
        self.ahw = np.where(self.astrong2, ah1, ah2)
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

        def add_hover(x_h, lo_edge, hi_edge):
            dur = np.maximum(np.minimum(t1, hi_edge) - np.maximum(t0, lo_edge), 0.0)
            idx = np.nonzero(dur > 1e-15 * T)[0]
            if idx.size:
                pos_parts.append(np.full(idx.size, x_h))
                w_parts.append(dur[idx])
                slot_parts.append(idx)

        fly_start = traj.t_I
        fly_end = T - traj.t_F
        add_hover(traj.x_I, 0.0, fly_start)
        add_hover(traj.x_F, fly_end, T)

        if params.V > 0.0 and fly_end - fly_start > 1e-15 * T:
            lo = np.maximum(t0, fly_start)
            hi = np.minimum(t1, fly_end)
            dur = hi - lo
            idx = np.nonzero(dur > 1e-15 * T)[0]
            if idx.size:
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
        r_strong = np.log1p(ps * self.ahs)
        r_weak = np.log1p(pw * self.ahw / (ps * self.ahw + 1.0))
        r1a = np.where(strong2, r_weak, r_strong)
        r2a = np.where(strong2, r_strong, r_weak)
        scale = 1.0 / math.log(2.0)
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


def _min_scale(profile: RateProfile, r1: float, r2: float) -> float:
    scales = []
    if profile.alpha1 > 0.0:
        scales.append(r1 / profile.alpha1)
    if profile.alpha2 > 0.0:
        scales.append(r2 / profile.alpha2)
    return min(scales)


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
            _min_scale(profile, r1, r2),
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
        r = _min_scale(profile, r1, r2)
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
                _min_scale(profile, r1m, r2m),
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
# batched coarse ranking of grid candidates
# ---------------------------------------------------------------------------


# Candidate rows per block of the grid ranking: a block's whole bisection
# (its split frame, rates and expanded rows) stays in cache.
_GRID_BLOCK = 256


def _batched_profile_values(params, pos_matrix, profile, iters):
    """Midpoint-rule profile-constrained values for many trajectories at once.

    pos_matrix has one row of slot-midpoint positions per candidate.  A
    fixed-iteration mu bisection runs on a block of rows at a time; good
    enough for ranking (winners are re-scored exactly afterwards).  Each run
    of equal adjacent positions in a row (an HFH hover) gets one split frame
    and one split per iteration, and the rates are expanded to full rows
    before the unchanged row mean, so the values are bit-identical to
    splitting every element.
    """
    Pbar = params.Pbar
    a1, a2 = profile.alpha1, profile.alpha2
    values = np.empty(pos_matrix.shape[0])
    for start in range(0, len(values), _GRID_BLOCK):
        block = pos_matrix[start : start + _GRID_BLOCK]
        n_rows, n_slots = block.shape
        run_start = np.ones(block.shape, dtype=bool)
        run_start[:, 1:] = block[:, 1:] != block[:, :-1]
        run_start = run_start.ravel()
        expand = np.cumsum(run_start) - 1      # element -> its run
        row = np.nonzero(run_start)[0] // n_slots  # run -> its row
        frame = _split_frame(*_gains(params, block.ravel()[run_start]), Pbar)
        strong2, hs, hw = frame[:3]

        lo, hi = np.zeros(n_rows), np.ones(n_rows)
        r1 = r2 = np.zeros(n_rows)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            ps = _strong_power(frame, mid[row], Pbar)
            pw = Pbar - ps
            r_strong = np.log1p(ps * hs)
            r_weak = np.log1p(pw * hw / (ps * hw + 1.0))
            r1 = np.where(strong2, r_weak, r_strong)[expand].reshape(n_rows, n_slots)
            r2 = np.where(strong2, r_strong, r_weak)[expand].reshape(n_rows, n_slots)
            r1 = r1.mean(axis=1) / math.log(2.0)
            r2 = r2.mean(axis=1) / math.log(2.0)
            take = a2 * r1 - a1 * r2 <= 0.0
            lo = np.where(take, mid, lo)
            hi = np.where(take, hi, mid)
        values[start : start + n_rows] = np.minimum(r1 / a1, r2 / a2)
    return values


# ---------------------------------------------------------------------------
# outer trajectory search
# ---------------------------------------------------------------------------


def _hover_value(params, x, profile):
    point = fixed_boundary(params, x, profile)
    return _min_scale(profile, point.rate_pair.r1, point.rate_pair.r2)


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
    traj = HfhTrajectory(
        -sol.trajectory.x_F, -sol.trajectory.x_I, sol.trajectory.t_F, sol.trajectory.t_I
    )
    sched = PowerSchedule(sol.schedule.p2[::-1].copy(), sol.schedule.p1[::-1].copy())
    diag = dict(sol.diagnostics)
    diag["mirrored"] = True
    return BoundarySolution(
        sol.profile.mirrored(),
        sol.rate_pair.swapped(),
        sol.r,
        traj,
        sched,
        1.0 - sol.mu,
        diag,
    )


def _grid_candidates(params, cfg):
    """The (x_I, x_F, t_I) grid over the feasible wedge, in search order, and
    the positions of each make_hfh(x_I, x_F, t_I) at `cfg.coarse_slots`
    slot midpoints, computed as `positions_at` does."""
    half = 0.5 * params.D
    cands = []
    for x_i in np.linspace(-half, half, cfg.grid_xi):
        reach = min(half, x_i + params.V * params.T)
        if reach <= x_i:
            continue
        for x_f in np.linspace(x_i, reach, cfg.grid_xf)[1:]:
            slack = params.T - (x_f - x_i) / params.V
            for t_i in np.linspace(0.0, slack, cfg.grid_ti) if slack > 0 else [0.0]:
                cands.append((x_i, x_f, t_i))
    x_i, x_f, t_i = np.array(cands).reshape(-1, 3).T
    t_f = np.maximum(params.T - t_i - (x_f - x_i) / params.V, 0.0)
    mids = (np.arange(cfg.coarse_slots) + 0.5) * (params.T / cfg.coarse_slots)
    col = (x_i[:, None], x_f[:, None], t_i[:, None], t_f[:, None])
    return x_i, x_f, t_i, _hfh_positions(params, *col, mids)


def _feasible_ti(params, x_i, x_f, t_i):
    flight = 0.0 if params.V == 0.0 else (x_f - x_i) / params.V
    return min(max(t_i, 0.0), max(params.T - flight, 0.0))


def solve_profile(
    params: SystemParams,
    profile: RateProfile,
    cfg: SearchConfig = DEFAULT_CONFIG,
) -> BoundarySolution:
    """Boundary point of the capacity region for one rate profile.

    Searches the HFH family: a dense hover scan, a (x_I, x_F, t_I) grid over
    the feasible wedge ranked with a fast midpoint rule, exact re-scoring of
    the leaders, coordinate-wise golden-section refinement, and a final slot
    doubling check.  Near-ties prefer the smallest flight span.
    """
    if profile.is_corner:
        return _corner_solution(params, profile, cfg)
    if profile.alpha1 > profile.alpha2:
        return mirror_solution(params, solve_profile(params, profile.mirrored(), cfg))

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

    if params.V > 0.0:
        # Feasible wedge grid, ranked with the batched midpoint solver.
        g_xi, g_xf, g_ti, rows = _grid_candidates(params, cfg)
        if g_xi.size:
            values = _batched_profile_values(params, rows, profile, cfg.coarse_mu_iter)
            order = np.argsort(values)[::-1][: cfg.rerank_top]
            diagnostics["grid_candidates"] = len(values)
            diagnostics["grid_best_coarse"] = float(values[order[0]])
            for idx in order:
                traj = make_hfh(params, g_xi[idx], g_xf[idx], float(g_ti[idx]))
                ev = TrajectoryEvaluator.exact(params, traj, cfg.n_slots)
                res = _solve_p5_on(params, ev, profile, cfg.mu_tol, cfg.mu_max_iter)
                tie = cfg.tie_tol_rel * max(best_r, 1e-12)
                if res.r > best_r + tie or (
                    res.r > best_r - tie and traj.span < best_traj.span - 1e-12
                ):
                    best_r, best_traj = res.r, traj

        # Coordinate golden-section refinement around the incumbent.
        if best_traj.span > 0.0:
            dx = params.D / (cfg.grid_xi - 1)
            dt = params.T / max(cfg.grid_ti - 1, 1)

            def value_of(x_i, x_f, t_i):
                if x_f < x_i:
                    return -math.inf
                x_i = min(max(x_i, -half), half)
                x_f = min(max(x_f, x_i), min(half, x_i + params.V * params.T))
                traj = make_hfh(params, x_i, x_f, _feasible_ti(params, x_i, x_f, t_i))
                ev = TrajectoryEvaluator.exact(params, traj, cfg.n_slots)
                return _solve_p5_on(
                    params, ev, profile, cfg.mu_tol, cfg.mu_max_iter
                ).r

            x_i, x_f, t_i = best_traj.x_I, best_traj.x_F, best_traj.t_I
            for _ in range(cfg.refine_rounds):
                x_i, _ = golden_max(
                    lambda v: value_of(v, x_f, t_i),
                    max(-half, x_i - dx), min(x_f, x_i + dx),
                    iters=cfg.golden_iters, xtol=1e-7 * params.D,
                )
                x_f, _ = golden_max(
                    lambda v: value_of(x_i, v, t_i),
                    max(x_i, x_f - dx),
                    min(min(half, x_i + params.V * params.T), x_f + dx),
                    iters=cfg.golden_iters, xtol=1e-7 * params.D,
                )
                t_i, _ = golden_max(
                    lambda v: value_of(x_i, x_f, v),
                    max(0.0, t_i - dt),
                    _feasible_ti(params, x_i, x_f, t_i + dt),
                    iters=cfg.golden_iters, xtol=1e-7 * params.T,
                )
                dx *= 0.2
                dt *= 0.2
            refined = make_hfh(params, x_i, x_f, _feasible_ti(params, x_i, x_f, t_i))
            ev = TrajectoryEvaluator.exact(params, refined, cfg.n_slots)
            res = _solve_p5_on(params, ev, profile, cfg.mu_tol, cfg.mu_max_iter)
            tie = cfg.tie_tol_rel * max(best_r, 1e-12)
            if res.r > best_r + tie or (
                res.r > best_r - tie and refined.span < best_traj.span - 1e-12
            ):
                best_r, best_traj = res.r, refined

    # Slot-count convergence check on the winner, then the reported solve.
    n = cfg.n_slots
    sol = _exact_solution(params, profile, best_traj, n, cfg, diagnostics)
    for _ in range(cfg.max_slot_doublings):
        finer = _exact_solution(params, profile, best_traj, 2 * n, cfg, diagnostics)
        if abs(finer.r - sol.r) < cfg.slot_doubling_tol * max(sol.r, 1e-12):
            break
        n *= 2
        sol = finer
    sol.diagnostics["search_best_r"] = best_r
    return sol


def trace_region(
    params: SystemParams,
    n_profiles: int = 33,
    cfg: SearchConfig = DEFAULT_CONFIG,
) -> RegionBoundary:
    """Boundary of the capacity region at uniformly spaced profiles.

    Profiles with alpha1 > alpha2 are obtained by mirroring the symmetric
    solve (index-exact), halving the work.
    """
    if n_profiles < 2:
        raise ValueError("need at least 2 profiles")
    denom = n_profiles - 1
    solved: dict[int, BoundarySolution] = {}
    for i in range(n_profiles):
        if i <= denom - i:
            solved[i] = solve_profile(params, RateProfile.of(i / denom), cfg)
    points = []
    seen = set()
    for i in range(n_profiles):
        sol = solved[i] if i in solved else mirror_solution(params, solved[denom - i])
        key = round(sol.profile.alpha1, 12)
        if key in seen:
            continue
        seen.add(key)
        points.append(sol)
    return RegionBoundary("sc", points, {"n_profiles": n_profiles})
