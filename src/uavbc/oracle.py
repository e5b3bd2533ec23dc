"""Independent brute-force verifiers for the solver outputs.

Nothing here assumes the hover-fly-hover structure or the closed forms under
test: trajectories are certified by a time-position dynamic program over a
free grid, power splits by exhaustive scans, boundary intersections by
sign-change bisection on power-bisected curves, and every emitted solution
can be re-integrated against the defining rate inequalities at higher
quadrature resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from .core import (
    LOG2,
    RatePair,
    RateProfile,
    SystemParams,
    channel_gain,
    gain_pair,
    log2_1p,
)
from .errors import GridTooCoarse, NoSignChange
from .fixed_region import fixed_region_sample
from .hfh_solver import (
    BoundarySolution,
    PowerSchedule,
    _sc_rates,
    _split_frame,
    _strong_power,
    _time_windows,
    positions_at,
)
from .numerics import bisect_increasing
from .tdma_solver import TdmaSolution


@dataclass(frozen=True)
class DpConfig:
    """Discretization of the dynamic-program trajectory oracle.

    mu_steps controls the resolution of the per-slot power-split menu; the
    accumulated user-1 rate is quantized to r1_bins levels.
    """

    n_slots: int = 64
    n_positions: int = 51
    mu_steps: int = 11
    r1_bins: int = 8192


@dataclass
class FeasibilityReport:
    """Violations of the rate/speed/power constraints (all normalized).

    rate_violation is in bps/Hz, speed_violation relative to V*dt motion
    budgets plus the span bound, power_violation relative to Pbar.  A
    solution passes when every violation is at most ``tolerance``.
    """

    rate_violation: float
    speed_violation: float
    power_violation: float
    passed: bool
    tolerance: float
    integrals: tuple


# ---------------------------------------------------------------------------
# dynamic-program trajectory oracle
# ---------------------------------------------------------------------------

_MAX_MOVE_STEPS = 127  # largest grid-step move an int8 move code holds


def validate_dp_config(params: SystemParams, cfg: DpConfig) -> DpConfig:
    if cfg.n_slots < 2:
        raise GridTooCoarse(
            f"DP needs at least 2 slots, got {cfg.n_slots}; use more slots"
        )
    if cfg.n_positions < 3:
        raise GridTooCoarse(
            f"DP needs at least 3 positions, got {cfg.n_positions}; "
            "use more positions"
        )
    spacing = params.D / (cfg.n_positions - 1)
    delta = params.T / cfg.n_slots
    if params.V > 0.0 and spacing > params.V * delta + 1e-9:
        raise GridTooCoarse(
            f"grid spacing {spacing:.3g} m exceeds per-slot motion "
            f"{params.V * delta:.3g} m; motion not representable"
        )
    steps = math.floor(params.V * delta / spacing + 1e-12)
    if steps > _MAX_MOVE_STEPS:
        raise GridTooCoarse(
            f"per-slot motion spans {steps} grid steps, more than the "
            f"{_MAX_MOVE_STEPS} an int8 move code holds; use more slots "
            "or fewer positions"
        )
    return cfg


def _split_menu(params, xs, n_entries):
    """Per-position menu of superposition rate pairs over full-power splits.

    Sweeps the strong user's power over a uniform grid; returns per-slot
    averaged contributions (r1, r2) of shape (P, S).
    """
    frame = _split_frame(*gain_pair(params, xs), params.Pbar)
    ps = np.linspace(0.0, params.Pbar, n_entries)[None, :]
    r1, r2 = _sc_rates(*(f[:, None] for f in frame[:3]), ps, params.Pbar - ps)
    return r1 / LOG2, r2 / LOG2


def _path_profile_value(params, positions, profile, iters=60):
    """Profile-constrained rate scale achievable on a fixed position path."""
    frame = _split_frame(*gain_pair(params, positions), params.Pbar)
    a1, a2 = profile.alpha1, profile.alpha2

    def agg(mu):
        ps = _strong_power(frame, mu, params.Pbar)
        r1, r2 = _sc_rates(*frame[:3], ps, params.Pbar - ps)
        return float(r1.mean() / LOG2), float(r2.mean() / LOG2)

    if a1 == 0.0:
        return agg(0.0)[1]
    if a2 == 0.0:
        return agg(1.0)[0]
    lo, hi = 0.0, 1.0
    best = 0.0
    pair_lo, pair_hi = agg(lo), agg(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        r1, r2 = agg(mid)
        best = max(best, profile.rate_scale(r1, r2))
        if a2 * r1 - a1 * r2 <= 0.0:
            lo, pair_lo = mid, (r1, r2)
        else:
            hi, pair_hi = mid, (r1, r2)
    # Rate-level time sharing between the bracket schedules closes any jump.
    gL = a2 * pair_lo[0] - a1 * pair_lo[1]
    gH = a2 * pair_hi[0] - a1 * pair_hi[1]
    if gL <= 0.0 <= gH and gH - gL > 0.0:
        lam = gH / (gH - gL)
        r1 = lam * pair_lo[0] + (1.0 - lam) * pair_hi[0]
        r2 = lam * pair_lo[1] + (1.0 - lam) * pair_hi[1]
        best = max(best, profile.rate_scale(r1, r2))
    return best


def dp_trajectory_oracle(params: SystemParams, profile: RateProfile, cfg: DpConfig):
    """Brute-force profile-constrained optimum over free gridded trajectories.

    Dynamic program over (slot, grid position, quantized accumulated user-1
    rate) maximizing the accumulated user-2 rate; per-slot rewards come from
    a power-split menu and transitions allow any motion |dx| <= V*delta,
    with the value function linearly interpolated between grid positions so
    full-speed moves are not rounded away.  The user-1 axis is floored into
    bins, which only understates the claim.  The backtracked path is finally
    re-scored with its own exact profile-constrained allocation, so the
    returned value is achieved by a concrete speed-feasible path.  No HFH
    structure is imposed.

    The slot loop relies on three invariants.  After n slots only bins below
    min(B, 1 + n * max(dk)) can be finite, so both stages run on that
    frontier; bins past it stay -inf, which never wins.  Every comparison is
    a strict ``>`` taken in a fixed order (stay, shifts +-1 ... +-m, then the
    two interpolated moves; menu entries in index order), so the first
    candidate wins a tie.  Moves are int8 codes, so a slot moves at most 127
    grid steps (``validate_dp_config`` enforces it).

    Returns (r, positions): the certified rate scale and the winning path
    positions (length cfg.n_slots).
    """
    validate_dp_config(params, cfg)
    half = 0.5 * params.D
    P = cfg.n_positions
    N = cfg.n_slots
    xs = np.linspace(-half, half, P)
    a1, a2 = profile.alpha1, profile.alpha2
    spacing = xs[1] - xs[0]
    delta = params.T / N

    n_menu = max(2 * cfg.mu_steps + 1, 9)
    menu_r1, menu_r2 = _split_menu(params, xs, n_menu)

    if profile.is_corner:
        # all power to one user: the best path greedily hovers above them
        per_slot = (menu_r2 if a1 == 0.0 else menu_r1).max(axis=1)
        j = int(np.argmax(per_slot))
        positions = np.full(N, xs[j])
        return float(per_slot[j]), positions

    B = cfg.r1_bins
    q = params.peak_rate / (B - 1)
    dk = np.minimum((menu_r1 / N / q).astype(np.int64), B - 1)  # floored bins
    dr2 = (menu_r2 / N).astype(np.float32)
    step = int(dk.max())

    reach = params.V * delta
    m = int(math.floor(reach / spacing + 1e-12))
    frac = reach / spacing - m
    # predecessor offsets live in an int8; pick the finest representable unit
    move_scale = max(1, 120 // (m + 1))
    neg = np.float32(-np.inf)
    # motion offers (int8 code, near row shift, far row shift) in tie-break
    # order; shift t takes predecessor j - t, and an interpolated offer
    # weighs (1 - frac) of its near shift against frac of its far one, which
    # stays -inf where either is
    offers = [(-sign * s * move_scale, sign * s, sign * s)
              for s in range(1, min(m, P - 1) + 1) for sign in (1, -1)]
    if frac > 1e-12 and m + 1 < P:
        off = int((m + frac) * move_scale)
        offers += [(-sign * off, sign * m, sign * (m + 1)) for sign in (1, -1)]
    w_near, w_far = np.float32(1.0 - frac), np.float32(frac)

    value = np.full((P, B), neg, dtype=np.float32)
    value[:, 0] = 0.0  # before the first slot: free position, nothing accrued
    new = np.full_like(value, neg)
    win, cand, tmp = (np.empty_like(value) for _ in range(3))
    mask = np.empty((P, B), dtype=bool)
    # cells no candidate reaches read 0 (stay, menu entry 0) for the backtrack
    moves = np.zeros((N, P, B), dtype=np.int8)
    splits = np.zeros((N, P, B), dtype=np.int8)
    bins = np.arange(B)[None, :]

    for n in range(N):
        hi = min(B, 1 + n * step)  # bins reachable after n slots
        hi_new = min(B, hi + step)
        w = win[:, :hi]
        if n == 0:
            w[:] = value[:, :hi].max(axis=0)  # initial position is free
        else:
            # motion stage: best predecessor within |dx| <= V*delta
            np.copyto(w, value[:, :hi])
            for code, t, t_far in offers:
                lo, up = max(t_far, 0), P + min(t_far, 0)  # rows with predecessors
                src = value[lo - t:up - t, :hi]
                if t != t_far:
                    src = np.multiply(src, w_near, out=cand[lo:up, :hi])
                    src += np.multiply(value[lo - t_far:up - t_far, :hi], w_far,
                                       out=tmp[lo:up, :hi])
                hit = np.greater(src, win[lo:up, :hi], out=mask[lo:up, :hi])
                np.copyto(win[lo:up, :hi], src, where=hit)
                np.copyto(moves[n, lo:up, :hi], np.int8(code), where=hit)

        # reward stage: choose a power split, advancing the user-1 bin by the
        # row's constant dk[j, s]
        new[:, :hi_new] = neg
        for j in range(P):
            for s, d in enumerate(dk[j].tolist()):
                L = min(hi, hi_new - d)
                c = np.add(w[j, :L], dr2[j, s], out=cand[j, :L])
                hit = np.greater(c, new[j, d:d + L], out=mask[j, :L])
                np.copyto(new[j, d:d + L], c, where=hit)
                np.copyto(splits[n, j, d:d + L], np.int8(s), where=hit)
        value, new = new, value

    with np.errstate(invalid="ignore"):
        objective = np.minimum((bins * q) / a1, value / a2)
    j_best, k_best = np.unravel_index(int(np.nanargmax(objective)), objective.shape)

    # backtrack: continuous positions, choices looked up at the nearest grid row
    positions = np.empty(N)
    x = float(xs[j_best])
    k = int(k_best)
    for n in range(N - 1, -1, -1):
        positions[n] = x
        j = int(round((x + half) / spacing))
        s = int(splits[n, j, k])
        k = k - int(dk[j, s])
        if n > 0:
            x = x + float(moves[n, j, k]) * spacing / move_scale
            x = min(max(x, -half), half)

    r = _path_profile_value(params, positions, profile)
    return r, positions


def path_shape_stats(positions, spacing_tol):
    """(unidirectional, hover_clusters) diagnostics of an oracle path.

    A path is unidirectional when it never reverses direction by more than
    ``spacing_tol`` (grid noise); either direction counts, since the region
    is symmetric and the oracle may serve the users in either order.  Hover
    clusters are maximal runs of >= 2 slots within ``spacing_tol`` of each
    other.
    """
    pos = np.asarray(positions, dtype=float)
    diffs = np.diff(pos)
    unidirectional = bool(
        np.all(diffs >= -spacing_tol) or np.all(diffs <= spacing_tol)
    )
    clusters = 0
    run = 1
    for d in diffs:
        if abs(d) <= spacing_tol:
            run += 1
        else:
            if run >= 2:
                clusters += 1
            run = 1
    if run >= 2:
        clusters += 1
    return unidirectional, clusters


# ---------------------------------------------------------------------------
# power-split and intersection oracles
# ---------------------------------------------------------------------------


def grid_power_oracle(params: SystemParams, x: float, mu: float, n: int = 10001):
    """Exhaustive scan of the weighted-rate split at one position.

    Evaluates mu*r1 + (1-mu)*r2 on n equispaced full-power splits and
    returns the argmax (p1, p2).
    """
    h1, h2 = gain_pair(params, x)
    p1 = np.linspace(0.0, params.Pbar, n)
    p2 = params.Pbar - p1
    if h2 >= h1:
        r1 = np.log1p(p1 * h1 / (p2 * h1 + 1.0)) / LOG2
        r2 = np.log1p(p2 * h2) / LOG2
    else:
        r1 = np.log1p(p1 * h1) / LOG2
        r2 = np.log1p(p2 * h2 / (p1 * h2 + 1.0)) / LOG2
    k = int(np.argmax(mu * r1 + (1.0 - mu) * r2))
    return float(p1[k]), float(p2[k])


def _curve_r2_by_bisection(params, x, r1_target):
    """Boundary value r2(r1) of C_f(x) via inner bisection on power."""
    h1, h2 = gain_pair(params, x)
    Pbar = params.Pbar
    if h2 >= h1:
        # r1 decreases with the strong user's power p2
        def gap(p2):
            return r1_target - log2_1p((Pbar - p2) * h1 / (p2 * h1 + 1.0))

        p2 = bisect_increasing(gap, 0.0, Pbar, iters=100)
        return log2_1p(p2 * h2)

    def gap(p1):
        return log2_1p(p1 * h1) - r1_target

    p1 = bisect_increasing(gap, 0.0, Pbar, iters=100)
    return log2_1p((Pbar - p1) * h2 / (p1 * h2 + 1.0))


def numeric_intersection_oracle(params: SystemParams, xB: float, xC: float) -> RatePair:
    """Crossing of the two fixed-location boundaries by sign-change bisection.

    Scans r1 over (0, r1_max(xB)); the boundary values come from inner power
    bisections, independent of any closed-form elimination.  Raises
    NoSignChange when the curves fail to cross (uniqueness violation).
    """
    if not xC < xB:
        raise ValueError("expected xC < xB")
    h1B, _ = gain_pair(params, xB)
    r1_hi = log2_1p(params.Pbar * h1B) * (1.0 - 1e-12)

    def diff(r1):
        return _curve_r2_by_bisection(params, xB, r1) - _curve_r2_by_bisection(
            params, xC, r1
        )

    lo = 1e-12
    if diff(lo) <= 0.0 or diff(r1_hi) >= 0.0:
        raise NoSignChange(f"boundaries of x={xB} and x={xC} do not cross")
    r1 = bisect_increasing(lambda r: -diff(r), lo, r1_hi, iters=100)
    return RatePair(r1, _curve_r2_by_bisection(params, xB, r1))


def hull_region_containment(
    params: SystemParams,
    xI: float,
    xF: float,
    x: float,
    n_samples: int = 256,
    tol: float = 1e-9,
) -> bool:
    """Direct convex-hull membership test of C_f(x) in Conv(C_f(xI) u C_f(xF)).

    Builds the hull from dense boundary samples of both end regions (plus
    the axes corners) and checks every sampled boundary point of C_f(x)
    against the hull facets.
    """
    if xF - xI <= 1e-12 * params.D:
        return True
    pts = []
    for loc in (xI, xF):
        for bp in fixed_region_sample(params, loc, n_samples):
            pts.append((bp.rate_pair.r1, bp.rate_pair.r2))
    pts.append((0.0, 0.0))
    hull = ConvexHull(np.array(pts))
    eqs = hull.equations  # rows: a, b, c with a*r1 + b*r2 + c <= 0 inside
    slack = tol * max(1.0, params.peak_rate)
    for bp in fixed_region_sample(params, x, n_samples):
        p = np.array([bp.rate_pair.r1, bp.rate_pair.r2, 1.0])
        if np.any(eqs @ p > slack):
            return False
    return True


# ---------------------------------------------------------------------------
# feasibility re-check
# ---------------------------------------------------------------------------

_SIMPSON9 = np.array([1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0]) / 24.0
_OFFS9 = np.linspace(0.0, 1.0, 9)


def _dual_uplink_powers(p1, p2, h1, h2):
    """Map superposition powers to the dual uplink powers (same total).

    The superposition rate pair satisfies the polymatroid inequalities with
    these powers, with equality on all three.
    """
    strong2 = h2 >= h1
    ps = np.where(strong2, p2, p1)
    pw = np.where(strong2, p1, p2)
    hw = np.where(strong2, h1, h2)
    qw = pw / (1.0 + ps * hw)
    qs = ps * (1.0 + qw * hw)
    q1 = np.where(strong2, qw, qs)
    q2 = np.where(strong2, qs, qw)
    return q1, q2


def _inequality_integrals(params, traj, p1_slots, p2_slots):
    """Time-averaged right-hand sides of the three rate inequalities.

    Integrates piecewise: hover portions exactly, flight portions with a
    9-point composite Simpson rule per slot piece (the integrand is smooth
    inside a piece once the flight is cut at the x = 0 crossing).
    """
    n = len(p1_slots)
    T = params.T
    delta = T / n
    t0 = np.arange(n) * delta
    t1 = t0 + delta
    ts_list, w_list, slot_list = [], [], []
    for lo_edge, hi_edge, x_h in _time_windows(params, traj):
        lo = np.maximum(t0, lo_edge)
        hi = np.minimum(t1, hi_edge)
        dur = hi - lo
        if x_h is not None:
            # the position is constant on a hover: one node at its center
            idx = np.nonzero(dur > 0.0)[0]
            ts_list.append(np.full(idx.size, 0.5 * (lo_edge + hi_edge)))
            w_list.append(dur[idx])
            slot_list.append(idx)
            continue
        idx = np.nonzero(dur > 1e-15 * T)[0]
        nodes = lo[idx, None] + dur[idx, None] * _OFFS9[None, :]
        ts_list.append(nodes.ravel())
        w_list.append((dur[idx, None] * _SIMPSON9[None, :]).ravel())
        slot_list.append(np.repeat(idx, len(_OFFS9)))

    ts = np.concatenate(ts_list)
    w = np.concatenate(w_list) / T
    slots = np.concatenate(slot_list)
    xs = positions_at(params, traj, ts)
    h1, h2 = gain_pair(params, xs)
    p1 = np.asarray(p1_slots)[slots]
    p2 = np.asarray(p2_slots)[slots]
    q1, q2 = _dual_uplink_powers(p1, p2, h1, h2)
    s1 = q1 * h1
    s2 = q2 * h2
    I1 = float(w @ np.log1p(s1)) / LOG2
    I2 = float(w @ np.log1p(s2)) / LOG2
    I3 = float(w @ np.log1p(s1 + s2)) / LOG2
    return I1, I2, I3


def _speed_violation(params, traj, n_samples):
    ts = np.linspace(0.0, params.T, n_samples)
    xs = positions_at(params, traj, ts)
    dt = ts[1] - ts[0]
    budget = params.V * dt
    step = float(np.max(np.abs(np.diff(xs)))) if len(xs) > 1 else 0.0
    over_speed = max(step - budget, 0.0) / max(budget, 1e-12) if params.V > 0 else (
        step / max(params.D, 1e-12)
    )
    half = 0.5 * params.D
    over_span = max(float(np.max(np.abs(xs))) - half, 0.0) / params.D
    return max(over_speed, over_span)


def check_feasibility(params: SystemParams, solution, tolerance: float = 1e-6) -> FeasibilityReport:
    """Re-verify a solution against the defining rate/speed/power constraints.

    The claimed rate pair is compared with an independent re-integration of
    the three polymatroid inequalities at 4x the schedule's slot resolution
    (the schedule's superposition powers are mapped to their dual uplink
    witness, which carries the same total power).  Nothing is raised:
    violations are reported.
    """
    if isinstance(solution, BoundarySolution):
        traj = solution.trajectory
        sched: PowerSchedule = solution.schedule
        # independent quadrature resolution: split every slot in four
        p1 = np.repeat(np.asarray(sched.p1, dtype=float), 4)
        p2 = np.repeat(np.asarray(sched.p2, dtype=float), 4)
        I1, I2, I3 = _inequality_integrals(params, traj, p1, p2)
        r1, r2 = solution.rate_pair.r1, solution.rate_pair.r2
        rate_violation = max(r1 - I1, r2 - I2, (r1 + r2) - I3, 0.0)
        tot = np.asarray(sched.p1) + np.asarray(sched.p2)
        power_violation = max(
            float(np.max(tot) - params.Pbar),
            -float(np.min(sched.p1)),
            -float(np.min(sched.p2)),
            0.0,
        ) / params.Pbar
        speed_violation = _speed_violation(params, traj, 4 * sched.n_slots + 1)
    elif isinstance(solution, TdmaSolution):
        # exactly one user scheduled at a time with full power, so the power
        # budget holds by construction and the sum inequality is I1 + I2
        traj = solution.trajectory
        I1, I2, I3 = _tdma_integrals(params, traj, solution.t1)
        r1, r2 = solution.rate_pair.r1, solution.rate_pair.r2
        rate_violation = max(r1 - I1, r2 - I2, (r1 + r2) - I3, 0.0)
        power_violation = 0.0
        speed_violation = _speed_violation(params, traj, 8193)
    else:
        raise TypeError(f"unsupported solution type {type(solution)!r}")

    passed = (
        rate_violation <= tolerance
        and speed_violation <= tolerance
        and power_violation <= tolerance
    )
    return FeasibilityReport(
        rate_violation, speed_violation, power_violation, passed, tolerance,
        (I1, I2, I3),
    )


def _tdma_integrals(params, traj, t1):
    """Independent Simpson re-integration of the TDMA rate windows."""

    def window(user, a, b):
        if b <= a:
            return 0.0
        fly_start, fly_end = traj.t_I, params.T - traj.t_F
        total = 0.0
        hov = max(min(b, fly_start) - a, 0.0)
        if hov > 0.0:
            total += hov * log2_1p(params.Pbar * channel_gain(params, traj.x_I, user))
        lo, hi = max(a, fly_start), min(b, fly_end)
        if hi > lo:
            ts = lo + (hi - lo) * np.linspace(0.0, 1.0, 257)
            xs = positions_at(params, traj, ts)
            vals = np.log1p(params.Pbar * channel_gain(params, xs, user))
            wts = np.ones(257)
            wts[1:-1:2] = 4.0
            wts[2:-1:2] = 2.0
            total += (hi - lo) / (256 * 3.0) * float(wts @ vals) / LOG2
        hov = b - max(a, fly_end)
        if hov > 0.0:
            total += hov * log2_1p(params.Pbar * channel_gain(params, traj.x_F, user))
        return total

    I1 = window(1, 0.0, t1) / params.T
    I2 = window(2, t1, params.T) / params.T
    return I1, I2, I1 + I2
