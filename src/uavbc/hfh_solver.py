"""General finite-speed finite-duration capacity solver.

For a fixed hover-fly-hover (HFH) trajectory the power/rate allocation (P5)
is convex; its profile-constrained optimum is the root of the rate imbalance
in a scalar weight mu in [0, 1] (the normalized dual weight of user 1),
where each weight decouples into independent per-slot full-power splits
with a closed form.  The root is found by safeguarded regula falsi
(Illinois), to a balance of `SearchConfig.mu_tol` = 1e-9, from the bracket
[0, 1] (or from a narrow one around a given weight); bracket ends on the
flat of the imbalance, where every slot gives all power to its stronger
user, move to the flat's edge.

The trajectory is searched over endpoint pairs (x_I, x_F): for fixed
endpoints, sharing the slack time between the two hovers is a time-share,
so the pair's rate set is convex and its profile value is one mu-root with
a blend across the bracket.  Per-weight tables of hover rates, weighted
hover rates and cumulative flight integrals (`pair_tables`; they depend on
the channel only, not on T, V or the profile, so they are cached per
channel and read-only) give every pair's value in a few vectorized passes
of flat gathers.  The global ranking is floored by the best value of a few
structural candidates (`_rank_floor`: an end at a user, a static hover, a
longest flight).  By weak duality each weight row the bisection visits
bounds a pair's value by its weighted rate, and a pair whose bound falls
below the floor leaves the bisection.  Every pair at the maximum stays and
runs the unfloored operations, so the pick is the unfloored one bit for
bit, from ~20% of the gathers; the pairs and the candidates are cached per
(D, V T) (`global_pairs`).  A best pair that hovers above both users
(-D/2 to D/2) with both hovers positive is placed in closed form: its
weight is 1/2, where SC serves the stronger user alone as TDMA does, and
the hover time is the root TDMA's hover-both family shares
(`_hover_both_pick`, `_hover_both_time`).  Any other best pair is zoomed
on local tables (the flight's whole grid cells that give one user all
power at every weight summed from a per-channel cell cache,
`grid_cells`, every other sub-cell integrated per weight), ranked
unfloored, and the best pick of the zoom is reported.  The static hovers
(x_I == x_F) are placed in closed form (`_best_hover`, also behind
`asymptotic.solve_v0`): the mirror fold leaves alpha1 <= alpha2, the
paper's static hover then lies on [0, D/2], nearer user 2, and there it
is one monotone root in the rate scale at a quadratic's vertex.  A
winning flight is reported with one P5 solve on `SearchConfig.n_slots`
slots, warm-started from the polish's weight bracket; nothing is tuned
to the slots and the slot count is not doubled.  A winning hover, like a
corner profile, is reported from its `fixed_boundary` point, the same
split in every slot, with no P5 (`_hover_solution`).

Every reported flight is evaluated with exact per-slot integration
(closed-form hover segments, Gauss nodes on flight segments cut at the
hover/flight switch times and at x = 0), and a reported hover's rates are
the closed form at its position, so emitted rate pairs are achievable to
quadrature precision and survive independent feasibility re-checks.
"""

from __future__ import annotations

import functools
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
    validate_least,
    validate_params,
)
from .errors import DiscretizationInvalid, InvalidParams
from .fixed_region import fixed_boundary
# golden_max is unread here; the benchmark tracer wraps it (ROADMAP item 4).
from .numerics import bisect_increasing, golden_max  # noqa: F401

_SQRT3 = math.sqrt(3.0)

# A flight replaces the best hover only when better by more than this
# (relative).
_TIE_TOL_REL = 1e-6


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the trajectory search and of P5's weight root search.

    The search reads n_slots (2,048 schedule slots; a winning flight's P5
    is its only slotted solve), mu_tol and mu_max_iter; n_slots and
    mu_max_iter below 1, and mu_tol outside (0, inf), raise InvalidParams.
    P5 runs regula falsi on the weight mu until the rates are balanced to
    mu_tol (relative to r), within mu_max_iter weight solves.  An infinite
    mu_tol would stop it after one solve, and one not above 0 would never
    be met.  grid_xi, grid_xf, grid_ti,
    hover_grid, golden_iters, refine_rounds and rerank_top are accepted but
    not read: the benchmark's small test config still sets them.
    """

    n_slots: int = 2048           # schedule slots of reported solutions
    grid_xi: int = 17
    grid_xf: int = 17
    grid_ti: int = 9
    hover_grid: int = 257
    refine_rounds: int = 3
    golden_iters: int = 30
    mu_tol: float = 1e-9          # |r1/a1 - r2/a2| <= mu_tol * r at exit
    mu_max_iter: int = 60         # weight solves per P5, bracket ends counted
    rerank_top: int = 16

    def __post_init__(self):
        validate_least(self, n_slots=1, mu_max_iter=1)
        if not 0.0 < self.mu_tol < math.inf:
            raise InvalidParams("mu_tol", f"SearchConfig.mu_tol must be in (0, inf), not {self.mu_tol}")


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
    d0, dP = _split_tests(frame, mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_star = np.minimum(np.maximum(d0 / (frame[5] * (mu - (1.0 - mu))), 0.0), Pbar)
    return np.where(d0 <= 0.0, 0.0, np.where(dP >= 0.0, Pbar, p_star))


def _split_tests(frame, mu):
    """`_strong_power`'s tests: d0 and dP, whose signs are the weighted
    derivative's at p_s = 0 and at Pbar."""
    strong2, hs, hw, cw, cs, _ = frame
    nu = 1.0 - mu
    a = np.where(strong2, nu, mu) * hs
    b = np.where(strong2, mu, nu) * hw
    return a - b, a * cw - b * cs


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

    def plateau(self):
        """Weights (lo, hi) between which every slot gives all power to its
        stronger user, so `solve_weight` returns one state on (lo, hi).

        `_strong_power` gives the strong user all power while dP >= 0: for
        mu <= hs*cw / (hs*cw + hw*cs) where user 2 is strong, and for
        mu >= hw*cs / (hs*cw + hw*cs) where user 1 is.  Both bounds meet at
        1/2 on tied gains, so lo <= 1/2 <= hi up to rounding.
        """
        strong2, hs, hw, cw, cs, _ = self.frame
        top, bottom = hs * cw, hw * cs
        total = top + bottom
        return (float(np.max(bottom[~strong2] / total[~strong2], initial=0.0)),
                float(np.min(top[strong2] / total[strong2], initial=1.0)))


@dataclass
class P5Result:
    """Profile-constrained allocation on a fixed trajectory."""

    r: float
    schedule: PowerSchedule
    rate_pair: RatePair
    mu: float
    iterations: int
    tie_break: bool = False  # the tied-gain blend of the final bracket fired
    unbalanced: bool = False  # the best iterate, off the balance, is reported


# Half-width of a warm-started P5 bracket around its guess, widened by
# _P5_WIDEN toward the root until it brackets; regula falsi points are kept
# off the bracket ends by _P5_MARGIN of its width.
_P5_WARM = 1e-4
_P5_WIDEN = 16.0
_P5_MARGIN = 0.01


def _solve_p5_on(params, ev: TrajectoryEvaluator, profile, mu_tol, max_iter, *, guess=None) -> P5Result:
    """Safeguarded regula falsi (Illinois) on the imbalance
    g(mu) = a2*r1 - a1*r2 of the weight-mu split, which is nondecreasing in
    mu, one `ev.solve_weight` per iterate; then the tie-break blend if
    needed.

    The bracket ends are solved first: [0, 1] cold, or [guess - _P5_WARM,
    guess + _P5_WARM] within [0, 1], widened toward the root until g <= 0
    at its lower end and g > 0 at its upper end.  Each false-position point
    is clamped to the inner 98% of the bracket, and the retained g of an end
    that survives two steps running is halved.  Stops once
    |r1/a1 - r2/a2| <= mu_tol * r, after max_iter solves (the ends counted),
    or when the bracket stops shrinking; returns the best iterate.

    g is flat on the open `ev.plateau()` interval.  An optimized flight often
    balances there, so its root lies just outside it, where a bracket end on
    the flat would keep its tiny g and regula falsi would crawl toward the
    root; so a point inside moves to the plateau's edge on the root's side,
    keeping its state, and a warm bracket widens past it.
    """
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

    def balanced(r, r1, r2):
        return abs(r1 / a1 - r2 / a2) <= mu_tol * max(r, 1e-12)

    # lo and hi are (mu, g, state) with g <= 0 at lo and g > 0 at hi; fL and
    # fH are the g values regula falsi uses, halved by the Illinois rule.
    lo = hi = None
    fL = fH = 0.0
    side = 0
    collapsed = False  # no weight lies strictly inside the final bracket
    flat_lo, flat_hi = ev.plateau()
    centre, width = (0.0, 1.0) if guess is None else (guess, _P5_WARM)
    mu = max(centre - width, 0.0)
    iterations = 0
    best = None
    while iterations < max_iter:
        iterations += 1
        state = ev.solve_weight(mu)
        _, _, r1, r2 = state
        r = profile.rate_scale(r1, r2)
        if best is None or r > best[0]:
            best = (r, mu, state)
        if balanced(r, r1, r2):
            break
        g = a2 * r1 - a1 * r2
        if flat_lo < mu < flat_hi:
            mu = flat_lo if g > 0.0 else flat_hi
        bracketed = lo is not None and hi is not None
        if g <= 0.0:
            lo, fL = (mu, g, state), g
            fH *= 0.5 if side < 0 else 1.0
            side = -1 if bracketed else 0
        else:
            hi, fH = (mu, g, state), g
            fL *= 0.5 if side > 0 else 1.0
            side = 1 if bracketed else 0
        if hi is None:  # the root lies above every weight solved so far
            if lo[0] == 1.0:
                break
            while lo[0] >= centre + width:
                width *= _P5_WIDEN
            mu = min(centre + width, 1.0)
        elif lo is None:  # and below
            if hi[0] == 0.0:
                break
            while hi[0] <= centre - width:
                width *= _P5_WIDEN
            mu = max(centre - width, 0.0)
        else:
            d = hi[0] - lo[0]
            mu = lo[0] + d * (fL / (fL - fH))
            mu = min(max(mu, lo[0] + _P5_MARGIN * d), hi[0] - _P5_MARGIN * d)
            if not lo[0] < mu < hi[0]:
                collapsed = True
                break

    r_best, mu_best, (p1, p2, r1, r2) = best
    if balanced(r_best, r1, r2):
        return P5Result(
            r_best, PowerSchedule(p1, p2), RatePair(r1, r2), mu_best, iterations
        )

    # The ratio jumped across the final bracket: this happens when slots with
    # tied gains flip all power between the users at a critical weight.  On
    # such slots the slot region degenerates to the line r1 + r2 = const, so
    # any blend of the bracket schedules is realized exactly by an
    # intermediate power; blend with the ratio-matching coefficient.  Gains
    # apart by more than that tie but so little that the ratio jumps where
    # no weight lies strictly inside the bracket (`collapsed`) are blended
    # too: the blend's rates are re-evaluated, so they are achievable.
    mixed = None
    if lo is not None and hi is not None:
        (mu_lo, gL, (p1L, p2L, _, _)), (mu_hi, gH, (p1H, p2H, _, _)) = lo, hi
        lam = gH / (gH - gL)
        p1_mix = p1L.copy()
        p2_mix = p2L.copy()
        differ = np.abs(p2L - p2H) > 1e-9 * Pbar
        tied = np.abs(ev.h1m - ev.h2m) <= 1e-9 * np.maximum(ev.h1m, ev.h2m)
        if collapsed or np.all(~differ | tied):
            h = ev.h2m[differ]
            r2L_slot = np.log1p(p2L[differ] * h)
            r2H_slot = np.log1p(p2H[differ] * h)
            target = lam * r2L_slot + (1.0 - lam) * r2H_slot
            p2_mix[differ] = np.expm1(target) / h
            p1_mix[differ] = Pbar - p2_mix[differ]
            r1m, r2m = ev.rates_for_powers(p1_mix, p2_mix)
            mixed = (profile.rate_scale(r1m, r2m), lam, (p1_mix, p2_mix, r1m, r2m))
    if mixed is not None and mixed[0] >= r_best:
        r_best, lam, (p1, p2, r1, r2) = mixed
        mu_best = lam * mu_lo + (1.0 - lam) * mu_hi
        return P5Result(
            r_best,
            PowerSchedule(p1, p2),
            RatePair(r1, r2),
            mu_best,
            iterations,
            tie_break=True,
        )
    # Conservative fallback: report the best achievable iterate.  Also
    # reached when the loop stopped on a balanced iterate but an unbalanced
    # one just outside the stop had the higher r.
    return P5Result(
        r_best, PowerSchedule(p1, p2), RatePair(r1, r2), mu_best, iterations,
        unbalanced=True,
    )


def solve_p5(
    params: SystemParams,
    disc: DiscretizedTrajectory,
    profile: RateProfile,
    cfg: SearchConfig = DEFAULT_CONFIG,
) -> P5Result:
    """Profile-constrained power allocation over a discretized trajectory.

    Regula falsi (Illinois) on the user-1 weight mu from a cold [0, 1]
    bracket: the aggregated r1 is nondecreasing in mu (and r2
    nonincreasing), so the rate ratio crosses alpha1:alpha2 exactly once.
    It stops once the rates are balanced to cfg.mu_tol.  Zero-weight
    profiles short-circuit to the corners.
    """
    validate_discretization(params, disc)
    ev = TrajectoryEvaluator.of(params, disc)
    return _solve_p5_on(params, ev, profile, cfg.mu_tol, cfg.mu_max_iter)


# ---------------------------------------------------------------------------
# endpoint-pair tables
# ---------------------------------------------------------------------------


# Position nodes (odd, so x = 0 is a node) and weights mu of the pair tables,
# Gauss sub-cells per node cell, and weight rows per build chunk (bounds the
# build's temporaries: per-row sub-cells up to _TABLE_CHUNK rows of a table
# spanning D).  The polish zooms in _POLISH_STAGES stages, each on
# _POLISH_SIDE positions around either endpoint at a quarter of the previous
# spacing and _POLISH_WEIGHTS weights across the widened bracket.
_PAIR_NODES = 201
_PAIR_WEIGHTS = 129
_SUBCELLS = 16
_TABLE_CHUNK = 8
_CHUNK_CELLS = _TABLE_CHUNK * (_PAIR_NODES - 1) * _SUBCELLS
_POLISH_SIDE = 9
_POLISH_WEIGHTS = 17
_POLISH_STAGES = 5
# A stage whose pick lands on its window's edge is repeated around the pick,
# at most this many times per search.
_POLISH_RECENTRES = 8
# A floored ranking drops a pair whose weighted-rate bound is below the
# floor by more than this (relative); the tables' row dominance holds to
# ~3e-15.
_PRUNE_REL = 1e-12


@dataclass(frozen=True)
class PairTables:
    """At weight mu[m] (row m) and sorted positions x: hover rates (h1, h2)
    in bps/Hz, cumulative flight integrals (c1, c2) of the per-position
    rates from x[0], in bps/Hz times meters, and the weighted hover rate
    g = mu*h1 + (1 - mu)*h2.  mu runs from 0 to 1: the first row gives all
    power to user 2 and the last all to user 1, so they hold the full-power
    rates (and c1 = 0 on the first row, c2 = 0 on the last).  `_rate_tables`
    builds them on segments cut at every x and at every node of the global
    grid (`_cell_grid`) between them: whole cells plain over the inner
    weights take the channel's cached sums (`grid_cells`), every other
    sub-cell is integrated per row, and sub-cells are summed in groups of
    _SUBCELLS before they are cumulated.  They depend on (beta0, H, D, Pbar)
    only; `pair_tables` caches one read-only set per channel."""

    x: np.ndarray
    mu: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    g: np.ndarray


@dataclass(frozen=True)
class GridCells:
    """What every table build reads of the global grid's cells, per channel.

    `grid` holds the global table's positions with x = 0; cell c spans
    [grid[c], grid[c + 1]].  `sums` holds each cell's `_group_sums` of its
    sub-cells' `_full_power_integrals` (users by cells), as the global
    build sums them.  `below` and `above` bound each cell's plain runs:
    at every weight up to `below[c]` each of its Gauss nodes gives all
    power to user 2 by `_tested_regime`, and from `above[c]` on all to
    user 1."""

    grid: np.ndarray
    sums: np.ndarray
    below: np.ndarray
    above: np.ndarray


def _gauss_nodes(params, a, b):
    """Half-widths of the sub-cells [a, b] and the split frame at their two
    Gauss nodes (last axis)."""
    half = 0.5 * (b - a)
    x = (a + half)[..., None] + (half / _SQRT3)[..., None] * np.array([-1.0, 1.0])
    return half, _split_frame(*gain_pair(params, x), params.Pbar)


def _gauss_integrals(half, frame, ps, Pbar):
    """2-point Gauss integrals of the per-position rates (r1, r2), in nats
    times meters, over the sub-cells of `_gauss_nodes` at strong-user
    powers ps (one per node)."""
    r1, r2 = _sc_rates(*frame[:3], ps, Pbar - ps)
    return half * (r1[..., 0] + r1[..., 1]), half * (r2[..., 0] + r2[..., 1])


def _regime(ps, Pbar, strong2):
    """The split's regime per user at strong-user power ps: 0 all power to
    user 2, 1 interior, 2 all to user 1.  Coded per user, not per strong
    user, so the power's jump from user 1 to user 2 at x = 0 is a step."""
    code = (ps > 0.0).astype(np.int8) + (ps >= Pbar)
    return np.where(strong2, 2 - code, code)


def _tested_regime(frame, mu):
    """`_regime` where `_strong_power`'s tests decide a corner, and 1
    elsewhere: the interior, or a corner that only the clamp of p* reaches.
    The tests are monotone in mu, also after rounding, so `_channel_cells`
    bounds the cells' plain runs with it."""
    d0, dP = _split_tests(frame, mu)
    up = d0 > 0.0
    code = up.astype(np.int8) + (up & (dP >= 0.0))
    return np.where(frame[0], 2 - code, code)


def _kinks(regime, adjacent):
    """Sub-cells (rows by sub-cells) whose two nodes, or whose node and its
    neighbour's, disagree on the regime; `adjacent` says which consecutive
    columns are neighbours."""
    step = (regime[:, :-1, 1] != regime[:, 1:, 0]) & adjacent
    kink = regime[..., 0] != regime[..., 1]
    kink[:, :-1] |= step
    kink[:, 1:] |= step
    return kink


def _group_sums(f):
    """Sums over the last axis, of length _SUBCELLS, added pairwise: element
    2i to 2i + 1, then the same on the halved axis, until one is left.  The
    order does not depend on the array's layout."""
    while f.shape[-1] > 1:
        f = f[..., ::2] + f[..., 1::2]
    return f[..., 0]


def _full_power_integrals(half, frame, Pbar):
    """2-point Gauss integrals of log1p(Pbar*h1) and log1p(Pbar*h2) over the
    sub-cells of `_gauss_nodes`: `_sc_rates`' r1 where user 1 has all power,
    and r2 where user 2 has, to the last bit."""
    strong2, hs, hw = frame[:3]
    l_strong, l_weak = np.log1p(Pbar * hs), np.log1p(Pbar * hw)
    l1, l2 = np.where(strong2, l_weak, l_strong), np.where(strong2, l_strong, l_weak)
    return half * (l1[..., 0] + l1[..., 1]), half * (l2[..., 0] + l2[..., 1])


def _pieces(params, a, b):
    """`_gauss_nodes` of the sub-cells [a, b], each cut into _SUBCELLS
    equal pieces (the second axis)."""
    piece = (b - a)[:, None] / _SUBCELLS
    a = a[:, None] + piece * np.arange(_SUBCELLS)
    return _gauss_nodes(params, a, a + piece)


def _cell_grid(D):
    """The global table's positions over [-D/2, D/2], with x = 0."""
    half = 0.5 * D
    return np.union1d(np.linspace(-half, half, _PAIR_NODES), [0.0])


def _subcells(lo, hi, D):
    """The sub-cells of the segments [lo, hi], at most
    D / ((_PAIR_NODES - 1) * _SUBCELLS) wide and equal within a segment:
    (segment, index in it, left edge, right edge) of each, in order."""
    gaps = hi - lo
    n_sub = np.ceil(gaps / D * (_PAIR_NODES - 1) * _SUBCELLS - 1e-9).clip(1).astype(int)
    ends = np.cumsum(n_sub)
    j = np.repeat(np.arange(len(n_sub)), n_sub)
    k = np.arange(ends[-1] if len(ends) else 0) - (ends - n_sub)[j]
    piece = (gaps / n_sub)[j]
    left = lo[j] + piece * k
    return j, k, left, np.where(k + 1 < n_sub[j], lo[j] + piece * (k + 1), hi[j])


def _rate_tables(params, x, mu) -> PairTables:
    """PairTables at sorted positions x and sorted weights mu, mu[0] = 0 and
    mu[-1] = 1, on the channel's `grid_cells`.

    Flight integrals use 2-point Gauss on sub-cells at most
    D / ((_PAIR_NODES - 1) * _SUBCELLS) wide, cut at every x, at x = 0 (the
    rates jump there) and at every node of the global grid between them, so
    the flight between two windows of positions runs over whole global
    cells.  A sub-cell whose Gauss nodes, or whose node and its touching
    neighbour's, disagree on the split's regime holds a kink and is
    integrated on _SUBCELLS pieces instead.  Each segment between cuts lies
    in one cell, so its at most _SUBCELLS sub-cells make one zero-padded
    group, summed by `_group_sums`, and the tables cumulate the group sums.

    A segment that is a whole global cell whose plain run (`GridCells`)
    holds the inner weights mu[1] .. mu[-2], between two such cells (or the
    table's end) of the same run, takes the cell's cached group sums for
    every row and no sub-cell pass.  At those weights every node of the
    cell and of its neighbours gives all power to the run's user, and
    where the split does so at both nodes the per-row integrals are that
    user's full-power ones to the last bit (zero for the other user): with
    no kink in the cell, the per-row build's sums.  Every other (open)
    sub-cell is integrated on every inner row.  The mu = 0 and 1 rows are
    one full-power pass: every node gives all power to user 2, or to user
    1, so the rows hold no kink.
    Chunks of rows bound the temporaries: at most _CHUNK_CELLS per-row
    sub-cell slots, and 4 * _TABLE_CHUNK rows.
    """
    Pbar = params.Pbar
    cells = grid_cells(params)
    grid = cells.grid
    inside = grid[np.searchsorted(grid, x[0], "right"):np.searchsorted(grid, x[-1])]
    cuts = np.union1d(x, inside)
    n_seg = len(cuts) - 1
    n = len(mu)
    # Rows of group sums after a zero column, cumulated at the end; every
    # segment lies in one cell, so it is one group.
    sums = np.zeros((2, n, n_seg + 1))
    # The whole cells summed from the cache, to user 1 where `up`.
    cell = np.minimum(np.searchsorted(grid, cuts[:-1]), len(grid) - 2)
    whole = (grid[cell] == cuts[:-1]) & (grid[cell + 1] == cuts[1:])
    runs = whole & np.array([mu[-2] <= cells.below[cell], mu[1] >= cells.above[cell]])
    both = runs.copy()  # with both neighbours (where there is one) in the run
    both[:, 1:] &= runs[:, :-1]
    both[:, :-1] &= runs[:, 1:]
    low, up = both
    kept = low | up
    at, g = 1 + np.flatnonzero(kept), cells.sums[:, cell[kept]]
    sums[0, -1, at], sums[1, 0, at] = g
    sums[:, 1:-1, at] = (g * np.array([up[kept], ~up[kept]]))[:, None]
    # The sub-cells of the other (open) segments, their slots in the open
    # segments' zero-padded groups, and which consecutive ones touch.
    open_ = np.flatnonzero(~kept)
    n_open = len(open_)
    j, k, left, right = _subcells(cuts[open_], cuts[open_ + 1], params.D)
    slot = j * _SUBCELLS + k
    adj = open_[j[1:]] - open_[j[:-1]] <= 1
    half, frame = _gauss_nodes(params, left, right)
    full = np.zeros((2, n_open * _SUBCELLS))
    full[:, slot] = _full_power_integrals(half, frame, Pbar)
    sums[0, -1, 1 + open_], sums[1, 0, 1 + open_] = _group_sums(full.reshape(2, n_open, _SUBCELLS))
    node_frame = _split_frame(*gain_pair(params, x), Pbar)
    nps = _strong_power(node_frame, mu[:, None], Pbar)
    out = np.empty((4, n, len(x)))
    out[0], out[1] = _sc_rates(*node_frame[:3], nps, Pbar - nps)

    step = min(4 * _TABLE_CHUNK, max(1, _CHUNK_CELLS // max(full.shape[1], 1)))
    for s in range(1, n - 1, step):
        rows = slice(s, min(s + step, n - 1))
        m = mu[rows, None]
        ps = _strong_power(frame, m[..., None], Pbar)
        f = np.zeros((2, len(m), n_open * _SUBCELLS))
        f[0][:, slot], f[1][:, slot] = _gauss_integrals(half, frame, ps, Pbar)
        r, c = np.nonzero(_kinks(_regime(ps, Pbar, frame[0]), adj))
        if r.size:
            k_half, k_frame = _pieces(params, left[c], right[c])
            k1, k2 = _gauss_integrals(k_half, k_frame, _strong_power(k_frame, m[r, :, None], Pbar), Pbar)
            f[0][r, slot[c]], f[1][r, slot[c]] = k1.sum(-1), k2.sum(-1)
        sums[:, rows, 1 + open_] = _group_sums(f.reshape(2, len(m), n_open, _SUBCELLS))
    out[2:] = np.cumsum(sums, axis=-1)[..., np.searchsorted(cuts, x)]
    h1, h2, c1, c2 = out / LOG2
    w = mu[:, None]
    return PairTables(x, mu, h1, h2, c1, c2, w * h1 + (1.0 - w) * h2)


def pair_tables(params: SystemParams) -> PairTables:
    """The search's tables: _PAIR_NODES positions over [-D/2, D/2] and
    _PAIR_WEIGHTS weights over [0, 1].  Built once per channel (beta0, H, D,
    Pbar) and shared: the arrays are read-only."""
    return _channel_tables(params.beta0, params.H, params.D, params.Pbar)


def grid_cells(params: SystemParams) -> GridCells:
    """The channel's `GridCells`, which every table build of the search
    reads.  Built once per channel (beta0, H, D, Pbar) and shared: the
    arrays are read-only."""
    return _channel_cells(params.beta0, params.H, params.D, params.Pbar)


@functools.lru_cache(maxsize=8)
def _channel_tables(beta0, H, D, Pbar) -> PairTables:
    """The global tables (1,039,800 bytes per channel), built on the
    channel's `GridCells`: segments are the global cells, and those plain
    over all 127 inner weights take their cached sums."""
    # The build reads no V or T, so any placeholder values serve.
    params = SystemParams(beta0, 1.0, H, D, Pbar, V=0.0, T=1.0)
    half = 0.5 * D
    x = np.linspace(-half, half, _PAIR_NODES)
    tables = _rate_tables(params, x, np.linspace(0.0, 1.0, _PAIR_WEIGHTS))
    for a in vars(tables).values():
        a.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=8)
def _channel_cells(beta0, H, D, Pbar) -> GridCells:
    """The global grid's `GridCells` (8,008 bytes per channel), from the
    sub-cells the global build integrates; built on the first table build,
    not at import."""
    params = SystemParams(beta0, 1.0, H, D, Pbar, V=0.0, T=1.0)
    grid = _cell_grid(D)
    cell, k, left, right = _subcells(grid[:-1], grid[1:], D)
    half, frame = _gauss_nodes(params, left, right)
    full = np.zeros((2, len(grid) - 1, _SUBCELLS))
    full[:, cell, k] = _full_power_integrals(half, frame, Pbar)
    # Per node, the last weight with all power to user 2 and the first with
    # all to user 1: the roots of `_strong_power`'s tests (dP then d0 where
    # user 2 is strong, d0 then dP where user 1 is), each moved toward 0 or
    # 1 until the tests, monotone in mu, confirm it, else 0 or 1, where
    # they always hold.
    strong2, hs, hw, cw, cs, _ = frame
    top, bottom = hs * cw, hw * cs
    bounds = np.array([np.where(strong2, top / (top + bottom), hw / (hs + hw)),
                       np.where(strong2, hs / (hs + hw), bottom / (top + bottom))])
    want = np.array([0, 2])[:, None, None]
    ends = np.array([0.0, 1.0])[:, None, None]
    for i in range(8):
        miss = _tested_regime(frame, bounds) != want
        bounds = np.where(miss, np.clip(bounds + (2.0 * ends - 1.0) * 2.0 ** (i - 50), 0.0, 1.0), bounds)
    to_user2, to_user1 = np.where(_tested_regime(frame, bounds) == want, bounds, ends)
    first = np.flatnonzero(k == 0)
    cells = GridCells(grid, _group_sums(full), np.minimum.reduceat(to_user2.min(axis=1), first),
                      np.maximum.reduceat(to_user1.max(axis=1), first))
    for a in vars(cells).values():
        a.flags.writeable = False
    return cells


def _pair_primal(params, tables, slack, m, i, j):
    """(r1, r2, at_i) of the pairs (x[i], x[j]) with hover time `slack` at
    weight index m: fly at the per-position split and hover all slack at the
    endpoint with the larger weighted hover rate (x[i] when at_i)."""
    t, n = tables, len(tables.x)
    mi, mj = m * n + i, m * n + j  # flat indices of (m, i) and (m, j)
    at_i = t.g.take(mi) >= t.g.take(mj)
    e = np.where(at_i, mi, mj)
    r1 = ((t.c1.take(mj) - t.c1.take(mi)) / params.V + slack * t.h1.take(e)) / params.T
    r2 = ((t.c2.take(mj) - t.c2.take(mi)) / params.V + slack * t.h2.take(e)) / params.T
    return r1, r2, at_i


def _batched_profile_values(params, pairs, profile, tables, floor=-np.inf):
    """Achievable profile values of many HFH endpoint pairs at once.

    Row (i, j) of `pairs` is the pair x[i] <= x[j] of `tables`, with a
    feasible flight.  The weight index is bisected for all pairs at once,
    and the primal points at the bracket ends (imbalance <= 0 at lo, > 0 at
    hi) are time-shared onto the profile ray.  Returns (value, t_I, lo, hi):
    the value, the hover time at x[i] that realizes it, and the bracket.

    A `floor` (a value some pair reaches) prunes the bisection.  The row-m
    primal maximizes the mu[m]-weighted rate, so by weak duality no point
    of a pair's rate set, its value's included, is worth more than
    (mu r1 + (1 - mu) r2) / (mu alpha1 + (1 - mu) alpha2) at any row the
    pair visits.  After every step but the last, a pair whose least such
    bound is below floor * (1 - _PRUNE_REL) leaves the bisection with value
    -inf, t_I nan and the whole bracket (0, len(mu) - 1).  The tables hold
    the row dominance to a few ulps, far inside _PRUNE_REL, so every pair
    at the maximum survives; survivors run the unfloored operations on
    their own entries, so their outputs, the argmax's included, are the
    unfloored ones bit for bit.
    """
    a1, a2 = profile.alpha1, profile.alpha2
    n_pairs, top = len(pairs), len(tables.mu) - 1
    i, j = pairs[:, 0], pairs[:, 1]
    slack = params.T - (tables.x[j] - tables.x[i]) / params.V
    lo = np.zeros(n_pairs, dtype=int)
    hi = np.full(n_pairs, top)
    steps = math.ceil(math.log2(top))
    cut = floor * (1.0 - _PRUNE_REL)
    live, bound = None, np.inf  # survivors' indices once any pair is pruned
    for step in range(steps):
        mid = (lo + hi) // 2
        r1, r2, at_i = _pair_primal(params, tables, slack, mid, i, j)
        take = a2 * r1 - a1 * r2 <= 0.0
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
        if cut > -np.inf and step < steps - 1:
            w = tables.mu.take(mid)
            bound = np.minimum(bound, (w * r1 + (1.0 - w) * r2) / (w * a1 + (1.0 - w) * a2))
            keep = np.flatnonzero(bound >= cut)
            if len(keep) < len(i):
                live = keep if live is None else live[keep]
                i, j, slack, lo, hi, bound = (a[keep] for a in (i, j, slack, lo, hi, bound))
    if not steps:  # two weights: no step ran, so take lo's point as the kept end
        mid, take = lo, np.ones(n_pairs, dtype=bool)
        r1, r2, at_i = _pair_primal(params, tables, slack, lo, i, j)
    # The last mid is one end of every bracket (lo where `take`, else hi):
    # gather only the other end.
    r1O, r2O, iO = _pair_primal(params, tables, slack, lo + hi - mid, i, j)
    g, gO = a2 * r1 - a1 * r2, a2 * r1O - a1 * r2O
    gL, gH = np.minimum(g, gO), np.maximum(g, gO)  # mu = 1 gives r2 = 0, so gH > 0 >= gL
    lam = gH / (gH - gL)
    # The kept end's and the other's shares: lam at lo, 1 - lam at hi.
    w, wO = np.where(take, lam, 1.0 - lam), np.where(take, 1.0 - lam, lam)
    r1 = w * r1 + wO * r1O
    r2 = w * r2 + wO * r2O
    t_I = slack * (w * at_i + wO * iO)
    value = np.minimum(r1 / a1, r2 / a2)
    if live is None:
        return value, t_I, lo, hi
    out = (np.full(n_pairs, -np.inf), np.full(n_pairs, np.nan), np.zeros(n_pairs, dtype=int),
           np.full(n_pairs, top))
    for full, part in zip(out, (value, t_I, lo, hi)):
        full[live] = part
    return out


def _reachable_pairs(params, x):
    """The pairs (i, j) of sorted positions x, i <= j, whose flight from
    x[i] to x[j] fits in T, each i's by rising j."""
    return _pairs_within(x, params.V * params.T)


def _pairs_within(x, reach):
    """`_reachable_pairs` with the reach V T given."""
    i, j = np.triu_indices(len(x))
    keep = x[j] - x[i] <= reach
    return np.stack([i[keep], j[keep]], axis=1)


def _floor_candidates(pairs, n):
    """The structural candidates among `pairs` (`_reachable_pairs` order)
    of n positions: an end at x = -+D/2, a static hover (x_I == x_F), or
    each x_I's longest reachable flight.  Most winners hover above a user
    or fly as far as T allows, so their best value is near the best
    pair's, from ~3% of the global table's pairs."""
    i, j = pairs[:, 0], pairs[:, 1]
    longest = np.append(i[1:] != i[:-1], True)
    return pairs[(i == 0) | (j == n - 1) | (i == j) | longest]


def global_pairs(params: SystemParams):
    """(pairs, candidates): the global table's `_reachable_pairs` and their
    `_floor_candidates`.  Built once per (D, V T) and shared: the arrays
    are read-only."""
    return _global_pairs(params.D, params.V * params.T)


@functools.lru_cache(maxsize=1)
def _global_pairs(D, reach):
    """`global_pairs` on `pair_tables`' positions (~340 kB at full reach).
    One entry: a region's solves share it, and a scan over (V, T) would
    only hold more memory."""
    half = 0.5 * D
    pairs = _pairs_within(np.linspace(-half, half, _PAIR_NODES), reach)
    out = pairs, _floor_candidates(pairs, _PAIR_NODES)
    for a in out:
        a.flags.writeable = False
    return out


def _rank_floor(params, candidates, profile, tables):
    """The best value over `candidates`, a floor for the global ranking."""
    return float(np.max(_batched_profile_values(params, candidates, profile, tables)[0]))


def _hover_both_time(profile, c, F1, F2, V, S):
    """The hover time t_I at x_I = -D/2 that balances the profile when the
    UAV hovers above user 1 for t_I, flies to user 2 and hovers there for
    S - t_I, serving each user alone where it is the stronger: the root of
    alpha2 (c t_I + F1/V) = alpha1 (F2/V + c (S - t_I)).  c is the served
    user's rate above itself (the same at both users), F1 user 1's flight
    integral over [-D/2, 0] and F2 user 2's over [0, D/2] (bps/Hz times
    meters).  Unclamped; None when c is not positive (no rate at all).
    SC at weight 1/2 (`_best_pair`) and TDMA (`tdma_solver._hover_both`)
    both place their hover-both point by it."""
    a1, a2 = profile.alpha1, profile.alpha2
    return (a1 * (F2 / V + c * S) - a2 * F1 / V) / (c * (a1 + a2)) if c > 0.0 else None


def _hover_both_pick(params, profile, tables):
    """(t_I, value) of the pair (-D/2, D/2) in closed form, or None unless
    both hovers are positive (0 < t_I < S, S = T - D/V).

    Why it is the pair's optimum: both hovers can be positive at a pair's
    optimum only where its two ends' weighted hover rates are equal (else
    all slack goes to the better end), and by the users' mirror symmetry
    the ends -+D/2 have equal ones at weight 1/2 only.  At weight 1/2 every
    position gives all power to its stronger user, so the mu = 1/2 row of
    the global tables (row _PAIR_WEIGHTS // 2, whose weight is exactly 1/2)
    holds the rates: c above either user and the flight integrals F1, F2 of
    `_hover_both_time`.  Every split of the slack between the hovers has
    the same weighted rate, so the balanced split, the root of
    `_hover_both_time`, reaches the pair's weight-1/2 bound: by weak
    duality it is the pair's exact optimum, with mu* = 1/2.

    Why no pair near it is better: by the envelope theorem, moving an end x
    with hover time t > 0 changes the value at the rate
    t g'(x) / (T (mu* alpha1 + (1 - mu*) alpha2)), g the weight-mu* hover
    rate.  Here g = C_strong / 2, which peaks exactly above the users, so
    the value is stationary at (-D/2, D/2), and as g rises toward each user
    for the weights near 1/2 that nearby pairs balance at, moving either end
    inward (both hovers stay positive) lowers the value.  So none of the
    pairs the zoom would try, a few grid steps around the ends, beats it."""
    m = _PAIR_WEIGHTS // 2
    h1, h2 = tables.h1[m], tables.h2[m]
    F1, F2 = tables.c1[m, -1] - tables.c1[m, 0], tables.c2[m, -1] - tables.c2[m, 0]
    V, S = params.V, params.T - (tables.x[-1] - tables.x[0]) / params.V
    t_I = _hover_both_time(profile, h1[0], F1, F2, V, S)
    if t_I is None or not 0.0 < t_I < S:
        return None
    r1 = (F1 / V + t_I * h1[0] + (S - t_I) * h1[-1]) / params.T
    r2 = (F2 / V + t_I * h2[0] + (S - t_I) * h2[-1]) / params.T
    return float(t_I), float(min(r1 / profile.alpha1, r2 / profile.alpha2))


def _best_pair(params, profile, tables):
    """The best feasible pair of the global `tables` (`pair_tables(params)`),
    then polished.  A pick that hovers above both users (-D/2 to D/2) with
    both hovers positive is placed in closed form (`_hover_both_pick`: its
    weight is exactly 1/2).  Any other pick is zoomed in _POLISH_STAGES
    stages of local tables around it.  A stage whose pick lands on the edge
    of its endpoint's window (not at -+D/2) is repeated around that pick at
    the same spacing, up to _POLISH_RECENTRES times in all: the optimum lies
    outside the window, and a finer window would shrink away from it.  Each
    stage centres on the previous stage's pick, but a stage's best can fall
    below an earlier one, so the best pick of all stages is reported.
    Returns (x_I, x_F, t_I, value, polished value, bracket): the reported
    pick's endpoints and hover time, the table pick's value, then the
    reported pick's value and the weights (mu_lo, mu_hi) its value blends,
    (1/2, 1/2) in closed form."""
    half = 0.5 * params.D
    offsets = (tables.x[1] - tables.x[0]) * (np.arange(_POLISH_SIDE) - _POLISH_SIDE // 2)
    stage = recentres = 0
    best = None
    while stage <= _POLISH_STAGES:
        if stage:
            centres = (x_I, x_F)
            pos = np.union1d(
                np.clip(x_I + offsets * 0.25 ** stage, -half, half),
                np.clip(x_F + offsets * 0.25 ** stage, -half, half),
            )
            w = mu_hi - mu_lo  # widened bracket, with mu = 0 and 1 as sentinels
            mu = np.linspace(max(mu_lo - w, 0.0), min(mu_hi + w, 1.0), _POLISH_WEIGHTS)
            tables = _rate_tables(params, pos, np.union1d([0.0, 1.0], mu))
            pairs = _reachable_pairs(params, tables.x)
            # Only the global ranking is floored: on the polish tables (~170
            # pairs) the candidate ranking costs more than the pruning saves.
            floor = -np.inf
        else:
            pairs, candidates = global_pairs(params)
            floor = _rank_floor(params, candidates, profile, tables)
        x, mu = tables.x, tables.mu
        value, t_I, lo, hi = _batched_profile_values(params, pairs, profile, tables, floor)
        k = int(np.argmax(value))
        i, j = pairs[k]
        x_I, x_F, mu_lo, mu_hi = x[i], x[j], mu[lo[k]], mu[hi[k]]
        if best is None or value[k] >= best[0]:
            best = (value[k], x_I, x_F, t_I[k], mu_lo, mu_hi)
        if not stage:
            pair_value = float(value[k])
            if i == 0 and j == len(x) - 1:
                pick = _hover_both_pick(params, profile, tables)
                if pick is not None:
                    return float(x_I), float(x_F), pick[0], pair_value, pick[1], (0.5, 0.5)
        else:
            reach = offsets[-1] * 0.25 ** stage * (1.0 - 1e-9)
            if recentres < _POLISH_RECENTRES and any(
                abs(p - c) >= reach and abs(p) < half for p, c in zip((x_I, x_F), centres)
            ):
                recentres += 1
                continue
        stage += 1
    value, x_I, x_F, t_I, mu_lo, mu_hi = map(float, best)
    return x_I, x_F, t_I, pair_value, value, (mu_lo, mu_hi)


# ---------------------------------------------------------------------------
# outer trajectory search
# ---------------------------------------------------------------------------


def _hover_value(params, x, profile, points=None):
    """The rate scale of `fixed_boundary` at x, whose point is kept in
    `points` (by x) when given."""
    point = fixed_boundary(params, x, profile)
    if points is not None:
        points[x] = point
    return profile.rate_scale(point.rate_pair.r1, point.rate_pair.r2)


def _best_hover(params, profile):
    """The best static hover (x, `_hover_value` at x, its `fixed_boundary`
    point) on [0, D/2] for a non-corner profile, in closed form.

    On [0, D/2] user 2 is strong, so the rates (alpha1 v, alpha2 v) are
    achievable at x exactly when user 2's power b / h2(x) leaves user 1
    its rate: Q_v(x) = (a - 1) d1(x) + a b d2(x) <= Pbar beta0, with
    a = 2^(alpha1 v), b = 2^(alpha2 v) - 1, d_k(x) = H^2 + (x - x_k)^2.
    Q_v is a convex quadratic in x and increases with v, so the hover value
    is quasi-concave, and its maximum is the root v* of
    min_x Q_v = Pbar beta0, at the clamped vertex
    x* = (D/2) (a b - (a - 1)) / (a b + (a - 1)).  The bracket
    [0, peak_rate / max(alpha1, alpha2)] keeps 2^(alpha v) finite for
    either orientation of the profile.

    The half restriction: at -y the mirrored condition (user 1 strong)
    exceeds Q_v(y) by (2^(alpha2 v) - 2^(alpha1 v)) (d1(y) - d2(y)), which
    is >= 0 for y >= 0 when alpha1 <= alpha2, so no hover on x < 0 beats
    the best on x >= 0.
    """
    half, H2 = 0.5 * params.D, params.H * params.H
    a1, a2 = profile.alpha1 * LOG2, profile.alpha2 * LOG2

    def vertex(v):
        """(x*, Q_v(x*)): Q_v's minimum over [0, D/2] and where it is."""
        am1 = math.expm1(a1 * v)                  # a - 1
        ab = (am1 + 1.0) * math.expm1(a2 * v)     # a b
        den = ab + am1                            # 0 at v = 0 only
        x = min(max(half * (ab - am1) / den, 0.0), half) if den > 0.0 else half
        return x, am1 * ((x + half) ** 2 + H2) + ab * ((x - half) ** 2 + H2)

    budget = params.Pbar * params.beta0
    top = params.peak_rate / max(profile.alpha1, profile.alpha2)
    # No bracket of doubles takes 2,100 halvings: the bisection ends at the last bit.
    v = bisect_increasing(lambda v: vertex(v)[1] - budget, 0.0, top, iters=2100)
    x = vertex(v)[0]
    points = {}
    r = _hover_value(params, x, profile, points)
    return x, r, points[x]


def _exact_solution(params, profile, traj, n_slots, cfg, diagnostics, guess=None):
    disc = discretize(params, traj, n_slots)
    res = _solve_p5_on(
        params, TrajectoryEvaluator.exact(params, traj, n_slots), profile,
        cfg.mu_tol, cfg.mu_max_iter, guess=guess,
    )
    validate_discretization(params, disc)
    diag = dict(diagnostics)
    diag.update(n_slots=n_slots, mu_iterations=res.iterations, tie_break=res.tie_break,
                unbalanced=res.unbalanced)
    return BoundarySolution(
        profile, res.rate_pair, res.r, traj, res.schedule, res.mu, diag
    )


def _hover_solution(params, profile, x, point, cfg, diagnostics) -> BoundarySolution:
    """Hover at x the whole flight with the split of `fixed_boundary`'s
    `point` at x in every slot: the fixed-location boundary point, with no
    P5.  mu is the weight at which that split is stationary,
    h2 (1 + ps h1) / (h2 (1 + ps h1) + h1 (1 + ps h2)) with ps the strong
    user's power (1/2 at tied gains), or 0 or 1 at the corners."""
    h1, h2 = gain_pair(params, x)
    ps = point.p2 if h2 >= h1 else point.p1
    top = h2 * (1.0 + ps * h1)
    mu = float(profile.alpha2 == 0.0) if profile.is_corner else top / (top + h1 * (1.0 + ps * h2))
    n, pair = cfg.n_slots, point.rate_pair
    return BoundarySolution(profile, pair, profile.rate_scale(pair.r1, pair.r2),
                            make_hfh(params, x, x, params.T),
                            PowerSchedule(np.full(n, point.p1), np.full(n, point.p2)), mu,
                            dict(diagnostics, n_slots=n))


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
) -> BoundarySolution:
    """Boundary point of the capacity region for one rate profile.

    Searches the HFH family: the best static hover (`_best_hover`, in
    closed form on [0, D/2]; alpha1 > alpha2 is solved as its mirror),
    then (for V > 0) the best endpoint pair of `pair_tables(params)`,
    polished by `_best_pair`: in closed form at weight 1/2 when it hovers
    above both users with both hovers positive, else zoomed on local
    tables.  A polished pair better than the hover by more than
    `_TIE_TOL_REL` is solved once with the exact P5 on `cfg.n_slots`
    slots, warm-started at the midpoint of the pick's weight bracket (1/2
    in closed form), and replaces the hover when that r, too, is better by
    more than the tie.
    Otherwise the hover is reported from its `fixed_boundary` point
    (`_hover_solution`), as is a corner profile from the served user's
    position, so a solve makes at most one P5 solve, and only for a
    flight.  Diagnostics report the hover value, the
    table pick's value, the polished value, how the pair was polished
    (`polish`: "hover_both" in closed form, else "zoom"), the P5 solve
    count (`p5_calls`) and its weight solves (`weight_solves`).  Raises InvalidParams for
    out-of-range params.
    """
    validate_params(params)
    if profile.is_corner:
        x = params.user_position(2 if profile.alpha1 == 0.0 else 1)
        return _hover_solution(params, profile, x, fixed_boundary(params, x, profile), cfg,
                               {"corner": True})
    if profile.alpha1 > profile.alpha2:
        mirrored = solve_profile(params, profile.mirrored(), cfg)
        return mirror_solution(params, mirrored)

    diagnostics: dict = {}
    x_h, r_h, point = _best_hover(params, profile)
    diagnostics["hover_r"] = r_h
    p5_calls = weight_solves = 0

    sol = None
    if params.V > 0.0:
        x_I, x_F, t_I, pair_value, polished, bracket = _best_pair(
            params, profile, pair_tables(params)
        )
        diagnostics.update(pair_value=pair_value, polish_value=polished,
                           polish="hover_both" if bracket[0] == bracket[1] else "zoom")
        tie = _TIE_TOL_REL * max(r_h, 1e-12)
        # Slots only lose rate against the continuous value, so a polished
        # value within the tie of the hover cannot replace it.
        if polished > r_h + tie:
            slack = params.T - (x_F - x_I) / params.V
            flight = _exact_solution(params, profile, make_hfh(params, x_I, x_F, min(t_I, slack)),
                                     cfg.n_slots, cfg, diagnostics, guess=0.5 * sum(bracket))
            p5_calls, weight_solves = 1, flight.diagnostics["mu_iterations"]
            if flight.r > r_h + tie:
                sol = flight

    if sol is None:
        sol = _hover_solution(params, profile, x_h, point, cfg, diagnostics)
    sol.diagnostics.update(p5_calls=p5_calls, weight_solves=weight_solves)
    return sol


def trace_region(
    params: SystemParams,
    n_profiles: int = 33,
    cfg: SearchConfig = DEFAULT_CONFIG,
) -> RegionBoundary:
    """Boundary of the capacity region at uniformly spaced profiles.

    Every `solve_profile` call shares the channel's cached pair tables.
    Profiles with alpha1 > alpha2 are obtained by mirroring the symmetric
    solve (index-exact), halving the work.
    """
    validate_params(params)
    # `solve_profile` is looked up at call time, so a wrapper installed on
    # the module sees every solve.
    return trace(
        "sc",
        n_profiles,
        lambda profile: solve_profile(params, profile, cfg),
        lambda sol: mirror_solution(params, sol),
    )
