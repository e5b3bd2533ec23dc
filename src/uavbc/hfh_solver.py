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
of flat gathers; the best pair is zoomed on local tables (one full-power
pass each, per-weight integrals only where the weight changes the split,
and the flight's whole grid cells summed from a per-channel cell cache,
`grid_cells`), and the best pick of the zoom is reported.  A dense hover
scan covers the x_I == x_F family exactly (`_best_hover`, also behind
`asymptotic.solve_v0`).
The mirror fold leaves alpha1 <= alpha2, and the paper's static hover then
lies nearer user 2, the one with the larger rate target, so only the grid's
x >= 0 half is scanned: a vectorized screen, the near-best positions scored
by `fixed_boundary`, and a golden refinement.  The winner is reported with
one P5 solve on `SearchConfig.n_slots` slots, a flight's warm-started from
the zoom's weight bracket; nothing is tuned to the slots and the slot count
is not doubled.

Every reported solution is evaluated with exact per-slot integration
(closed-form hover segments, Gauss nodes on flight segments cut at the
hover/flight switch times and at x = 0), so emitted rate pairs are
achievable to quadrature precision and survive independent feasibility
re-checks.
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
    validate_params,
)
from .errors import DiscretizationInvalid
from .fixed_region import fixed_boundary
from .numerics import golden_max

_SQRT3 = math.sqrt(3.0)

# A flight replaces the best hover only when better by more than this
# (relative).
_TIE_TOL_REL = 1e-6

# Hover grid positions whose `_hover_screen` value is within this (relative)
# of the best screen value are scored exactly by `_hover_value`.
_HOVER_WINDOW = 1e-9


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the trajectory search and of P5's weight root search.

    The search reads n_slots (2,048: the reported P5 is its only slotted
    solve), hover_grid, mu_tol and mu_max_iter.  hover_grid points span
    [-D/2, D/2]; the static-hover search scans those at x >= 0 (129 of the
    default 257, which `asymptotic.solve_v0` uses).  P5 runs regula falsi on
    the weight mu until the rates are balanced to mu_tol (relative to r),
    within mu_max_iter weight solves.  grid_xi, grid_xf, grid_ti,
    golden_iters, refine_rounds and rerank_top are accepted but not read:
    the benchmark's small test config still sets them.
    """

    n_slots: int = 2048           # schedule slots of reported solutions
    grid_xi: int = 17
    grid_xf: int = 17
    grid_ti: int = 9
    hover_grid: int = 257         # static-hover grid over [-D/2, D/2]
    refine_rounds: int = 3
    golden_iters: int = 30
    mu_tol: float = 1e-9          # |r1/a1 - r2/a2| <= mu_tol * r at exit
    mu_max_iter: int = 60         # weight solves per P5, bracket ends counted
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
    # intermediate power; blend with the ratio-matching coefficient.
    mixed = None
    if lo is not None and hi is not None:
        (mu_lo, gL, (p1L, p2L, _, _)), (mu_hi, gH, (p1H, p2H, _, _)) = lo, hi
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


@dataclass(frozen=True)
class PairTables:
    """At weight mu[m] (row m) and sorted positions x: hover rates (h1, h2)
    in bps/Hz, cumulative flight integrals (c1, c2) of the per-position
    rates from x[0], in bps/Hz times meters, and the weighted hover rate
    g = mu*h1 + (1 - mu)*h2.  mu runs from 0 to 1: the first row gives all
    power to user 2 and the last all to user 1, so they hold the full-power
    rates (and c1 = 0 on the first row, c2 = 0 on the last).  `_rate_tables`
    builds them on segments cut at every x and at every node of the global
    grid (`_cell_grid`) between them: one full-power pass, per-row integrals
    only where the weight matters, and sub-cells summed in groups of
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
    """What a table build reads of the global grid's cells, per channel.

    `grid` holds the global table's positions with x = 0; cell c spans
    [grid[c], grid[c + 1]].  `sums` holds each cell's `_group_sums` of its
    sub-cells' `_full_power_integrals` (users by cells), as the global
    build sums them.  `below` and `above` bound each cell's plain runs:
    at every weight up to `below[c]` each of its Gauss nodes gives all
    power to user 2 by `_tested_regime`, and from `above[c]` on all to
    user 1.  A cell whose strong user is not its neighbours' (beside
    x = 0) has no run: -inf and +inf."""

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


def _regime(ps, Pbar):
    """The split's regime at strong-user power ps: 0 all power to the weak
    user, 1 interior, 2 all to the strong one."""
    return (ps > 0.0).astype(np.int8) + (ps >= Pbar)


def _tested_regime(frame, mu):
    """`_regime` where `_strong_power`'s tests decide a corner, and 1
    elsewhere: the interior, or a corner that only the clamp of p* reaches."""
    d0, dP = _split_tests(frame, mu)
    up = d0 > 0.0
    return up.astype(np.int8) + (up & (dP >= 0.0))


def _kinks(regime, adjacent=True):
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


def _rate_tables(params, x, mu, cells: Optional[GridCells] = None) -> PairTables:
    """PairTables at sorted positions x and sorted weights mu, mu[0] = 0 and
    mu[-1] = 1.

    Flight integrals use 2-point Gauss on sub-cells at most
    D / ((_PAIR_NODES - 1) * _SUBCELLS) wide, cut at every x, at x = 0 (the
    rates jump there) and at every node of the global grid between them, so
    the flight between two windows of positions runs over whole global
    cells.  A sub-cell whose Gauss nodes, or whose node and its neighbour's,
    disagree on the split's regime holds a kink and is integrated on
    _SUBCELLS pieces instead.  Each segment between cuts lies in one cell,
    so its at most _SUBCELLS sub-cells make one zero-padded group, summed
    by `_group_sums`, and the tables cumulate the group sums.

    One full-power pass integrates log1p(Pbar*h1) and log1p(Pbar*h2) over
    every sub-cell.  Where the split gives all power to user k at both
    nodes, these are its `_sc_rates` integrals to the last bit: the
    full-power one for user k, zero for the other.  At mu = 0 every node
    gives all power to user 2 and at mu = 1 to user 1, so those two rows
    are this pass: the strong user changes at x = 0, but the allocation
    does not, so the rows hold no kink.

    The rows between form one block, classified at its first and last
    weight by `_strong_power`'s two tests (`_tested_regime`).  Every
    operation in those tests is monotone in mu, also after rounding, so at
    each node the regime they decide is monotone in mu.  A sub-cell they
    put on one corner regime (all power to one user) at both nodes, with
    one strong user and no kink, at both weights therefore keeps them at
    every weight between: its integrals are full-power ones throughout.
    Only the other (live) sub-cells are integrated per row, and kinks are
    sought only among them and their neighbours.  So every entry equals
    the per-row build's to the last bit.  Chunks of rows bound the
    temporaries: at most _CHUNK_CELLS per-row sub-cell slots, and
    4 * _TABLE_CHUNK rows.

    With the channel's `cells` (`grid_cells`), a segment that is a whole
    global cell whose plain run holds the block's weights, between two
    such cells (or the table's end) of the same run, takes the cell's
    cached group sums for every row and no sub-cell pass: its sub-cells
    are flat and none is next to a live one, so the build without `cells`
    gives the same sums.  Every other segment is built as above, with
    kink steps sought only between sub-cells that touch; every entry
    equals the build without `cells` to the last bit.
    """
    Pbar = params.Pbar
    grid = _cell_grid(params.D) if cells is None else cells.grid
    inside = grid[np.searchsorted(grid, x[0], "right"):np.searchsorted(grid, x[-1])]
    cuts = np.union1d(x, inside)
    n_seg = len(cuts) - 1
    n = len(mu)
    # Rows of group sums after a zero column, cumulated at the end; every
    # segment lies in one cell, so it is one group.
    sums = np.zeros((2, n, n_seg + 1))
    # The whole cells summed from the cache, to user 1 where `up`.
    kept = np.zeros(n_seg, dtype=bool)
    if cells is not None:
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
    strong2 = frame[0]
    full = np.zeros((2, n_open * _SUBCELLS))
    full[:, slot] = _full_power_integrals(half, frame, Pbar)
    sums[0, -1, 1 + open_], sums[1, 0, 1 + open_] = _group_sums(full.reshape(2, n_open, _SUBCELLS))
    node_frame = _split_frame(*gain_pair(params, x), Pbar)
    nps = _strong_power(node_frame, mu[:, None], Pbar)
    out = np.empty((4, n, len(x)))
    out[0], out[1] = _sc_rates(*node_frame[:3], nps, Pbar - nps)

    regime = _tested_regime(frame, mu[[1, -2], None, None])
    corner = regime[0, :, 0]
    flat = (corner != 1) & np.all(regime == corner[:, None], axis=(0, 2))
    flat &= (strong2[:, 0] == strong2[:, 1]) & ~np.any(_kinks(regime, adj), axis=0)
    # The full-power rows with the flat sub-cells' other user zeroed.
    to_user1 = np.zeros(n_open * _SUBCELLS, dtype=bool)
    to_user1[slot] = (corner == 2) != strong2[:, 0]
    f_flat = full * np.array([to_user1, ~to_user1])
    # Per-row sub-cells, and with their neighbours the only kink candidates,
    # with their slots in the groups that hold them.
    live = np.flatnonzero(~flat)
    near = ~flat
    near[:-1] |= ~flat[1:] & adj
    near[1:] |= ~flat[:-1] & adj
    near = np.flatnonzero(near)
    adjacent = (near[1:] == near[:-1] + 1) & adj[near[:-1]]
    at_live = np.searchsorted(near, live)
    live_half, live_frame, live_at = half[live], tuple(a[live] for a in frame), slot[live]
    step = min(4 * _TABLE_CHUNK, max(1, _CHUNK_CELLS // max(f_flat.shape[1], 1)))
    for s in range(1, n - 1, step):
        rows = slice(s, min(s + step, n - 1))
        m = mu[rows, None]
        f = np.repeat(f_flat[:, None], len(m), axis=1)
        live_ps = _strong_power(live_frame, m[..., None], Pbar)
        f[0][:, live_at], f[1][:, live_at] = _gauss_integrals(live_half, live_frame, live_ps, Pbar)
        reg = np.repeat(regime[:1, near], len(m), axis=0)
        reg[:, at_live] = _regime(live_ps, Pbar)
        r, c = np.nonzero(_kinks(reg, adjacent))
        if r.size:
            k_half, k_frame = _pieces(params, left[near[c]], right[near[c]])
            k1, k2 = _gauss_integrals(k_half, k_frame, _strong_power(k_frame, m[r, :, None], Pbar), Pbar)
            f[0][r, slot[near[c]]], f[1][r, slot[near[c]]] = k1.sum(-1), k2.sum(-1)
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
    tables = _rate_tables(params, x, np.linspace(0.0, 1.0, _PAIR_WEIGHTS), grid_cells(params))
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
    want = np.array([np.where(strong2, 2, 0), np.where(strong2, 0, 2)])
    ends = np.array([0.0, 1.0])[:, None, None]
    for i in range(8):
        miss = _tested_regime(frame, bounds) != want
        bounds = np.where(miss, np.clip(bounds + (2.0 * ends - 1.0) * 2.0 ** (i - 50), 0.0, 1.0), bounds)
    to_user2, to_user1 = np.where(_tested_regime(frame, bounds) == want, bounds, ends)
    # Cells with one strong user, their neighbours' (not beside x = 0).
    first = np.flatnonzero(k == 0)
    side = np.logical_and.reduceat(strong2.all(axis=1), first)
    one = side | ~np.logical_or.reduceat(strong2.any(axis=1), first)
    one[1:] &= side[1:] == side[:-1]
    one[:-1] &= side[:-1] == side[1:]
    cells = GridCells(grid, _group_sums(full),
                      np.where(one, np.minimum.reduceat(to_user2.min(axis=1), first), -np.inf),
                      np.where(one, np.maximum.reduceat(to_user1.max(axis=1), first), np.inf))
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
    slack = params.T - (tables.x[j] - tables.x[i]) / params.V
    lo = np.zeros(len(pairs), dtype=int)
    hi = np.full(len(pairs), len(tables.mu) - 1)
    steps = math.ceil(math.log2(len(tables.mu) - 1))
    for _ in range(steps):
        mid = (lo + hi) // 2
        r1, r2, at_i = _pair_primal(params, tables, slack, mid, i, j)
        take = a2 * r1 - a1 * r2 <= 0.0
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    if not steps:  # two weights: no step ran, so take lo's point as the kept end
        mid, take = lo, np.ones(len(pairs), dtype=bool)
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
    return np.minimum(r1 / a1, r2 / a2), t_I, lo, hi


def _best_pair(params, profile, tables):
    """The best feasible pair of `tables`, zoomed in _POLISH_STAGES stages of
    local tables around it.  A stage whose pick lands on the edge of its
    endpoint's window (not at -+D/2) is repeated around that pick at the
    same spacing, up to _POLISH_RECENTRES times in all: the optimum lies
    outside the window, and a finer window would shrink away from it.  Each
    stage centres on the previous stage's pick, but a stage's best can fall
    below an earlier one, so the best pick of all stages is reported.
    Returns (x_I, x_F, t_I, value, dual, polished value, bracket): the
    reported pick's endpoints and hover time, the table pick's value and
    its dual, the min over the table's weights of
    D(mu) / (mu a1 + (1 - mu) a2), then the reported pick's value and the
    weights (mu_lo, mu_hi) its value blends.  The dual bounds, to quadrature
    accuracy, only the schedules of the unpolished table pick: the polish
    moves to other pairs, so it is no bound on the reported r."""
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
            tables = _rate_tables(params, pos, np.union1d([0.0, 1.0], mu), grid_cells(params))
        x, mu = tables.x, tables.mu
        i, j = np.triu_indices(len(x))
        keep = x[j] - x[i] <= params.V * params.T
        pairs = np.stack([i[keep], j[keep]], axis=1)
        value, t_I, lo, hi = _batched_profile_values(params, pairs, profile, tables)
        k = int(np.argmax(value))
        i, j = pairs[k]
        x_I, x_F, mu_lo, mu_hi = x[i], x[j], mu[lo[k]], mu[hi[k]]
        if best is None or value[k] >= best[0]:
            best = (value[k], x_I, x_F, t_I[k], mu_lo, mu_hi)
        if not stage:
            slack = params.T - (x[j] - x[i]) / params.V
            r1, r2, _ = _pair_primal(params, tables, slack, np.arange(len(mu)), i, j)
            a1, a2 = profile.alpha1, profile.alpha2
            dual = np.min((mu * r1 + (1.0 - mu) * r2) / (mu * a1 + (1.0 - mu) * a2))
            pair_value = value[k]
        else:
            reach = offsets[-1] * 0.25 ** stage * (1.0 - 1e-9)
            if recentres < _POLISH_RECENTRES and any(
                abs(p - c) >= reach and abs(p) < half for p, c in zip((x_I, x_F), centres)
            ):
                recentres += 1
                continue
        stage += 1
    value, x_I, x_F, t_I, mu_lo, mu_hi = map(float, best)
    return x_I, x_F, t_I, float(pair_value), float(dual), value, (mu_lo, mu_hi)


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


def _hover_screen(params, xs, profile):
    """`_hover_value` at all positions xs at once (non-corner profile).

    Bisects `fixed_boundary`'s power balance at every position together,
    to the last bit as it does, so the two agree to rounding.
    """
    Pbar = params.Pbar
    strong2, hs, hw = _split_frame(*gain_pair(params, xs), Pbar)[:3]
    a_s = np.where(strong2, profile.alpha2, profile.alpha1)
    a_w = np.where(strong2, profile.alpha1, profile.alpha2)
    lo, hi = np.zeros(len(xs)), np.full(len(xs), Pbar)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = a_w * np.log1p(mid * hs) <= a_s * np.log1p((Pbar - mid) * hw / (mid * hw + 1.0))
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    ps = 0.5 * (lo + hi)
    r1, r2 = _sc_rates(strong2, hs, hw, ps, Pbar - ps)
    return np.minimum(r1 / profile.alpha1, r2 / profile.alpha2) / LOG2


def _hover_argmax(params, xs, profile, points=None):
    """(i, `_hover_value` at xs[i]) for the first exact maximum over xs.

    Only the positions within `_HOVER_WINDOW` of the screen's best are
    scored exactly, in grid order (their points kept in `points`).
    """
    screen = _hover_screen(params, xs, profile)
    near = np.flatnonzero(screen >= screen.max() * (1.0 - _HOVER_WINDOW))
    vals = [_hover_value(params, x, profile, points) for x in xs[near]]
    k = int(np.argmax(vals))
    return int(near[k]), vals[k]


def _best_hover(params, profile, n):
    """The best static hover (x, `_hover_value` at x, its `fixed_boundary`
    point) for a non-corner profile with alpha1 <= alpha2: `_hover_argmax`
    over the points of an n-point grid on [-D/2, D/2] from its middle on
    (x >= 0), golden-refined over a grid step either side; the grid point
    stays if that ends lower."""
    xs = np.linspace(-0.5 * params.D, 0.5 * params.D, n)[n // 2:]
    points = {}
    i, r_grid = _hover_argmax(params, xs, profile, points)
    x, r = golden_max(
        lambda x: _hover_value(params, x, profile, points),
        xs[max(i - 1, 0)],
        xs[min(i + 1, len(xs) - 1)],
        iters=60,
        xtol=1e-10 * params.D,
    )
    if r_grid > r:
        x, r = xs[i], r_grid
    return float(x), r, points[x]


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
) -> BoundarySolution:
    """Boundary point of the capacity region for one rate profile.

    Searches the HFH family: the best static hover (`_best_hover` on the
    x >= 0 points of the cfg.hover_grid grid; alpha1 > alpha2 is solved
    as its mirror), then (for V > 0) the best endpoint pair of
    `pair_tables(params)`, zoomed on local tables.  A polished pair better
    than the hover by more than `_TIE_TOL_REL` is solved once with the
    exact P5 on `cfg.n_slots` slots, warm-started at the midpoint of the
    pick's weight bracket, and replaces the hover when that r, too, is
    better by more than the tie; otherwise the hover is solved the same
    way, cold.  So a solve makes at most two P5 solves.  Diagnostics report the hover value, the table
    pick's value and its dual (`table_pick_dual`, a bound on that
    unpolished pair only, not on r), the polished value, the winner's
    search value (`search_best_r`: the hover value, or the flight's r), the
    P5 solve count (`p5_calls`) and the weight solves of all of them
    (`weight_solves`).  Raises InvalidParams for out-of-range params.
    """
    validate_params(params)
    if profile.is_corner:
        return _corner_solution(params, profile, cfg)
    if profile.alpha1 > profile.alpha2:
        mirrored = solve_profile(params, profile.mirrored(), cfg)
        return mirror_solution(params, mirrored)

    diagnostics: dict = {}
    x_h, r_h, _ = _best_hover(params, profile, cfg.hover_grid)
    best_r = r_h
    diagnostics["hover_r"] = r_h
    p5_calls = weight_solves = 0

    sol = None
    if params.V > 0.0:
        x_I, x_F, t_I, pair_value, dual, polished, bracket = _best_pair(
            params, profile, pair_tables(params)
        )
        diagnostics.update(pair_value=pair_value, table_pick_dual=dual, polish_value=polished)
        tie = _TIE_TOL_REL * max(r_h, 1e-12)
        # Slots only lose rate against the continuous value, so a polished
        # value within the tie of the hover cannot replace it.
        if polished > r_h + tie:
            slack = params.T - (x_F - x_I) / params.V
            flight = _exact_solution(params, profile, make_hfh(params, x_I, x_F, min(t_I, slack)),
                                     cfg.n_slots, cfg, diagnostics, guess=0.5 * sum(bracket))
            p5_calls += 1
            weight_solves += flight.diagnostics["mu_iterations"]
            if flight.r > r_h + tie:
                sol, best_r = flight, flight.r

    if sol is None:
        sol = _exact_solution(params, profile, make_hfh(params, x_h, x_h, params.T),
                              cfg.n_slots, cfg, diagnostics)
        p5_calls += 1
        weight_solves += sol.diagnostics["mu_iterations"]
    sol.diagnostics.update(search_best_r=best_r, p5_calls=p5_calls, weight_solves=weight_solves)
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
