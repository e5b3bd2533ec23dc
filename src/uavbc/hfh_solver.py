"""General finite-speed finite-duration capacity solver.

For a fixed hover-fly-hover (HFH) trajectory the power/rate allocation (P5)
is convex; its profile-constrained optimum is the root of the rate
imbalance in a scalar weight mu in [0, 1] (the normalized dual weight of
user 1), where each weight decouples into per-slot full-power splits with a
closed form.  `_solve_p5_on` finds it by safeguarded regula falsi
(Illinois) to a balance of `SearchConfig.mu_tol`.

The trajectory is searched over endpoint pairs (x_I, x_F): sharing a pair's
slack between its two hovers is a time-share, so its profile value is one
mu-root with a blend across the bracket.  Per-channel tables of hover
rates and cumulative flight integrals (`pair_tables`; the integrals are in
closed form between each weight's regime changes, `_piece_integrals`, from
the antiderivative TDMA shares, `_full_power_antiderivative`) value every
pair in a few vectorized gathers (`_batched_profile_values`).  The global
ranking is floored by a few structural candidates (`_rank_floor`), and by
weak duality blocks of nodes (`_block_bounds`), then single pairs, whose
weighted-rate bound falls below the floor drop out; the pick is the
unfloored one bit for bit.

The pick fixes its HFH family, which the first-order conditions place: a
static pick's family optimum is the static hover (`_best_hover`: on
[0, D/2], after the mirror fold to alpha1 <= alpha2, one monotone root at a
quadratic's vertex, also behind `asymptotic.solve_v0`); hovering above both
users with both hovers positive is placed in closed form at weight 1/2
(`_hover_both_pick`); and a fly-hover, hover-fly or pure flight by
`_family_root`: a hovering end at a stationary point of the weighted hover
rate, and a free end where both ends' weighted rates are equal, a root
`numerics.illinois_root` (TDMA's too) finds one member a step, each valued
exactly, in scalar closed form, by `_pair_value`.

A winning flight is reported with one P5 solve on `SearchConfig.n_slots`
slots, warm-started from its pair's weight bracket, evaluated with exact
per-slot integration (closed-form hovers, Gauss nodes on flight segments
cut at the hover/flight switches and at x = 0).  A winning hover, like a
corner profile, is reported from its `fixed_boundary` point, the same
split in every slot, with no P5 (`_hover_solution`).  Emitted rate pairs
are achievable to quadrature precision and survive independent
feasibility re-checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

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
# golden_max is unread here; the benchmark tracer wraps it (ROADMAP item 2).
from .numerics import FOC_XTOL, bisect_increasing, golden_max, illinois_root  # noqa: F401

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
    signs at the ends (d0 at 0, dP at Pbar) decide the clamping:
    nonpositive at 0 means all power to the weak user, nonnegative at Pbar
    means all power to the strong one, otherwise the interior stationary
    point
        p* = (muw*hw - mus*hs) / (hw*hs*(mus - muw)),
    clamped to [0, Pbar].  At mu = 1/2 the denominator is zero: p* is
    +-inf, which the clamp sends to a corner (reached only when rounding
    makes d0 > 0 > dP on near-tied gains, where both corners are within
    rounding of each other), or NaN, which needs d0 = 0 and is discarded.
    """
    strong2, hs, hw, cw, cs, _ = frame
    a = np.where(strong2, 1.0 - mu, mu) * hs
    b = np.where(strong2, mu, 1.0 - mu) * hw
    d0, dP = a - b, a * cw - b * cs
    with np.errstate(divide="ignore", invalid="ignore"):
        p_star = np.minimum(np.maximum(d0 / (frame[5] * (mu - (1.0 - mu))), 0.0), Pbar)
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
        return abs(r1 / a1 - r2 / a2) <= mu_tol * r

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
    # too, and so are slots that flip all power across the bracket, as at
    # so low an SNR that a slot's interior split spans less than a double's
    # spacing of weights: the blend's rates are re-evaluated, so they are
    # achievable.
    mixed = None
    if lo is not None and hi is not None:
        (mu_lo, gL, (p1L, p2L, _, _)), (mu_hi, gH, (p1H, p2H, _, _)) = lo, hi
        lam = gH / (gH - gL)
        p1_mix = p1L.copy()
        p2_mix = p2L.copy()
        differ = np.abs(p2L - p2H) > 1e-9 * Pbar
        tied = np.abs(ev.h1m - ev.h2m) <= 1e-9 * np.maximum(ev.h1m, ev.h2m)
        flip = np.minimum(p2L, p2H) == 0.0
        flip &= np.maximum(p2L, p2H) == Pbar
        if collapsed or np.all(~differ | tied | flip):
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
# flight integrals in closed form
# ---------------------------------------------------------------------------


def _full_power_antiderivative(params, x):
    """(Phi1(x), Phi2(x)): antiderivatives in x of the full-power rates
    ln(1 + Pbar h_k(x)), in nats times meters; x is a float or an array.

    With y = x - x_k and A = sqrt(H^2 + Pbar beta0) the rate is
    ln(y^2 + A^2) - ln(y^2 + H^2), whose antiderivative is
    y ln1p(Pbar beta0 / (H^2 + y^2)) + 2 (A atan(y/A) - H atan(y/H)).  The
    bracket is formed without cancellation, as
    (A - H) atan(y/A) + H atan(y (H - A) / (H A + y^2)), with
    A - H = Pbar beta0 / (A + H).  `validate_params` keeps every term
    finite."""
    H, Pb = params.H, params.Pbar * params.beta0
    A = math.sqrt(H * H + Pb)
    AmH, HA = Pb / (A + H), H * A
    out = []
    for user in (1, 2):
        y = x - params.user_position(user)
        y2 = y * y
        out.append(y * np.log1p(Pb / (H * H + y2))
                   + 2.0 * (AmH * np.arctan(y / A) - H * np.arctan(y * AmH / (HA + y2))))
    return out


def _log_quadratic_integral(c, ya, w):
    """The integral of ln(c^2 + y^2) over [ya, ya + w], c > 0: the
    difference of y ln(c^2 + y^2) - 2 y + 2 c atan(y/c) between the ends,
    written relative to the piece (ya ln1p(w (ya + yb) / (c^2 + ya^2)) +
    w ln(c^2 + yb^2), yb = ya + w, and one atan2), so that no term outgrows
    w times a logarithm.  The width is passed, not yb: ya rounds where the
    piece's ends are shifted to a user, and the rounding must not change
    the width."""
    yb = ya + w
    c2 = c * c
    return (ya * np.log1p(w * (ya + yb) / (c2 + ya * ya)) + w * (np.log(c2 + yb * yb) - 2.0)
            + 2.0 * c * np.arctan2(c * w, c2 + ya * yb))


def _interior_integrals(params, a, b, mu, strong2):
    """The integrals of (r1, r2) in nats times meters over pieces [a, b],
    a < b on one side of x = 0, where the split at weight mu is interior
    (never next to x = 0: there the gains tie, and one user has all
    power).

    There p* = (muw hw - mus hs) / (hs hw (mus - muw)) gives, with
    d_k = H^2 + (x - x_k)^2 and dw - ds = 2 D |x|,
        r_s = ln(mus / (muw - mus)) + ln(2 D |x|) - ln ds,
        r_w = ln(dw + Pbar beta0) - ln(2 D |x|) - ln(muw / (muw - mus)).
    """
    half = 0.5 * params.D
    nu = 1.0 - mu
    mus, muw = np.where(strong2, nu, mu), np.where(strong2, mu, nu)
    gap = np.where(strong2, mu - nu, nu - mu)
    w = b - a
    p, q = np.minimum(abs(a), abs(b)), np.maximum(abs(a), abs(b))  # |x| on the piece
    log_x = w * (math.log(2.0 * params.D) + np.log(q) - 1.0) + p * np.log1p(w / p)
    x_s = np.where(strong2, half, -half)
    A = math.sqrt(params.H * params.H + params.Pbar * params.beta0)
    r_s = w * np.log(mus / gap) + log_x - _log_quadratic_integral(params.H, a - x_s, w)
    r_w = _log_quadratic_integral(A, a + x_s, w) - log_x - w * np.log(muw / gap)
    return np.where(strong2, r_w, r_s), np.where(strong2, r_s, r_w)


def _regime_cuts(params, mu):
    """Per weight of the array mu (last axis): x = 0, where the strong user
    flips, and where `_strong_power`'s tests d0 and dP change sign, the
    roots in x of (1 - mu)(d1 + c) = mu (d2 + c) for c = 0 and
    c = Pbar beta0.  One equation serves both sides of x = 0, as the strong
    and weak weights swap with the users.  It reads
    a x^2 + D x + a (D^2/4 + H^2 + c) = 0, a = 1 - 2 mu, whose roots'
    product is above D^2/4, so only its smaller root, taken by the stable
    formula, can lie inside (-D/2, D/2); 0 stands in for no real root."""
    half, H2 = 0.5 * params.D, params.H * params.H
    a = (1.0 - mu) - mu
    out = [np.zeros_like(mu)]
    for c in (0.0, params.Pbar * params.beta0):
        k = half * half + H2 + c
        disc = half * half - a * a * k
        root = a * k / (-half - np.sqrt(np.maximum(disc, 0.0)))
        out.append(np.where(disc >= 0.0, root, 0.0))
    return np.stack(out, axis=-1)


def _piece_integrals(params, edges, mu):
    """The integrals of (r1, r2) in nats times meters over the pieces
    between consecutive `edges` (last axis, sorted, cut at every
    `_regime_cuts` of the weights mu, which broadcast against the pieces).
    Each piece lies in one regime, read from `_strong_power` at its
    midpoint: a user with all power integrates `_full_power_antiderivative`,
    the other none, and an interior split `_interior_integrals`."""
    Pbar = params.Pbar
    a, b = edges[..., :-1], edges[..., 1:]
    frame = _split_frame(*gain_pair(params, 0.5 * (a + b)), Pbar)
    ps = _strong_power(frame, mu, Pbar)
    strong2 = frame[0]
    phi = _full_power_antiderivative(params, edges)
    f1 = np.where(np.where(strong2, ps <= 0.0, ps >= Pbar), phi[0][..., 1:] - phi[0][..., :-1], 0.0)
    f2 = np.where(np.where(strong2, ps >= Pbar, ps <= 0.0), phi[1][..., 1:] - phi[1][..., :-1], 0.0)
    inner = np.nonzero((ps > 0.0) & (ps < Pbar) & (a < b))
    if inner[0].size:
        f1[inner], f2[inner] = _interior_integrals(
            params, a[inner], b[inner], np.broadcast_to(mu, ps.shape)[inner], strong2[inner])
    return f1, f2


# ---------------------------------------------------------------------------
# endpoint-pair tables
# ---------------------------------------------------------------------------


# Position nodes (odd, so x = 0 is a node) and weights mu of the global pair
# tables.
_PAIR_NODES = 201
_PAIR_WEIGHTS = 129
# A floored ranking drops a pair whose weighted-rate bound is below the
# floor by more than this (relative); the tables' row dominance holds to
# ~3e-15.
_PRUNE_REL = 1e-12
# The global ranking first drops whole blocks of _BLOCK_NODES positions,
# bounded at every _BLOCK_ROW_STEP-th weight (mu = 0, 1/8, ..., 1).
_BLOCK_NODES = 4
_BLOCK_ROW_STEP = 16


@dataclass(frozen=True)
class PairTables:
    """At weight mu[m] (row m) and sorted positions x: hover rates (h1, h2)
    in bps/Hz, cumulative flight integrals (c1, c2) of the per-position
    rates from x[0], in bps/Hz times meters, and the weighted hover rate
    g = mu*h1 + (1 - mu)*h2.  mu runs from 0 to 1: the first row gives all
    power to user 2 and the last all to user 1, so they hold the full-power
    rates (and c1 = 0 on the first row, c2 = 0 on the last).  `_rate_tables`
    integrates the flight in closed form.  They depend on (beta0, H, D,
    Pbar) only; `pair_tables` caches one read-only set per channel."""

    x: np.ndarray
    mu: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    g: np.ndarray


def _rate_tables(params, x, mu) -> PairTables:
    """PairTables at sorted positions x and sorted weights mu, mu[0] = 0 and
    mu[-1] = 1.

    Each row's flight from x[0] is cut at every x and at the row's
    `_regime_cuts` within [x[0], x[-1]]; on each piece every user's rate is
    a sum of logarithms of |x| and of quadratics in x, integrated in closed
    form by `_piece_integrals`, and the pieces are cumulated.  A cut that
    coincides with a position, or lies outside the table, adds a piece of
    width 0, which integrates to 0.
    """
    Pbar, n = params.Pbar, len(x)
    frame = _split_frame(*gain_pair(params, x), Pbar)
    ps = _strong_power(frame, mu[:, None], Pbar)
    out = np.empty((4, len(mu), n))
    out[0], out[1] = _sc_rates(*frame[:3], ps, Pbar - ps)
    cuts = np.clip(_regime_cuts(params, mu), x[0], x[-1])
    edges = np.sort(np.concatenate([np.broadcast_to(x, (len(mu), n)), cuts], axis=1), axis=1)
    f = np.zeros((2, len(mu), edges.shape[1]))
    f[:, :, 1:] = _piece_integrals(params, edges, mu[:, None])
    # x[i] sits after i positions and the cuts below it.
    at = np.arange(n) + np.sum(cuts[:, None, :] < x[:, None], axis=-1)
    out[2:] = np.take_along_axis(np.cumsum(f, axis=-1), np.broadcast_to(at, (2, *at.shape)), axis=-1)
    h1, h2, c1, c2 = out / LOG2
    w = mu[:, None]
    return PairTables(x, mu, h1, h2, c1, c2, w * h1 + (1.0 - w) * h2)


def pair_tables(params: SystemParams) -> PairTables:
    """The search's tables: _PAIR_NODES positions over [-D/2, D/2] and
    _PAIR_WEIGHTS weights over [0, 1].  Built once per channel (beta0, H, D,
    Pbar) and shared: the arrays are read-only."""
    return _channel_tables(params.beta0, params.H, params.D, params.Pbar)


@functools.lru_cache(maxsize=8)
def _channel_tables(beta0, H, D, Pbar) -> PairTables:
    """The global tables (1,039,800 bytes per channel)."""
    # The build reads no V or T, so any placeholder values serve.
    params = SystemParams(beta0, 1.0, H, D, Pbar, V=0.0, T=1.0)
    half = 0.5 * D
    x = np.linspace(-half, half, _PAIR_NODES)
    tables = _rate_tables(params, x, np.linspace(0.0, 1.0, _PAIR_WEIGHTS))
    for a in vars(tables).values():
        a.flags.writeable = False
    return tables


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
    unfloored ones bit for bit.  The global ranking passes only the pairs
    of the node blocks whose bound reaches the floor (`_block_survivors`),
    so the floor prunes the bisection of those survivors alone.
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


def _pairs_within(x, reach):
    """The pairs (i, j) of sorted positions x, i <= j, whose flight from
    x[i] to x[j] is at most `reach` (V T), each i's by rising j."""
    i, j = np.triu_indices(len(x))
    keep = x[j] - x[i] <= reach
    return np.stack([i[keep], j[keep]], axis=1)


def _floor_candidates(pairs, n):
    """The structural candidates among `pairs` (`_pairs_within` order)
    of n positions: an end at x = -+D/2, a static hover (x_I == x_F), or
    each x_I's longest reachable flight.  Most winners hover above a user
    or fly as far as T allows, so their best value is near the best
    pair's, from ~3% of the global table's pairs."""
    i, j = pairs[:, 0], pairs[:, 1]
    longest = np.append(i[1:] != i[:-1], True)
    return pairs[(i == 0) | (j == n - 1) | (i == j) | longest]


def global_pairs(params: SystemParams):
    """(pairs, candidates): the global table's `_pairs_within` V T and their
    `_floor_candidates`.  Built once per (D, V T) and shared: the arrays
    are read-only.  `_block_bounds` bounds the same pairs block by block,
    cached per channel and V T."""
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


def _block_bounds(params):
    """(bounds, ids, mu) of the global pairs' node blocks: `global_pairs`'
    pairs, cut into blocks of _BLOCK_NODES positions, at every
    _BLOCK_ROW_STEP-th weight mu of `pair_tables`.

    Column b of `bounds` bounds, at each of those weights, the mu-weighted
    rate of every pair in the block pair (I, J) that pair `ids` points to:
        U_mu(I, J) = [cg(last of J) - cg(first of I)] / (V T)
                     + max(1 - d(I, J) / (V T), 0) max(g over I and J),
    with cg = mu c1 + (1 - mu) c2 and g the weighted hover rate.  cg never
    decreases in x (the rates are not negative, and neither is g), and
    d(I, J) is the least distance between the blocks, so U_mu is at least
    the weighted flight term and hover share of each of their pairs."""
    return _channel_blocks(params.beta0, params.H, params.D, params.Pbar, params.V * params.T)


@functools.lru_cache(maxsize=1)
def _channel_blocks(beta0, H, D, Pbar, reach):
    """`_block_bounds` (~100 kB of bounds and int16 ids at full reach).  One
    entry, as `_global_pairs` holds one."""
    t = _channel_tables(beta0, H, D, Pbar)
    i, j = _global_pairs(D, reach)[0].T
    starts = np.arange(0, _PAIR_NODES, _BLOCK_NODES)
    ends = np.minimum(starts + _BLOCK_NODES, _PAIR_NODES) - 1
    n = len(starts)
    block = np.arange(_PAIR_NODES) // _BLOCK_NODES
    flat = block[i] * n + block[j]  # each pair's block pair (I, J), as I n + J
    present = np.zeros(n * n, dtype=bool)
    present[flat] = True
    I, J = np.divmod(np.flatnonzero(present), n)
    ids = (np.cumsum(present) - 1).astype(np.int16)[flat]
    rows = np.arange(0, _PAIR_WEIGHTS, _BLOCK_ROW_STEP)
    mu = t.mu[rows]
    w = mu[:, None]
    cg = w * t.c1[rows] + (1.0 - w) * t.c2[rows]
    g = np.maximum.reduceat(t.g[rows], starts, axis=1)
    gap = np.where(I < J, t.x[starts[J]] - t.x[ends[I]], 0.0)
    bounds = np.ascontiguousarray((cg[:, ends[J]] - cg[:, starts[I]]) / reach
                                  + np.maximum(1.0 - gap / reach, 0.0) * np.maximum(g[:, I], g[:, J]))
    out = bounds, ids, mu
    for a in out:
        a.flags.writeable = False
    return out


def _block_survivors(params, pairs, profile, floor):
    """The rows of `global_pairs`' `pairs` whose block bound reaches the
    floor: by weak duality no pair is worth more than its block's least
    U_mu / (mu alpha1 + (1 - mu) alpha2), so a block below
    floor * (1 - _PRUNE_REL) holds no pair at the maximum.  The rows keep
    their order, so the first maximum stays first."""
    bounds, ids, mu = _block_bounds(params)
    den = mu * profile.alpha1 + (1.0 - mu) * profile.alpha2
    keep = np.min(bounds / den[:, None], axis=0) >= floor * (1.0 - _PRUNE_REL)
    return pairs.take(np.flatnonzero(keep.take(ids)), axis=0)


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
    inward (both hovers stay positive) lowers the value.  It is also the
    only pair whose ends can both hover at an optimum: both then sit at
    stationary points of g with equal values, and for mu* > 1/2 g's
    maximum beside user 1 (mu* C) exceeds any value beside user 2, where
    mu* r1 + (1 - mu*) r2 <= mu* C (C the full-power rate above a user),
    and the mirror for mu* < 1/2.  So `_best_pair` sets it against every
    other family's placement."""
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


class _Pick(NamedTuple):
    """`_best_pair`'s pair x_I <= x_F with hover time t_I at x_I, the global
    table pick's value, the pair's value (None for the static family, whose
    value is the hover's), the weights its value blends ((1/2, 1/2) in
    closed form), its family and its relative first-order residual."""

    x_I: float
    x_F: float
    t_I: float
    pair_value: float
    value: Optional[float]
    bracket: tuple
    family: str
    foc: float


class _Member(NamedTuple):
    """A root search's point at s: value r, residual foc and, for a family
    member, its pair, hover time t_I at x_I and weight bracket."""

    r: float
    s: float
    foc: float
    x_I: float = 0.0
    x_F: float = 0.0
    t_I: float = 0.0
    bracket: tuple = (0.0, 1.0)


def _point_split(params, x, mu):
    """(strong2, hs, hw, ps, r1, r2): `_strong_power`'s split at weight mu
    at one position x, in `math`, with its rates in nats."""
    Pbar, (h1, h2), nu = params.Pbar, gain_pair(params, x), 1.0 - mu
    strong2 = h2 >= h1
    hs, hw = (h2, h1) if strong2 else (h1, h2)
    a, b = (nu * hs, mu * hw) if strong2 else (mu * hs, nu * hw)
    if a - b <= 0.0:
        ps = 0.0
    elif a * (1.0 + Pbar * hw) - b * (1.0 + Pbar * hs) >= 0.0:
        ps = Pbar
    else:  # at mu = 1/2 only rounding reaches here, where both corners tie
        den = hs * hw * ((mu - nu) if strong2 else (nu - mu))
        ps = min(max((a - b) / den, 0.0), Pbar) if den else Pbar
    r_s, r_w = math.log1p(ps * hs), math.log1p((Pbar - ps) * hw / (ps * hw + 1.0))
    return (strong2, hs, hw, ps) + ((r_w, r_s) if strong2 else (r_s, r_w))


def _weighted_rate(params, x, mu):
    """The root-search point at x of g = mu r1 + (1 - mu) r2 of the weight-mu
    split, in bps/Hz, with g' per metre as its residual; only the gains move
    g' (the split is optimal): h_k' = -2 (x - x_k) h_k / d_k, and the strong
    and weak rates' slopes are ps hs' / (1 + ps hs) and
    (Pbar - ps) hw' / ((1 + Pbar hw) (1 + ps hw))."""
    Pbar, half, H2 = params.Pbar, 0.5 * params.D, params.H * params.H
    strong2, hs, hw, ps, r1, r2 = _point_split(params, x, mu)
    ys, yw = (x - half, x + half) if strong2 else (x + half, x - half)
    mus = 1.0 - mu if strong2 else mu
    slope = (mus * ps * (-2.0 * ys * hs / (H2 + ys * ys)) / (1.0 + ps * hs)
             + (1.0 - mus) * (Pbar - ps) * (-2.0 * yw * hw / (H2 + yw * yw))
             / ((1.0 + Pbar * hw) * (1.0 + ps * hw)))
    return _Member((mu * r1 + (1.0 - mu) * r2) / LOG2, x, slope / LOG2)


def _pair_value(params, profile, x_I, x_F, e):
    """(value, t_I, (mu_lo, mu_hi), foc) of the pair x_I <= x_F with all its
    slack at its end e (0 for x_I), in `math`: numpy costs ~10 times as
    much on one pair.

    At weight mu the rates are the flight's integrals between the weight's
    `_regime_cuts`, as `_piece_integrals` takes them, plus slack times the
    hover rates at x_e.  `numerics.illinois_root` narrows the root mu* of
    the imbalance a2 r1 - a1 r2, which rises with mu, from 1/2 to a few
    ulps, and the primal points at its bracket's ends are time-shared onto
    the profile ray: by weak duality the pair's value, across the jump at
    mu = 1/2 of a hover at x = 0 too.  foc is the free end's residual
    (g(x_F) - g(x_I)) / (V T den r) per metre at mu*, den = mu* alpha1 +
    (1 - mu*) alpha2: r's relative slope while the free end does not hover,
    0 where g's ends are equal to a few ulps."""
    Pbar, V, T, H, half = params.Pbar, params.V, params.T, params.H, 0.5 * params.D
    H2, Pb, a1, a2 = H * H, Pbar * params.beta0, profile.alpha1, profile.alpha2
    A, slack, log_2D = math.sqrt(H2 + Pb), T - (x_F - x_I) / V, math.log(2.0 * params.D)
    AmH, HA = Pb / (A + H), H * A

    def phi(y):  # `_full_power_antiderivative` at y from the user
        y2 = y * y
        return y * math.log1p(Pb / (H2 + y2)) + 2.0 * (AmH * math.atan(y / A)
                                                       - H * math.atan(y * AmH / (HA + y2)))

    def log_quadratic(c, ya, w):  # `_log_quadratic_integral`
        yb, c2 = ya + w, c * c
        return (ya * math.log1p(w * (ya + yb) / (c2 + ya * ya)) + w * (math.log(c2 + yb * yb) - 2.0)
                + 2.0 * c * math.atan2(c * w, c2 + ya * yb))

    def rates(mu):
        nu = 1.0 - mu
        cuts = [0.0]
        for c in (0.0, Pb):
            k = half * half + H2 + c
            disc = half * half - (nu - mu) ** 2 * k
            if disc >= 0.0:
                cuts.append((nu - mu) * k / (-half - math.sqrt(disc)))
        edges = sorted({x_I, x_F, *(c for c in cuts if x_I < c < x_F)})
        f1 = f2 = 0.0
        for a, b in zip(edges, edges[1:]):
            strong2, _, _, ps, _, _ = _point_split(params, 0.5 * (a + b), mu)
            if 0.0 < ps < Pbar:  # `_interior_integrals`
                (mus, muw), gap = ((nu, mu), mu - nu) if strong2 else ((mu, nu), nu - mu)
                w, p, q = b - a, min(abs(a), abs(b)), max(abs(a), abs(b))
                log_x = w * (log_2D + math.log(q) - 1.0) + p * math.log1p(w / p)
                x_s = half if strong2 else -half
                r_s = w * math.log(mus / gap) + log_x - log_quadratic(H, a - x_s, w)
                r_w = log_quadratic(A, a + x_s, w) - log_x - w * math.log(muw / gap)
                f1, f2 = (f1 + r_w, f2 + r_s) if strong2 else (f1 + r_s, f2 + r_w)
            elif (ps <= 0.0) == strong2:  # user 1 has all power
                f1 += phi(b + half) - phi(a + half)
            else:
                f2 += phi(b - half) - phi(a - half)
        h1, h2 = _point_split(params, x_F if e else x_I, mu)[4:]
        return (f1 / V + slack * h1) / (T * LOG2), (f2 / V + slack * h2) / (T * LOG2)

    last = {}  # the last (mu, imbalance, r1, r2) of each sign: the bracket's ends

    def point(mu):
        r1, r2 = rates(mu)
        g = a2 * r1 - a1 * r2
        for side in {g > 0.0, g >= 0.0}:  # a root (g = 0) is both ends
            last[side] = (mu, g, r1, r2)
        return _Member(min(r1 / a1, r2 / a2), mu, -g)

    start = point(0.5)
    illinois_root(point, start, 1.0 if start.foc > 0.0 else 0.0, 8.0 * math.ulp(0.5))
    mu_lo, gL, r1L, r2L = last[False]  # mu = 0 gives r1 = 0, so some point has g <= 0
    mu_hi, gH, r1H, r2H = last[True]  # and mu = 1 gives r2 = 0, so some point has g >= 0
    lam = gH / (gH - gL) if gH > gL else 1.0
    mu = lam * mu_lo + (1.0 - lam) * mu_hi
    value = min((lam * r1L + (1.0 - lam) * r1H) / a1, (lam * r2L + (1.0 - lam) * r2H) / a2)
    gI, gF = _weighted_rate(params, x_I, mu).r, _weighted_rate(params, x_F, mu).r
    den = V * T * (mu * a1 + (1.0 - mu) * a2) * value
    tied = abs(gF - gI) <= 4.0 * math.ulp(max(gF, gI))
    return value, 0.0 if e else slack, (mu_lo, mu_hi), 0.0 if tied or den <= 0.0 else (gF - gI) / den


def _root_within(point, start, lo, hi, step, xtol):
    """The best point of `illinois_root` runs within [lo, hi], each from
    `start` out to one step on the side its residual points to; while the
    far end keeps the sign, the next run starts there.  Equal values go to
    the least |residual|: near the root they differ by rounding only."""
    seen = [start]
    while True:
        outer = min(hi, start.s + step) if start.foc > 0.0 else max(lo, start.s - step)
        illinois_root(lambda s: seen.append(point(s)) or seen[-1], start, outer, xtol)
        if seen[-1] is start or seen[-1].s != outer or seen[-1].foc * start.foc <= 0.0:
            return max(seen, key=lambda p: (p.r, -abs(p.foc)))
        start = seen[-1]


def _best_pair(params, profile, tables) -> _Pick:
    """The best feasible pair of the global `tables` (`pair_tables(params)`),
    placed in its HFH family.

    The ranking is floored by `_rank_floor`: `_block_survivors` drops the
    node blocks whose bound is below it before any pair is ranked, and
    `_batched_profile_values` prunes the survivors' bisection by the same
    floor; neither drops the first maximum.  A static pick (x_I == x_F) is
    returned as it is: the static family's optimum is `_best_hover`'s.  A
    pick that hovers above both users (-D/2 to D/2) with both hovers
    positive is placed in closed form (`_hover_both_pick`, at weight 1/2).
    Any other pick is placed by `_family_root`, against that closed form
    where it applies."""
    pairs, candidates = global_pairs(params)
    floor = _rank_floor(params, candidates, profile, tables)
    if floor > -np.inf:
        pairs = _block_survivors(params, pairs, profile, floor)
    value, t_I, lo, hi = _batched_profile_values(params, pairs, profile, tables, floor)
    k = int(np.argmax(value))
    i, j = pairs[k]
    x, mu = tables.x, tables.mu
    pick = _Pick(float(x[i]), float(x[j]), float(t_I[k]), float(value[k]), None,
                 (float(mu[lo[k]]), float(mu[hi[k]])), "static", 0.0)
    if i == j:
        return pick
    closed = _hover_both_pick(params, profile, tables)
    both = closed and pick._replace(x_I=float(x[0]), x_F=float(x[-1]), t_I=closed[0], value=closed[1],
                                    bracket=(0.5, 0.5), family="hover_both")
    if closed and i == 0 and j == len(x) - 1:
        return both
    placed = _family_root(params, profile, pick)
    return both if closed and (placed.value is None or both.value >= placed.value) else placed


def _family_root(params, profile, pick):
    """`_best_pair`'s placement of its `pick` by its family's first-order
    conditions.

    By the envelope theorem at the pair's balancing weight mu, with
    g = g_mu and den = mu alpha1 + (1 - mu) alpha2, an end x with hover
    time t moves r at t g'(x) / (T den), so a hovering end sits at a
    stationary point of g (a root of `_weighted_rate`'s slope): above a
    user, or at SC's interior maximum beside one; and a free end, which
    does not hover, moves r at +-(g(x_F) - g(x_I)) / (V T den), so its
    optimum has equal weighted rates at both ends (`_pair_value`'s foc).
    The families are "fly_hover" (x_I free) and "hover_fly" (x_F free), by
    the end the pick hovers at longer, and "flight" (x_F - x_I = V T, both
    ends slide), which a pick without slack, or a hovering end held by the
    reach, is.  Each round places the hovering end at the last member's
    weight (the pick's first), then roots the free coordinate by
    `_root_within` to FOC_XTOL D, one `_pair_value` with all slack at the
    hovering end a step, while the hovering end moves.  At a bound its
    residual points out of, a free end at the reach hands over to the
    flight, and a flight at -D/2 (D/2) to hover-fly (fly-hover).  A pair
    that collapses onto its hover is the static family's: the pick is
    returned as a static one.  The table's value of the pick, whose slack
    both ends may share, is kept if higher.  foc is the best member's
    |residual|, 0 at a bound it points out of."""
    half, reach, xtol = 0.5 * params.D, params.V * params.T, FOC_XTOL * params.D
    step, slack = params.D / (_PAIR_NODES - 1), params.T - (pick.x_F - pick.x_I) / params.V
    at_i = pick.t_I > 0.5 * slack
    family = "flight" if slack * params.V <= xtol else "hover_fly" if at_i else "fly_hover"
    hover, free = (pick.x_I, pick.x_F) if at_i else (pick.x_F, pick.x_I)

    def ends(s):
        return {"hover_fly": (hover, s), "fly_hover": (s, hover)}.get(family, (s, min(s + reach, half)))

    def member(s):
        value, t_I, bracket, foc = _pair_value(params, profile, *ends(s), 0 if family == "hover_fly" else 1)
        return _Member(value, s, foc, *ends(s), t_I, bracket)

    top = member(free)
    best = rooted = None
    for _ in range(4):  # the first family's rounds and handovers
        placed, right = hover, family == "fly_hover"
        if family != "flight":
            lo, hi = (free, min(half, free + reach)) if right else (max(-half, free - reach), free)
            mu = 0.5 * sum(top.bracket)  # the hovering end moves to a stationary point of g_mu
            end = _root_within(lambda s: _weighted_rate(params, s, mu), _weighted_rate(params, hover, mu),
                               lo, hi, step, xtol)
            placed = end.s
            held = (placed == hi < half and end.foc > 0.0) if right else \
                (placed == lo > -half and end.foc < 0.0)
            if held:  # by the reach: the pair is a pure flight
                family, free = "flight", free if right else placed
        if rooted == family and abs(placed - hover) <= xtol:
            break  # the hovering end stays where the last root left it
        hover = placed
        lo, hi = {"hover_fly": (hover, min(half, hover + reach)), "flight": (-half, max(-half, half - reach)),
                  "fly_hover": (max(-half, hover - reach), hover)}[family]
        free = min(max(free, lo), hi)
        start = top._replace(s=free) if (top.x_I, top.x_F) == ends(free) else member(free)
        top = _root_within(member, start, lo, hi, step, xtol)
        out = (top.s == lo and top.foc < 0.0) or (top.s == hi and top.foc > 0.0)
        if best is None or top.r > best[0].r:
            best = (top, family, 0.0 if out else abs(top.foc))
        free, rooted = top.s, family
        if family != "flight" and top.s == hover:  # collapsed onto the hover
            if best[0] is top:
                return pick
            break
        if family == "flight" and out:
            family = "hover_fly" if top.foc < 0.0 else "fly_hover"
            free, hover = (top.x_F, -half) if top.foc < 0.0 else (top.x_I, half)
        elif out and (lo if family == "fly_hover" else -hi) > -half:  # the bound is the reach
            family, free = "flight", top.x_I
        elif out:
            break
    m, family, foc = best
    if m.r < pick.pair_value:  # the global pick is a member too
        return pick._replace(value=pick.pair_value, family=family)
    return pick._replace(x_I=m.x_I, x_F=m.x_F, t_I=m.t_I, value=m.r, bracket=m.bracket,
                         family=family, foc=foc)


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
    then (for V > 0) the best endpoint pair of `pair_tables(params)`, the
    only tables built, placed by `_best_pair` in its family: not at all
    when it is static (x_I == x_F), as the static family's optimum is the
    hover, in closed form at weight 1/2 when it hovers above both users
    with both hovers positive, else by its first-order conditions
    (`_family_root`).  A placed pair better than the hover by more than
    `_TIE_TOL_REL` is solved once with the exact P5 on `cfg.n_slots`
    slots, warm-started at the midpoint of the pair's weight bracket, and
    replaces the hover when that r, too, is better by more than the tie.
    Otherwise the hover is reported from its `fixed_boundary` point
    (`_hover_solution`), as is a corner profile from the served user's
    position, so a solve makes at most one P5 solve, and only for a
    flight.  Diagnostics report the hover value, the table pick's value,
    the placed value (`polish_value`), the pair's family (`polish`:
    "static", whose value is the hover's, "hover_both", "fly_hover",
    "hover_fly" or "flight"), its relative first-order residual per metre
    (`foc_residual`: 0 in closed form, for a static pick, at a bound the
    residual points out of, and within a few ulps), the P5 solve count
    (`p5_calls`) and its weight solves (`weight_solves`).  Raises
    InvalidParams for out-of-range params.
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
        pick = _best_pair(params, profile, pair_tables(params))
        # A static pick's family optimum is the hover.
        polished = r_h if pick.value is None else pick.value
        diagnostics.update(pair_value=pick.pair_value, polish_value=polished, polish=pick.family,
                           foc_residual=pick.foc)
        tie = _TIE_TOL_REL * r_h
        # Slots only lose rate against the continuous value, so a polished
        # value within the tie of the hover cannot replace it.
        if polished > r_h + tie:
            slack = params.T - (pick.x_F - pick.x_I) / params.V
            traj = make_hfh(params, pick.x_I, pick.x_F, min(pick.t_I, slack))
            flight = _exact_solution(params, profile, traj, cfg.n_slots, cfg, diagnostics,
                                     guess=0.5 * sum(pick.bracket))
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
