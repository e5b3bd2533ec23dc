"""Independent brute-force verifiers for the solver outputs.

Nothing here assumes the hover-fly-hover structure or the closed forms under
test: trajectories are certified by a time-position dynamic program over a
free grid, power splits by exhaustive scans, boundary intersections by
sign-change bisection on power-bisected curves, and every emitted solution
can be re-integrated against the defining rate inequalities
(`check_feasibility`), by the one 8-point Gauss-Legendre rule of `core`
that `core.tdma_rates` runs too.

scipy is loaded on the first `hull_region_containment` call, not at import:
qhull is the hull oracle's independent reference, and no solver needs it, so
importing `uavbc` loads numpy only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    GL_NODES,
    GL_WEIGHTS,
    LOG2,
    RatePair,
    RateProfile,
    SystemParams,
    gain_pair,
    log2_1p,
    tdma_rates,
    validate_params,
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
from .numerics import balance_weight, bisect_increasing
from .tdma_solver import TdmaSolution


@dataclass(frozen=True)
class DpConfig:
    """Discretization of the dynamic-program trajectory oracle.

    mu_steps controls the resolution of the per-slot power-split menu; the
    accumulated user-1 rate is quantized to r1_bins levels.

    The DP's forward pass reads no profile, so every profile on one
    (params, DpConfig) shares one pass, cached until the next pair comes.
    Its float32 values after every 4th slot and after the last take about
    n_slots * n_positions * r1_bins / 2 bytes: 14.1 MB at the defaults.
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

# Largest per-slot move, in grid steps.  The motion stage makes one full pass
# per offer, 2m + 2 of them for m steps, so a slot that spans more steps
# calls for more slots, not a longer motion loop; the CLI reports such a grid
# as a configuration error.
_MAX_MOVE_STEPS = 127

# The forward pass keeps the values after every _KEEP_STRIDE-th slot and
# after the last; the backtrack recomputes the others from the kept values
# before them, so a block of _KEEP_STRIDE slots costs it one reward-stage
# window per dropped slot (_KEEP_STRIDE - 1) and one motion stage per
# window and per chain cell.  Keeping every 2nd slot holds 13 MB more
# values at the default DpConfig.
_KEEP_STRIDE = 4


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
    if cfg.r1_bins < 2:
        raise GridTooCoarse(
            f"DP needs at least 2 user-1 rate bins, got {cfg.r1_bins}; use more bins"
        )
    if cfg.mu_steps < 0:
        raise GridTooCoarse(
            f"DP split menu needs mu_steps >= 0, got {cfg.mu_steps}"
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
            f"{_MAX_MOVE_STEPS} the DP's motion stage takes; use more slots "
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


def _path_profile_value(params, positions, profile):
    """Profile-constrained rate scale achievable on a fixed position path,
    for an interior profile.

    At weight mu the path's support point is the slot average of its
    per-slot full-power splits, and `numerics.balance_weight` roots its
    imbalance and time-shares the bracket's ends, as `_pair_value` does
    for an HFH pair.  A corner profile never comes here:
    `dp_trajectory_oracle` returns it before the rescoring."""
    frame = _split_frame(*gain_pair(params, positions), params.Pbar)

    def rates(mu):
        ps = _strong_power(frame, mu, params.Pbar)
        r1, r2 = _sc_rates(*frame[:3], ps, params.Pbar - ps)
        return float(r1.mean() / LOG2), float(r2.mean() / LOG2)

    return balance_weight(rates, profile.alpha1, profile.alpha2)[0]


def _window(value, r0, r1, b0, b1):
    """Rows [r0, r1) x bins [b0, b1) of value as a float32 copy, -inf
    wherever it leaves value."""
    out = np.full((r1 - r0, b1 - b0), -np.inf, dtype=np.float32)
    rows, bins = value.shape
    ra, rb, ba, bb = max(r0, 0), min(r1, rows), max(b0, 0), min(b1, bins)
    if ra < rb and ba < bb:
        out[ra - r0:rb - r0, ba - b0:bb - b0] = value[ra:rb, ba:bb]
    return out


@dataclass(frozen=True)
class _DpStages:
    """The DP's motion and reward stages, shared by its forward pass and its
    backtrack so that both compute every candidate by the same float32
    operations."""

    offers: list  # (move in metres, near row shift, far row shift) in tie-break order
    w_near: np.float32
    w_far: np.float32
    reach: int  # rows a motion stage reads on either side
    step: int  # largest bin advance of a slot
    shifts: list  # per row: step - bin advance of each menu entry, in index order
    gains: list  # per row: the entries' dr2 as a float32 column

    def motion(self, value, w, cand, tmp):
        """w = the best of staying and of every motion offer out of value.

        Offer (dx, t, t_far) takes row j from row j - t, or, when
        t != t_far, from w_near of row j - t plus w_far of row j - t_far; a
        row takes it only when row j - t_far exists.  cand and tmp are
        scratch of value's shape.
        """
        np.copyto(w, value)
        P = value.shape[0]
        for _, t, t_far in self.offers:
            lo, up = max(t_far, 0), P + min(t_far, 0)  # rows with predecessors
            src = value[lo - t:up - t]
            if t != t_far:
                src = np.multiply(src, self.w_near, out=cand[lo:up])
                src += np.multiply(value[lo - t_far:up - t_far], self.w_far, out=tmp[lo:up])
            np.maximum(w[lo:up], src, out=w[lo:up])

    def reward(self, w, value, row0=0):
        """value[i, k] = max over the menu entries of grid row row0 + i of
        w[i, k - d] + dr2: one gather, add and max per row.

        Bins outside w count as -inf, and value ends at most `step` bins
        past w.
        """
        step, hi = self.step, w.shape[1]
        pad = np.full(hi + 2 * step, -np.inf, dtype=np.float32)
        # view[t, k] = pad[t + k], so view[step - d, k] = w[i, k - d]
        view = sliding_window_view(pad[:value.shape[1] + step], step + 1).T
        for w_row, out, shifts, gains in zip(w, value, self.shifts[row0:], self.gains[row0:]):
            pad[step:step + hi] = w_row
            c = view[shifts]
            c += gains
            np.max(c, axis=0, out=out)

    def values(self, hist, i, r0, r1, b0, b1, memo):
        """Rows [r0, r1) x bins [b0, b1) of the values after i slots, -inf
        off the grid and the frontier, read-only; recomputed from the values
        after i - 1 slots when hist[i] is not kept.

        memo maps an unkept i to the last window recomputed for it, as
        ((r0, r1, b0, b1), window); a request inside it is sliced from it.
        """
        if hist[i] is not None:
            return _window(hist[i], r0, r1, b0, b1)
        if i in memo:
            (m0, m1, c0, c1), window = memo[i]
            if m0 <= r0 and r1 <= m1 and c0 <= b0 and b1 <= c1:
                return window[r0 - m0:r1 - m0, b0 - c0:b1 - c0]
        R, step = self.reach, self.step
        ra, rb = max(r0, 0), min(r1, len(self.shifts))
        w = self.moved(self.values(hist, i - 1, ra - R, rb + R, b0 - step, b1, memo))[R:R + rb - ra]
        out = np.full((r1 - r0, b1 - b0 + step), -np.inf, dtype=np.float32)
        self.reward(w, out[ra - r0:rb - r0], ra)
        window = out[:, step:]
        window.flags.writeable = False
        memo[i] = (r0, r1, b0, b1), window
        return window

    def moved(self, prev):
        """The motion stage out of the value window prev; rows within
        `reach` of its edges lack predecessors."""
        w = np.empty_like(prev)
        self.motion(prev, w, np.empty_like(prev), np.empty_like(prev))
        return w

    def advance(self, w_row, j):
        """Row j's bin advance at bin k from w_row = w[j, k - step ... k]: the
        first best menu entry's, or the first entry's when none is finite."""
        cands = w_row[self.shifts[j]] + self.gains[j][:, 0]
        return self.step - int(self.shifts[j][int(np.argmax(cands))])

    def move(self, prev, b):
        """Metres of the first of (stay, offers) reaching the motion stage's
        value at bin b of the centre row of the window prev."""
        R = self.reach
        best, dx = prev[R, b], 0.0
        for m, t, t_far in self.offers:
            src = prev[R - t, b]
            if t != t_far:
                src = src * self.w_near + prev[R - t_far, b] * self.w_far
            if src > best:
                best, dx = src, m
        return dx

    def forward(self, widths):
        """The forward pass on the frontier [0, widths[n]) of every slot n.

        Returns hist: hist[i] = the values after i slots when i is a
        multiple of _KEEP_STRIDE or the last, else None; hist[0] is before
        the first slot: any position, nothing accrued.
        """
        N, P = len(widths), len(self.shifts)
        kept = [(n + 1) % _KEEP_STRIDE == 0 or n == N - 1 for n in range(N)]
        block = np.empty(P * sum(s for s, keep in zip(widths, kept) if keep), np.float32)
        hist = [np.zeros((P, 1), dtype=np.float32)]
        spare, win, cand, tmp = (np.empty((P, max(widths)), dtype=np.float32) for _ in range(4))
        value, at = hist[0], 0
        for n, width in enumerate(widths):
            prev = value.shape[1]
            # motion stage: best predecessor within |dx| <= V*delta
            w = win[:, :prev]
            self.motion(value, w, cand[:, :prev], tmp[:, :prev])
            # reward stage: choose a power split, advancing the user-1 bin by
            # its menu entry's constant advance on the row
            if kept[n]:
                value = block[at:at + P * width].reshape(P, width)
                at += P * width
            else:
                value = spare[:, :width]
            self.reward(w, value)
            hist.append(value if kept[n] else None)
        return hist


@dataclass(frozen=True)
class _DpForward:
    """The profile-free part of the DP on one (params, cfg): its grid, its
    stages and its forward values."""

    xs: np.ndarray  # grid positions
    q: float  # width of a user-1 bin
    stages: _DpStages
    hist: list  # `_DpStages.forward`'s kept values, read-only


@functools.lru_cache(maxsize=1)
def _dp_forward(params: SystemParams, cfg: DpConfig) -> _DpForward:
    """The DP's forward pass on the whole frontier, which reads no profile.

    One entry: the profiles of one region share it, and a scan over
    channels would only hold more memory.  Its arrays are read-only.
    """
    half = 0.5 * params.D
    P = cfg.n_positions
    N = cfg.n_slots
    xs = np.linspace(-half, half, P)
    spacing = xs[1] - xs[0]
    delta = params.T / N

    menu_r1, menu_r2 = _split_menu(params, xs, max(2 * cfg.mu_steps + 1, 9))
    B = cfg.r1_bins
    q = params.peak_rate / (B - 1)
    dk = np.minimum((menu_r1 / N / q).astype(np.int64), B - 1)  # floored bins
    dr2 = (menu_r2 / N).astype(np.float32)
    step = int(dk.max())
    # a run of consecutive menu entries with equal dk[j, s] advances the
    # same bins, so only its largest dr2 (first on ties) can win there, and
    # the backtrack reads a split only through its advance
    entries = []
    for j in range(P):
        row = []
        for s, d in enumerate(dk[j].tolist()):
            if not row or dk[j, row[-1]] != d:
                row.append(s)
            elif dr2[j, s] > dr2[j, row[-1]]:
                row[-1] = s
        entries.append(np.array(row))

    reach = params.V * delta
    m = int(math.floor(reach / spacing + 1e-12))
    frac = reach / spacing - m
    ms = max(1, 120 // (m + 1))
    # motion offers (move in metres, near row shift, far row shift) in
    # tie-break order; shift t takes predecessor j - t, and an interpolated
    # offer, its move quantized to 1/ms of a step, weighs (1 - frac) of its
    # near shift against frac of its far one, which stays -inf where either is
    codes = [(-sign * s * ms, sign * s, sign * s)
             for s in range(1, min(m, P - 1) + 1) for sign in (1, -1)]
    if frac > 1e-12 and m + 1 < P:
        off = int((m + frac) * ms)
        codes += [(-sign * off, sign * m, sign * (m + 1)) for sign in (1, -1)]
    offers = [(float(code) * spacing / ms, t, t_far) for code, t, t_far in codes]
    stages = _DpStages(
        offers, np.float32(1.0 - frac), np.float32(frac),
        max((abs(o[2]) for o in offers), default=0), step,
        [step - dk[j, e] for j, e in enumerate(entries)],
        [dr2[j, e][:, None] for j, e in enumerate(entries)],
    )
    hist = stages.forward([min(B, 1 + (n + 1) * step) for n in range(N)])
    for a in [xs, *stages.shifts, *stages.gains, *hist]:
        if a is not None:
            a.flags.writeable = False
    return _DpForward(xs, q, stages, hist)


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

    The forward values do not depend on the profile: V[n][j][k] is the best
    user-2 rate accrued after n slots at row j with user-1 bin k.  So the
    forward pass runs once per (params, cfg) and every profile on that
    channel shares it (`_dp_forward`, which holds one); a call then takes
    its objective min(k q / alpha1, v / alpha2) from the last slot's values
    and backtracks.  The cached values take 14.1 MB at the default
    DpConfig, where a first call on a channel pays the pass (~0.2 s) and
    each call after it ~0.01-0.02 s (one Xeon core), under 1 ms of it the
    rescoring.  Corner profiles build no forward pass.

    The forward pass carries values only; the backtrack recomputes the one
    choice it needs at each of its cells.  It relies on these invariants:
    - After n slots only bins below min(B, 1 + n * step) can be finite,
      so both stages run on that frontier, and bins past it are -inf, which
      never wins.
    - Both stages take the maximum of their candidates in float32, each
      candidate computed by the same operations in the forward pass and in
      the backtrack; a choice is the first candidate in a fixed order
      (stay, shifts +-1 ... +-m, then the two interpolated moves; menu
      entries in index order, one per run of equal bin advance) that
      reaches the maximum, and the first entry's advance at a -inf cell.
    - The values after every _KEEP_STRIDE-th slot and after the last are
      kept; the others, at the few cells the backtrack reads, are
      recomputed from the kept values before them.  The backtrack reads
      bins k - step ... k of the slot before a chain cell at bin k.
    - Each dropped slot's window is recomputed once, at its block's first
      chain cell, and later cells of the block slice it: a chain step moves
      the row by at most `reach` and lowers the bin by 0 ... step, which is
      exactly the margin each recomputed window carries over the one after
      it.  A step that moves the row further (round() or the clamp to the
      span) recomputes.  Every cell of a window is computed elementwise
      from the same inputs, so a slice equals a fresh recomputation.

    Returns (r, positions): the certified rate scale and the winning path
    positions (length cfg.n_slots).  Raises InvalidParams for out-of-range
    params, then GridTooCoarse for a grid `validate_dp_config` rejects.
    """
    validate_params(params)
    validate_dp_config(params, cfg)
    a1, a2 = profile.alpha1, profile.alpha2

    if profile.is_corner:
        # all power to one user: the best path greedily hovers above them
        xs = np.linspace(-0.5 * params.D, 0.5 * params.D, cfg.n_positions)
        menu_r1, menu_r2 = _split_menu(params, xs, max(2 * cfg.mu_steps + 1, 9))
        per_slot = (menu_r2 if a1 == 0.0 else menu_r1).max(axis=1)
        j = int(np.argmax(per_slot))
        return float(per_slot[j]), np.full(cfg.n_slots, xs[j])

    fwd = _dp_forward(params, cfg)
    stages, hist = fwd.stages, fwd.hist
    value = hist[-1]
    bins = np.arange(value.shape[1])[None, :]
    objective = np.minimum((bins * fwd.q) / a1, value / a2)
    j_best, k = map(int, np.unravel_index(int(np.argmax(objective)), objective.shape))

    # backtrack: continuous positions, choices recomputed at the nearest grid
    # row from a window of the previous slot's values around it
    xs, R, step = fwd.xs, stages.reach, stages.step
    half, spacing = 0.5 * params.D, xs[1] - xs[0]
    positions = np.empty(cfg.n_slots)
    x = float(xs[j_best])
    for n in range(cfg.n_slots - 1, -1, -1):
        if hist[n + 1] is not None:
            memo = {}  # a block's first chain cell: the last block's windows are dead
        positions[n] = x
        j = int(round((x + half) / spacing))
        prev = stages.values(hist, n, j - R, j + R + 1, k - step, k + 1, memo)
        w = stages.moved(prev)
        d = stages.advance(w[R], j)
        k = k - d
        if n > 0:
            x = min(max(x + stages.move(prev, step - d), -half), half)

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
    against the hull facets. The first call imports `scipy.spatial` (qhull);
    it is kept off `uavbc`'s import path because only this oracle uses it.
    """
    if xF - xI <= 1e-12 * params.D:
        return True
    # Deferred: importing qhull costs ~0.3 s and ~38 MB, and no solver needs it.
    from scipy.spatial import ConvexHull

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

# Slots re-integrated per block by `_inequality_integrals`.
_FEASIBILITY_BLOCK = 2048
# `core`'s Gauss-Legendre rule mapped to [0, 1], one copy per slot piece.
_UNIT_NODES = 0.5 * (1.0 + GL_NODES)
_UNIT_WEIGHTS = 0.5 * GL_WEIGHTS


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

    Integrates piecewise: hover portions exactly, flight portions with the
    8-point Gauss-Legendre rule of `core.GL_NODES` per slot piece (the
    integrand is smooth inside a piece once the flight is cut at the x = 0
    crossing, and no node sits on a cut, where the strong user flips).  The
    slots run in blocks of _FEASIBILITY_BLOCK, which bounds the temporaries;
    the nodes and weights do not depend on the blocks.
    """
    p1_slots = np.asarray(p1_slots, dtype=float)
    p2_slots = np.asarray(p2_slots, dtype=float)
    n = len(p1_slots)
    T = params.T
    delta = T / n
    windows = _time_windows(params, traj)
    total = np.zeros(3)
    for first in range(0, n, _FEASIBILITY_BLOCK):
        t0 = np.arange(first, min(first + _FEASIBILITY_BLOCK, n)) * delta
        t1 = t0 + delta
        ts_list, w_list, slot_list = [], [], []
        for lo_edge, hi_edge, x_h in windows:
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
            nodes = lo[idx, None] + dur[idx, None] * _UNIT_NODES
            ts_list.append(nodes.ravel())
            w_list.append((dur[idx, None] * _UNIT_WEIGHTS).ravel())
            slot_list.append(np.repeat(idx, len(_UNIT_NODES)))

        ts = np.concatenate(ts_list)
        w = np.concatenate(w_list) / T
        slots = np.concatenate(slot_list) + first
        h1, h2 = gain_pair(params, positions_at(params, traj, ts))
        q1, q2 = _dual_uplink_powers(p1_slots[slots], p2_slots[slots], h1, h2)
        s1 = q1 * h1
        s2 = q2 * h2
        total += [w @ np.log1p(s1), w @ np.log1p(s2), w @ np.log1p(s1 + s2)]
    I1, I2, I3 = (float(v) / LOG2 for v in total)
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
    witness, which carries the same total power).  A TDMA solution's rates
    are re-integrated by `core.tdma_rates` at its switch time clamped to
    [0, T], and the sum inequality is I1 + I2.  Nothing is raised:
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
        pair = tdma_rates(params, traj, min(max(solution.t1, 0.0), params.T))
        I1, I2, I3 = pair.r1, pair.r2, pair.total
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
