"""Independent brute-force verifiers for the solver outputs.

Nothing here assumes the hover-fly-hover structure or the closed forms under
test: trajectories are certified by a time-position dynamic program over a
free grid, power splits by exhaustive scans, boundary intersections by
sign-change bisection on power-bisected curves, and every emitted solution
can be re-integrated against the defining rate inequalities at higher
quadrature resolution.

scipy is loaded on the first `hull_region_containment` call, not at import:
qhull is the hull oracle's independent reference, and no solver needs it, so
importing `uavbc` loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    LOG2,
    RatePair,
    RateProfile,
    SystemParams,
    channel_gain,
    gain_pair,
    log2_1p,
    validate_params,
)
from .errors import GridTooCoarse, NoSignChange
from .fixed_region import fixed_region_sample
from .hfh_solver import (
    BoundarySolution,
    PowerSchedule,
    _batched_profile_values,
    _sc_rates,
    _split_frame,
    _strong_power,
    _time_windows,
    pair_tables,
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

# Largest per-slot move, in grid steps.  The motion stage makes one full pass
# per offer, 2m + 2 of them for m steps, so a slot that spans more steps
# calls for more slots, not a longer motion loop; the CLI reports such a grid
# as a configuration error.
_MAX_MOVE_STEPS = 127

# The forward pass keeps per slot only the bins that can still end at an
# objective of at least _WINDOW_SHARE (criterion 6's tolerance) of the best
# HFH value in the pair tables; _WINDOW_WEIGHTS are the weights mu of the
# weighted-rate bound on the last bin.
_WINDOW_SHARE = 0.97
_WINDOW_WEIGHTS = np.linspace(0.0, 1.0, 27)[1:-1]


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
    for _ in range(60):
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


def _window(kept, r0, r1, b0, b1):
    """Rows [r0, r1) x bins [b0, b1) of kept = (first bin, values) as a
    float32 copy, -inf wherever it leaves the values."""
    start, value = kept
    out = np.full((r1 - r0, b1 - b0), -np.inf, dtype=np.float32)
    rows, bins = value.shape
    b0, b1 = b0 - start, b1 - start
    ra, rb, ba, bb = max(r0, 0), min(r1, rows), max(b0, 0), min(b1, bins)
    if ra < rb and ba < bb:
        out[ra - r0:rb - r0, ba - b0:bb - b0] = value[ra:rb, ba:bb]
    return out


@dataclass(frozen=True)
class _DpStages:
    """The DP's motion and reward stages, shared by its forward pass and its
    backtrack so that both compute every candidate by the same float32
    operations."""

    offers: list  # (move code, near row shift, far row shift) in tie-break order
    w_near: np.float32
    w_far: np.float32
    reach: int  # rows a motion stage reads on either side
    step: int  # largest bin advance of a slot
    entries: list  # per row: the menu entries' split indices, in index order
    shifts: list  # per row: step - bin advance of each entry
    gains: list  # per row: the entries' dr2 as a float32 column

    def motion(self, value, w, cand, tmp):
        """w = the best of staying and of every motion offer out of value.

        Offer (code, t, t_far) takes row j from row j - t, or, when
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

    def reward(self, w, value, row0=0, off=0):
        """value[i, k] = max over the menu entries of grid row row0 + i of
        w[i, off + k - d] + dr2: one gather, add and max per row.

        value's bins start `off` bins after w's (0 <= off <= step); bins
        outside w count as -inf, and value ends at most `step` bins past w.
        """
        step, hi = self.step, w.shape[1]
        pad = np.full(hi + 2 * step, -np.inf, dtype=np.float32)
        # view[t, k] = pad[off + t + k], so view[step - d, k] = w[i, off + k - d]
        view = sliding_window_view(pad[off:off + value.shape[1] + step], step + 1).T
        for w_row, out, shifts, gains in zip(w, value, self.shifts[row0:], self.gains[row0:]):
            pad[step:step + hi] = w_row
            c = view[shifts]
            c += gains
            np.max(c, axis=0, out=out)

    def values(self, hist, i, r0, r1, b0, b1):
        """Rows [r0, r1) x bins [b0, b1) of the values hist[i] = (first bin,
        values), -inf off the grid and the window; recomputed from
        hist[i - 1] when hist[i] is not kept."""
        if hist[i] is not None:
            return _window(hist[i], r0, r1, b0, b1)
        R, step = self.reach, self.step
        ra, rb = max(r0, 0), min(r1, len(self.shifts))
        w = self.moved(_window(hist[i - 1], ra - R, rb + R, b0 - step, b1))[R:R + rb - ra]
        out = np.full((r1 - r0, b1 - b0 + step), -np.inf, dtype=np.float32)
        self.reward(w, out[ra - r0:rb - r0], ra)
        return out[:, step:]

    def moved(self, prev):
        """The motion stage out of the value window prev; rows within
        `reach` of its edges lack predecessors."""
        w = np.empty_like(prev)
        self.motion(prev, w, np.empty_like(prev), np.empty_like(prev))
        return w

    def split(self, w_row, j):
        """Row j's split at bin k from w_row = w[j, k - step ... k]: the
        first menu entry reaching the best candidate, 0 when none is finite."""
        cands = w_row[self.shifts[j]] + self.gains[j][:, 0]
        e = int(np.argmax(cands))
        return int(self.entries[j][e]) if cands[e] > -np.inf else 0

    def move(self, prev, b):
        """Code of the first of (stay, offers) reaching the motion stage's
        value at bin b of the centre row of the window prev."""
        R = self.reach
        best, code = prev[R, b], 0
        for c, t, t_far in self.offers:
            src = prev[R - t, b]
            if t != t_far:
                src = src * self.w_near + prev[R - t_far, b] * self.w_far
            if src > best:
                best, code = src, c
        return code

    def forward(self, lo, hi):
        """The forward pass on the bin windows [lo[n], hi[n]) of every slot n.

        Returns hist: hist[n + 1] = (lo[n], slot n's values on its window)
        when n is even or last, else None; hist[0] is before the first slot:
        any position, nothing accrued.
        """
        N, P = len(lo), len(self.shifts)
        kept = [n % 2 == 0 or n == N - 1 for n in range(N)]
        sizes = [int(b - a) for a, b in zip(lo, hi)]
        block = np.empty(P * sum(s for s, keep in zip(sizes, kept) if keep), np.float32)
        hist = [(0, np.zeros((P, 1), dtype=np.float32))]
        odd, win, cand, tmp = (np.empty((P, max(sizes)), dtype=np.float32) for _ in range(4))
        start, value, at = 0, hist[0][1], 0
        for n in range(N):
            width = value.shape[1]
            # motion stage: best predecessor within |dx| <= V*delta
            w = win[:, :width]
            self.motion(value, w, cand[:, :width], tmp[:, :width])
            # reward stage: choose a power split, advancing the user-1 bin by
            # the row's constant dk[j, s]
            if kept[n]:
                value = block[at:at + P * sizes[n]].reshape(P, sizes[n])
                at += P * sizes[n]
            else:
                value = odd[:, :sizes[n]]
            self.reward(w, value, off=int(lo[n]) - start)
            start = int(lo[n])
            hist.append((start, value) if kept[n] else None)
        return hist


def _window_threshold(params, profile):
    """_WINDOW_SHARE of the best HFH value of the cached pair tables over
    every 4th node (at P = 51 the DP's own grid); -inf at V = 0, where the
    tables' flight terms divide by V, so that DP runs on the whole frontier."""
    if params.V == 0.0:
        return -math.inf
    tables = pair_tables(params)
    nodes = np.arange(0, len(tables.x), 4)
    i, j = (nodes[a] for a in np.triu_indices(len(nodes)))
    keep = tables.x[j] - tables.x[i] <= params.V * params.T
    value = _batched_profile_values(params, np.stack([i[keep], j[keep]], axis=1), profile, tables)[0]
    thr = _WINDOW_SHARE * float(value.max())
    return thr if math.isfinite(thr) else -math.inf


def _bin_windows(thr, profile, q, dk, dr2, widths):
    """Per slot n, the bins [lo[n], hi[n]) of its frontier [0, widths[n])
    outside which no path ends at an objective of at least thr.

    - lo: a last bin below K_lo, the least k with (k * q) / a1 >= thr (the
      final objective's own expression), falls short, and a slot advances
      at most `step` bins; so lo[n] = max(0, K_lo - (N - 1 - n) * step).
    - hi: for any weight mu, a path's last bin k and value v obey
      mu * k * q + (1 - mu) * v <= N * G_mu, where G_mu is the best
      mu-weighted menu reward of one slot, since a motion blend is a convex
      combination within one bin.  (1 + eps) covers the float32 rounding of
      v, at most about 4 units of 2**-24 a slot.  An objective of at least
      thr needs v >= thr * a2, so k <= K_hi, the least bound over
      _WINDOW_WEIGHTS, and bins only grow: hi[n] = min(widths[n], K_hi + 1).

    The windows are closed: slot n's bins [lo[n], hi[n]) read bins
    lo[n] - step ... hi[n] - 1 of slot n - 1, all inside its window, below
    bin 0 or past its frontier.  At thr = -inf they are the whole frontier.
    """
    N, step = len(widths), int(dk.max())
    if thr == -math.inf:
        return np.zeros(N, dtype=int), np.array(widths)
    a1, a2 = profile.alpha1, profile.alpha2
    k_lo = max(math.ceil(thr * a1 / q), 0)
    while k_lo > 0 and ((k_lo - 1) * q) / a1 >= thr:
        k_lo -= 1
    while (k_lo * q) / a1 < thr:
        k_lo += 1
    mu = _WINDOW_WEIGHTS
    g = (mu[:, None, None] * (dk * q) + (1.0 - mu[:, None, None]) * dr2).max(axis=(1, 2))
    eps = 8 * N * 2.0 ** -24
    k_hi = np.floor((N * g * (1.0 + eps) - (1.0 - mu) * thr * a2) / (mu * q)).min()
    lo = np.maximum(k_lo - (N - 1 - np.arange(N)) * step, 0)
    hi = np.minimum(widths, k_hi + 1).astype(int)
    return lo, hi


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

    The forward pass carries values only; the backtrack recomputes the one
    choice it needs at each of its cells.  It relies on these invariants:
    - After n slots only bins below min(B, 1 + n * max(dk)) can be finite,
      so both stages run on that frontier, and bins past it are -inf, which
      never wins.
    - Both stages run only on the closed bin window of each slot that
      `_bin_windows` derives from a threshold thr (0.97 of the best pair-table
      value): a kept cell reads only kept bins, so every kept value is the
      one the whole frontier gives, and every cell outside the last window
      has an objective below thr.  When the best kept objective is below
      thr, the pass runs again on the whole frontier (thr = -inf).  So
      (r, positions) depends neither on thr nor on the pair tables.
    - Both stages take the maximum of their candidates in float32, each
      candidate computed by the same operations in the forward pass and in
      the backtrack; a choice is the first candidate in a fixed order
      (stay, shifts +-1 ... +-m, then the two interpolated moves; menu
      entries in index order, one per run of equal bin advance) that
      reaches the maximum, and split 0 at a -inf cell.
    - The values of every even slot and of the last are kept, each on its
      window; an odd slot's values at the few cells the backtrack reads are
      recomputed from the even slot before it.  The backtrack reads bins
      k - step ... k of the slot before a chain cell at bin k, which stay
      inside the windows.

    Returns (r, positions): the certified rate scale and the winning path
    positions (length cfg.n_slots).  Raises InvalidParams for out-of-range
    params, then GridTooCoarse for a grid `validate_dp_config` rejects.
    """
    validate_params(params)
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
    # a run of consecutive menu entries with equal dk[j, s] advances the
    # same bins, so only its largest dr2 (first on ties) can win there, and
    # the backtrack reads a split only through dk[j, s]
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
    # the backtrack moves in units of 1/move_scale of a grid step
    move_scale = max(1, 120 // (m + 1))
    # motion offers (move code, near row shift, far row shift) in tie-break
    # order; shift t takes predecessor j - t, and an interpolated offer
    # weighs (1 - frac) of its near shift against frac of its far one, which
    # stays -inf where either is
    offers = [(-sign * s * move_scale, sign * s, sign * s)
              for s in range(1, min(m, P - 1) + 1) for sign in (1, -1)]
    if frac > 1e-12 and m + 1 < P:
        off = int((m + frac) * move_scale)
        offers += [(-sign * off, sign * m, sign * (m + 1)) for sign in (1, -1)]
    stages = _DpStages(
        offers, np.float32(1.0 - frac), np.float32(frac),
        max((abs(o[2]) for o in offers), default=0), step, entries,
        [step - dk[j, e] for j, e in enumerate(entries)],
        [dr2[j, e][:, None] for j, e in enumerate(entries)],
    )

    widths = [min(B, 1 + (n + 1) * step) for n in range(N)]
    # the windowed pass, then, if its best falls short, the whole frontier
    for thr in (_window_threshold(params, profile), -math.inf):
        lo, hi = _bin_windows(thr, profile, q, dk, dr2, widths)
        if not np.all(lo < hi):
            continue
        hist = stages.forward(lo, hi)
        start, value = hist[-1]
        bins = np.arange(start, start + value.shape[1])[None, :]
        with np.errstate(invalid="ignore"):
            objective = np.minimum((bins * q) / a1, value / a2)
        best = int(np.nanargmax(objective))
        if objective.flat[best] >= thr:
            break
    j_best, k_best = np.unravel_index(best, objective.shape)

    # backtrack: continuous positions, choices recomputed at the nearest grid
    # row from a window of the previous slot's values around it
    R = stages.reach
    positions = np.empty(N)
    x = float(xs[j_best])
    k = start + int(k_best)
    for n in range(N - 1, -1, -1):
        positions[n] = x
        j = int(round((x + half) / spacing))
        prev = stages.values(hist, n, j - R, j + R + 1, k - step, k + 1)
        w = stages.moved(prev)
        d = int(dk[j, stages.split(w[R], j)])
        k = k - d
        if n > 0:
            x = x + float(stages.move(prev, step - d)) * spacing / move_scale
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

_SIMPSON9 = np.array([1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0]) / 24.0
_OFFS9 = np.linspace(0.0, 1.0, 9)
# Slots re-integrated per block by `_inequality_integrals`.
_FEASIBILITY_BLOCK = 2048


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
    inside a piece once the flight is cut at the x = 0 crossing).  The slots
    run in blocks of _FEASIBILITY_BLOCK, which bounds the temporaries; the
    nodes and weights do not depend on the blocks.
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
            nodes = lo[idx, None] + dur[idx, None] * _OFFS9[None, :]
            ts_list.append(nodes.ravel())
            w_list.append((dur[idx, None] * _SIMPSON9[None, :]).ravel())
            slot_list.append(np.repeat(idx, len(_OFFS9)))

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
