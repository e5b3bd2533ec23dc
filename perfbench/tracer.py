"""In-memory span tracer that wraps `uavbc` functions from outside the package.

A traced run installs wrappers on the module-level functions and methods
named in `targets()`, runs the workload, and restores the originals.  Each
wrapped call records one span: name, start, end, parent span and point id
(the boundary point or scenario being solved).  Hooks read counts off the
arguments and results at the same boundary.  Spans stay in memory until the
run writes them out at the end.

Targets that a later refactor removes are skipped and listed in `absent`, so
the layers that remain are still measured.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from uavbc import hfh_solver, oracle, tdma_solver

_perf = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: `owner.attr`, recorded under span `name`."""

    owner: object
    attr: str
    name: str
    hook: Optional[Callable] = None  # hook(tracer, span_index, args, result)


# -- hooks: counts read at the layer boundary --------------------------------


def _grid_hook(tr, idx, args, result):
    tr.counts["hfh_solver.grid_candidates"] += int(args[1].shape[0])


def _p5_hook(tr, idx, args, result):
    tr.counts["hfh_solver.mu_iters"] += int(result.iterations)
    tr.counts["hfh_solver.tie_breaks"] += int(bool(result.tie_break))
    tr.info[idx] = float(result.r)


def _hover_hook(tr, idx, args, result):
    tr.info[idx] = float(result)


def _weight_hook(tr, idx, args, result):
    tr.counts["hfh_solver.weight_solve_slots"] += int(args[0].n_slots)


def _candidates_hook(tr, idx, args, result):
    tr.counts["tdma_solver.candidates"] += len(result)


def dp_operation_counts(params, profile, cfg):
    """Work of one `dp_trajectory_oracle` call, computed from its config.

    Mirrors the oracle's own sizing: N slots x P positions x B user-1 bins,
    a split menu of max(2 mu_steps + 1, 9) entries per cell in the reward
    stage, and 2m shifted candidates per cell in the motion stage (plus two
    interpolated ones when the per-slot reach is not a whole number of grid
    steps).  The (slot x position x bin) move and split tables are int8.
    Corner profiles build no tables.
    """
    if profile.is_corner:
        return {}
    N, P, B = cfg.n_slots, cfg.n_positions, cfg.r1_bins
    cells = N * P * B
    n_menu = max(2 * cfg.mu_steps + 1, 9)
    spacing = params.D / (P - 1)
    reach = params.V * params.T / N
    m = int(math.floor(reach / spacing + 1e-12))
    frac = reach / spacing - m
    per_cell = 2 * m + (2 if frac > 1e-12 and params.V > 0.0 else 0)
    return {
        "oracle.dp_cells": cells,
        "oracle.dp_reward_candidates": cells * n_menu,
        "oracle.dp_motion_candidates": cells * per_cell,
        "oracle.dp_table_bytes": 2 * cells,
    }


def _dp_hook(tr, idx, args, result):
    params, profile, cfg = args[:3]
    for key, value in dp_operation_counts(params, profile, cfg).items():
        if key == "oracle.dp_table_bytes":
            tr.peaks[key] = max(tr.peaks.get(key, 0), value)
        else:
            tr.counts[key] += value


def targets():
    """Every layer boundary the traced run wraps.

    Functions a module imported by name (`golden_max`, `fixed_boundary`,
    `leg_rate_integral`) are wrapped where the caller looks them up.
    """
    ev = hfh_solver.TrajectoryEvaluator
    return [
        Target(hfh_solver, "trace_region", "hfh_solver.trace_region"),
        Target(hfh_solver, "solve_profile", "hfh_solver.solve_profile"),
        Target(hfh_solver, "_hover_value", "hfh_solver._hover_value", _hover_hook),
        Target(hfh_solver, "fixed_boundary", "fixed_region.fixed_boundary"),
        Target(hfh_solver, "_batched_profile_values",
               "hfh_solver._batched_profile_values", _grid_hook),
        Target(ev, "exact", "hfh_solver.TrajectoryEvaluator.exact"),
        Target(ev, "solve_weight", "hfh_solver.TrajectoryEvaluator.solve_weight",
               _weight_hook),
        Target(hfh_solver, "_solve_p5_on", "hfh_solver._solve_p5_on", _p5_hook),
        Target(hfh_solver, "_exact_solution", "hfh_solver._exact_solution"),
        Target(hfh_solver, "golden_max", "numerics.golden_max@hfh_solver"),
        Target(tdma_solver, "tdma_solve_profile", "tdma_solver.tdma_solve_profile"),
        Target(tdma_solver, "_candidate_trajectories",
               "tdma_solver._candidate_trajectories", _candidates_hook),
        Target(tdma_solver.CumulativeRates, "__init__",
               "tdma_solver.CumulativeRates.__init__"),
        Target(tdma_solver, "solve_t1", "tdma_solver.solve_t1"),
        Target(tdma_solver, "golden_max", "numerics.golden_max@tdma_solver"),
        Target(tdma_solver, "tdma_rates", "tdma_solver.tdma_rates"),
        Target(tdma_solver, "leg_rate_integral", "core.leg_rate_integral"),
        Target(oracle, "dp_trajectory_oracle", "oracle.dp_trajectory_oracle", _dp_hook),
        Target(oracle, "_split_menu", "oracle._split_menu"),
        Target(oracle, "_path_profile_value", "oracle._path_profile_value"),
    ]


class Tracer:
    """Span and count recorder.  Use `installed()` around the traced calls."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.point: list[int] = []
        self.info: dict[int, float] = {}
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self.point_id = -1
        self.absent: list[str] = []
        self._stack: list[int] = []

    def begin_point(self, point_id: int) -> None:
        """Tag the spans that follow with `point_id`."""
        self.point_id = point_id

    def wrap(self, fn, name, hook=None):
        """`fn` recording one span named `name` per call, then calling `hook`."""
        names, start, end = self.names, self.start, self.end
        parent, point, stack = self.parent, self.point, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            point.append(tracer.point_id)
            end.append(0.0)
            stack.append(idx)
            start.append(_perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = _perf()
                stack.pop()
            if hook is not None:
                hook(tracer, idx, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the block; always swap the originals back."""
        saved = []
        try:
            for t in targets():
                raw = vars(t.owner).get(t.attr)
                if raw is None:
                    self.absent.append(t.name)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, t.name, t.hook))
                else:
                    new = self.wrap(raw, t.name, t.hook)
                saved.append((t.owner, t.attr, raw))
                setattr(t.owner, t.attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def snapshot_attributes():
    """Identity of every wrappable attribute, to prove restoration later."""
    snap = {}
    for t in targets():
        snap[t.name] = vars(t.owner).get(t.attr)
    return snap


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(tr: Tracer, n_rounds: int) -> dict:
    """Per-round layer numbers from the recorded spans and counts.

    Times are seconds per round.  `*_self_s` and `<layer>.self_s` subtract
    the time covered by child spans; the other times include children.
    """
    names, parent = tr.names, tr.parent
    n = len(names)
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    self_t = [dur[i] - sum(dur[c] for c in children[i]) for i in range(n)]

    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    def spans(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur[i] for i in spans(name))

    def named(i, name):
        return names[i] == name

    P5 = "hfh_solver._solve_p5_on"
    BUILD = "hfh_solver.TrajectoryEvaluator.exact"
    HOVER = "hfh_solver._hover_value"
    GOLD_H = "numerics.golden_max@hfh_solver"
    EXACT = "hfh_solver._exact_solution"
    SOLVE = "hfh_solver.solve_profile"

    # Stage split of each SC solve, read from the order of its child spans.
    hover_s = rerank_s = refine_s = doubling_s = 0.0
    rerank_p5 = refine_p5 = doublings = 0
    for s in spans(SOLVE):
        kids = children[s]
        refine_golden = [c for c in kids if named(c, GOLD_H)
                         and any(named(g, P5) for g in children[c])]
        first_refine = min((tr.start[c] for c in refine_golden), default=math.inf)
        for c in kids:
            if named(c, HOVER) or (named(c, GOLD_H) and c not in refine_golden):
                hover_s += dur[c]
            elif named(c, P5) or named(c, BUILD):
                if tr.start[c] < first_refine:
                    rerank_s += dur[c]
                    rerank_p5 += named(c, P5)
                else:
                    refine_s += dur[c]
                    refine_p5 += named(c, P5)
        for c in refine_golden:
            refine_s += dur[c]
            refine_p5 += sum(1 for g in children[c] if named(g, P5))
        exact = [c for c in kids if named(c, EXACT)]
        doublings += max(len(exact) - 1, 0)
        doubling_s += sum(dur[c] for c in exact[1:])

    # Useful search solves: P5 results that raised the solve's incumbent,
    # which starts at the best hover value.  Re-solves of the winner inside
    # `_exact_solution` are verification, not search, and are left out.
    solve_of = [-1] * n
    for i in range(n):
        if named(i, SOLVE):
            solve_of[i] = i
        elif parent[i] >= 0:
            solve_of[i] = solve_of[parent[i]]
    incumbent: dict[int, float] = {}
    search_p5 = useful_p5 = 0
    for i in range(n):
        s = solve_of[i]
        if named(i, HOVER):
            incumbent[s] = max(incumbent.get(s, -math.inf), tr.info[i])
        elif named(i, P5) and not (parent[i] >= 0 and named(parent[i], EXACT)):
            search_p5 += 1
            if tr.info[i] > incumbent.get(s, -math.inf):
                useful_p5 += 1
                incumbent[s] = tr.info[i]

    weight_s = total("hfh_solver.TrajectoryEvaluator.solve_weight")
    weight_slots = tr.counts["hfh_solver.weight_solve_slots"]

    layer_self: Counter = Counter()
    for i in range(n):
        layer_self[names[i].split(".", 1)[0]] += self_t[i]

    per_round = {
        "hfh_solver.solve_s": total(SOLVE) - sum(
            dur[i] for i in spans(SOLVE) if parent[i] >= 0 and named(parent[i], SOLVE)),
        "hfh_solver.self_s": layer_self["hfh_solver"],
        "hfh_solver.hover_scan_s": hover_s,
        "hfh_solver.grid_rank_s": total("hfh_solver._batched_profile_values"),
        "hfh_solver.grid_candidates": tr.counts["hfh_solver.grid_candidates"],
        "hfh_solver.rerank_s": rerank_s,
        "hfh_solver.rerank_p5": rerank_p5,
        "hfh_solver.refine_s": refine_s,
        "hfh_solver.refine_p5": refine_p5,
        "hfh_solver.slot_doubling_s": doubling_s,
        "hfh_solver.slot_doublings": doublings,
        "hfh_solver.p5_calls": len(spans(P5)),
        "hfh_solver.p5_s": total(P5),
        "hfh_solver.p5_self_s": sum(self_t[i] for i in spans(P5)),
        "hfh_solver.mu_iters": tr.counts["hfh_solver.mu_iters"],
        "hfh_solver.tie_breaks": tr.counts["hfh_solver.tie_breaks"],
        "hfh_solver.evaluator_build_s": total(BUILD),
        "hfh_solver.weight_solves": len(spans("hfh_solver.TrajectoryEvaluator.solve_weight")),
        "hfh_solver.weight_solve_s": weight_s,
        "fixed_region.boundary_calls": len(spans("fixed_region.fixed_boundary")),
        "fixed_region.boundary_s": total("fixed_region.fixed_boundary"),
        "fixed_region.self_s": layer_self["fixed_region"],
        "tdma_solver.solve_s": total("tdma_solver.tdma_solve_profile") - sum(
            dur[i] for i in spans("tdma_solver.tdma_solve_profile")
            if parent[i] >= 0 and named(parent[i], "tdma_solver.tdma_solve_profile")),
        "tdma_solver.self_s": layer_self["tdma_solver"],
        "tdma_solver.candidates": tr.counts["tdma_solver.candidates"],
        "tdma_solver.cum_builds": len(spans("tdma_solver.CumulativeRates.__init__")),
        "tdma_solver.cum_build_s": total("tdma_solver.CumulativeRates.__init__"),
        "tdma_solver.t1_solves": len(spans("tdma_solver.solve_t1")),
        "tdma_solver.t1_solve_s": total("tdma_solver.solve_t1"),
        "tdma_solver.refine_s": total("numerics.golden_max@tdma_solver"),
        "tdma_solver.final_rates_s": total("tdma_solver.tdma_rates"),
        "core.leg_integral_calls": len(spans("core.leg_rate_integral")),
        "core.leg_integral_s": total("core.leg_rate_integral"),
        "core.self_s": layer_self["core"],
        "numerics.golden_calls": len(spans(GOLD_H)) + len(spans("numerics.golden_max@tdma_solver")),
        "numerics.self_s": layer_self["numerics"],
        "oracle.dp_s": total("oracle.dp_trajectory_oracle"),
        "oracle.self_s": layer_self["oracle"],
        "oracle.menu_s": total("oracle._split_menu"),
        "oracle.rescore_s": total("oracle._path_profile_value"),
        "oracle.dp_cells": tr.counts["oracle.dp_cells"],
        "oracle.dp_reward_candidates": tr.counts["oracle.dp_reward_candidates"],
        "oracle.dp_motion_candidates": tr.counts["oracle.dp_motion_candidates"],
    }
    out = {k: v / n_rounds for k, v in per_round.items()}
    # Ratios and sizes are not per-round sums.
    out["hfh_solver.weight_solve_ns_per_slot"] = (
        1e9 * weight_s / weight_slots if weight_slots else 0.0)
    out["hfh_solver.p5_useful_ratio"] = useful_p5 / search_p5 if search_p5 else 0.0
    out["oracle.dp_table_bytes"] = tr.peaks.get("oracle.dp_table_bytes", 0)
    out["trace.spans"] = n / n_rounds
    return out
