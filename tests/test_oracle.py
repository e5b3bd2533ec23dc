import gc
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from uavbc import (
    GridTooCoarse,
    RateProfile,
    dp_trajectory_oracle,
    grid_power_oracle,
    intersection_point,
    make_hfh,
    numeric_intersection_oracle,
    solve_profile,
    solve_v0,
    tdma_solve_profile,
    triangle_contains,
)
from uavbc import oracle
from uavbc.hfh_solver import BoundarySolution, PowerSchedule
from uavbc.oracle import (
    DpConfig,
    check_feasibility,
    hull_region_containment,
    path_shape_stats,
    validate_dp_config,
)


class TestGridPowerOracle:
    def test_all_weight_user1(self, base):
        assert grid_power_oracle(base, -200.0, 1.0) == (base.Pbar, 0.0)

    def test_equal_gain_flat_objective(self, base):
        # x = 0, mu = 0.5: every split attains the same weighted rate
        p1, p2 = grid_power_oracle(base, 0.0, 0.5)
        h = base.beta0 / (250000.0 + 10000.0)
        total = np.log2(1.0 + base.Pbar * h)
        got = 0.5 * (np.log2(1.0 + p1 * h / (p2 * h + 1.0)) + np.log2(1.0 + p2 * h))
        assert got == pytest.approx(0.5 * total, abs=1e-9)


class TestIntersectionOracle:
    def test_agreement_all_cases(self, base):
        pairs = [(500.0, 250.0), (300.0, -200.0), (-100.0, -400.0), (450.0, 0.0)]
        for xB, xC in pairs:
            closed = intersection_point(base, xB, xC)
            numeric = numeric_intersection_oracle(base, xB, xC)
            assert numeric.r1 == pytest.approx(closed.r1, abs=1e-6)
            assert numeric.r2 == pytest.approx(closed.r2, abs=1e-6)

    def test_symmetric_pair_on_diagonal(self, base):
        res = numeric_intersection_oracle(base, 260.0, -260.0)
        assert res.r1 == pytest.approx(res.r2, abs=1e-8)


class TestDpOracle:
    def test_grid_too_coarse(self, base):
        for cfg in (
            DpConfig(n_slots=64, n_positions=8),  # spacing wider than V*delta
            # 225 steps a slot, more than _MAX_MOVE_STEPS
            DpConfig(n_slots=8, n_positions=1001),
            DpConfig(n_slots=1),
            DpConfig(r1_bins=1),  # no bin width: peak_rate / (B - 1)
            DpConfig(r1_bins=0),
            DpConfig(r1_bins=-4),
            DpConfig(mu_steps=-1),  # would fall back to a 9-entry menu
        ):
            with pytest.raises(GridTooCoarse):
                validate_dp_config(base, cfg)

    @pytest.mark.parametrize(
        "case, cfg, alpha1, r_want, path_want",
        [
            # (r, path) as the take_along_axis implementation returned them
            # interpolated moves: m = 1, frac ~ 0.41
            ("base", DpConfig(32, 26, 7, 2048), 0.4, 5.259161138230586,
             np.r_[[492.0] * 10, 436.0 - 56.0 * np.arange(17), [-500.0] * 5]),
            # multi-step moves: m = 9
            ("fast", DpConfig(16, 41, 5, 1024), 0.3, 5.962896253731146,
             np.r_[[500.0] * 9, 275.0 - 225.0 * np.arange(4), [-500.0] * 3]),
            # no motion
            ("static", DpConfig(32, 51, 7, 4096), 0.5, 2.4731433231106226,
             np.full(32, 180.0)),
            # few bins: many menu entries share a bin advance
            ("base", DpConfig(24, 21, 6, 300), 0.3, 5.262593034487025,
             np.r_[[500.0] * 9, 450.0 - 75.0 * np.arange(13), [-500.0] * 2]),
            # (r, path) as the int8 move/split table implementation returned
            # them: the benchmark's own config
            ("base", DpConfig(64, 51, 11), 3 / 7, 5.261568200207685,
             np.r_[[492.0] * 18, 472.0 - 28.0 * np.arange(35), [-500.0] * 11]),
            # an odd slot count: the last slot's values follow an odd slot's
            ("base", DpConfig(33, 26, 7, 2048), 0.4, 5.255863308078172,
             np.r_[[498.0] * 10, 458.0 - 54.0 * np.arange(18), [-500.0] * 5]),
            # (r, path) as the unwindowed implementation returned them: the
            # windowed best falls below its threshold, so the whole frontier
            # runs again
            ("base", DpConfig(16, 21, 5, 128), 0.4, 5.1946460795789955,
             np.r_[[475.0] * 5, 375.0, 262.5 - 112.5 * np.arange(6), -400.0,
                   [-500.0] * 3]),
        ],
        ids=["interpolated", "multi-step", "static", "coarse-bins", "workload",
             "odd-slots", "fallback"],
    )
    def test_exact_output(self, base, static, case, cfg, alpha1, r_want, path_want):
        params = {"base": base, "fast": replace(base, V=60.0), "static": static}[case]
        r, path = dp_trajectory_oracle(params, RateProfile.of(alpha1), cfg)
        assert r == r_want
        assert np.array_equal(path, path_want)

    @pytest.fixture()
    def windows(self, monkeypatch):
        """Records (thr, args, (lo, hi)) of every `_bin_windows` call."""
        calls = []

        def spy(thr, *args):
            out = real(thr, *args)
            calls.append((thr, args, out))
            return out

        real = oracle._bin_windows
        monkeypatch.setattr(oracle, "_bin_windows", spy)
        return calls

    @pytest.mark.parametrize("i", range(1, 7))
    def test_windows_at_the_workload(self, base, windows, i):
        """Criterion 6's profiles keep their first windows (no rerun); the
        windows are closed, prune the frontier, and are the whole frontier at
        thr = -inf."""
        dp_trajectory_oracle(base, RateProfile.of(i / 7), DpConfig(64, 51, 11))
        [(thr, args, (lo, hi))] = windows
        assert math.isfinite(thr)
        _, _, dk, _, widths = args
        step, widths = int(dk.max()), np.array(widths)
        # closed: slot n reads bins lo[n] - step ... of slot n - 1
        assert np.all(np.diff(lo)[lo[:-1] > 0] == step)
        assert np.all(lo[:-1] == np.maximum(lo[1:] - step, 0))
        assert np.all(hi[:-1] >= np.minimum(hi[1:], widths[:-1]))
        assert np.sum(hi - lo) < 0.75 * np.sum(widths)
        lo, hi = oracle._bin_windows(-math.inf, *args)
        assert np.all(lo == 0) and np.array_equal(hi, widths)

    def test_fallback_runs_the_whole_frontier(self, base, windows):
        dp_trajectory_oracle(base, RateProfile.of(0.4), DpConfig(16, 21, 5, 128))
        thrs = [thr for thr, _, _ in windows]
        assert math.isfinite(thrs[0]) and thrs[1:] == [-math.inf]

    def test_no_history_left_alive(self, base):
        """A DP call frees its value history when it returns, without the
        cyclic collector: two calls end within 1 MB of the traced memory
        before them, less than one call's history (~1.9 MB here)."""
        cfg, prof = DpConfig(32, 26, 7, 2048), RateProfile.of(0.4)
        dp_trajectory_oracle(base, prof, cfg)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(2):
                dp_trajectory_oracle(base, prof, cfg)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert after - before <= 1 << 20

    def test_corner_path(self, base):
        cfg = DpConfig(32, 26, 7, r1_bins=2048)
        r, path = dp_trajectory_oracle(base, RateProfile.of(0.0), cfg)
        assert r == pytest.approx(base.peak_rate, rel=1e-9)
        assert np.allclose(path, 500.0)

    def test_v0_matches_placement(self, static):
        cfg = DpConfig(32, 51, 7, r1_bins=4096)
        r, path = dp_trajectory_oracle(static, RateProfile.of(0.5), cfg)
        hover = solve_v0(static, RateProfile.of(0.5))
        assert abs(r - hover.r) / hover.r <= 0.005
        assert np.ptp(path) == 0.0  # no motion possible

    def test_interior_profile_close_to_solver(self, base):
        cfg = DpConfig(32, 26, 7, r1_bins=4096)
        prof = RateProfile.of(0.5)
        r_dp, path = dp_trajectory_oracle(base, prof, cfg)
        sol = solve_profile(base, prof)
        assert abs(r_dp - sol.r) / sol.r <= 0.03
        uni, clusters = path_shape_stats(path, (base.D / 25) * 0.5)
        assert uni
        assert clusters <= 2

    def test_refinement_monotone(self, base):
        prof = RateProfile.of(0.4)
        r_coarse, _ = dp_trajectory_oracle(base, prof, DpConfig(32, 26, 7, r1_bins=2048))
        r_fine, _ = dp_trajectory_oracle(base, prof, DpConfig(64, 51, 7, r1_bins=4096))
        assert r_fine >= r_coarse - 1e-3


class TestCheckFeasibility:
    def test_zero_power_schedule(self, base):
        n = 32
        traj = make_hfh(base, -100.0, 100.0, 20.0)
        sol = BoundarySolution(
            RateProfile.of(0.5),
            rate_pair=__import__("uavbc").RatePair(0.0, 0.0),
            r=0.0,
            trajectory=traj,
            schedule=PowerSchedule(np.zeros(n), np.zeros(n)),
            mu=0.5,
        )
        report = check_feasibility(base, sol)
        assert report.passed

    def test_solver_output_passes(self, base):
        sol = solve_profile(base, RateProfile.of(0.4))
        report = check_feasibility(base, sol)
        assert report.passed
        assert report.rate_violation <= 1e-6

    def test_doctored_power_flagged(self, base):
        sol = solve_profile(base, RateProfile.of(0.4))
        p1 = sol.schedule.p1.copy()
        p2 = sol.schedule.p2.copy()
        k = len(p1) // 2
        scale = 1.01 * base.Pbar / (p1[k] + p2[k])
        p1[k] *= scale
        p2[k] *= scale
        bad = BoundarySolution(
            sol.profile, sol.rate_pair, sol.r, sol.trajectory,
            PowerSchedule(p1, p2), sol.mu,
        )
        report = check_feasibility(base, bad)
        assert not report.passed
        assert report.power_violation > 1e-6

    def test_overclaimed_rates_flagged(self, base):
        sol = solve_profile(base, RateProfile.of(0.4))
        inflated = BoundarySolution(
            sol.profile,
            __import__("uavbc").RatePair(sol.rate_pair.r1 * 1.01, sol.rate_pair.r2),
            sol.r,
            sol.trajectory,
            sol.schedule,
            sol.mu,
        )
        report = check_feasibility(base, inflated)
        assert not report.passed
        assert report.rate_violation > 1e-6

    def test_tdma_solution_passes(self, base):
        sol = tdma_solve_profile(base, RateProfile.of(0.35))
        assert check_feasibility(base, sol).passed

    def test_blocks_match_one_pass(self, base, monkeypatch):
        """A schedule longer than a block, with its flight cut at x = 0
        inside one, re-integrates as one pass does up to summation order."""
        params = replace(base, T=400.0)
        traj = make_hfh(params, -300.0, 450.0, 123.4)
        n = 4 * 2048 + 37
        assert n > oracle._FEASIBILITY_BLOCK
        p1 = np.random.default_rng(7).uniform(0.0, params.Pbar, n)
        blocked = oracle._inequality_integrals(params, traj, p1, params.Pbar - p1)
        monkeypatch.setattr(oracle, "_FEASIBILITY_BLOCK", n)
        whole = oracle._inequality_integrals(params, traj, p1, params.Pbar - p1)
        assert blocked == pytest.approx(whole, rel=1e-13, abs=0.0)


def test_hull_oracle_agrees_with_triangle(base):
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 6:
        xI, x, xF = np.sort(rng.uniform(-500.0, 500.0, size=3))
        if xF - xI < 5.0:
            continue
        assert hull_region_containment(base, xI, xF, x, 96) == triangle_contains(
            base, xI, xF, x, 96
        )
        checked += 1
    # a known separating case
    assert hull_region_containment(base, 450.0, 500.0, 480.0) is False


def test_scipy_loads_on_the_first_hull_call(base):
    """Importing the package and its CLI loads no scipy; the hull oracle then
    imports qhull itself.  Run in a fresh interpreter, since this one's
    tests import scipy."""
    probe = f"""
import sys
import uavbc, uavbc.cli
from uavbc import SystemParams
from uavbc.oracle import hull_region_containment

loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
assert hull_region_containment({base!r}, 450.0, 500.0, 480.0) is False
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
