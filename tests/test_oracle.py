from dataclasses import replace

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
from uavbc.hfh_solver import BoundarySolution, PowerSchedule, SearchConfig
from uavbc.oracle import (
    DpConfig,
    check_feasibility,
    hull_region_containment,
    path_shape_stats,
    validate_dp_config,
)

FAST = SearchConfig(hover_grid=65)


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
            DpConfig(n_slots=8, n_positions=1001),  # 225 steps a slot, int8 holds 127
            DpConfig(n_slots=1),
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
        ],
        ids=["interpolated", "multi-step", "static"],
    )
    def test_exact_output(self, base, static, case, cfg, alpha1, r_want, path_want):
        params = {"base": base, "fast": replace(base, V=60.0), "static": static}[case]
        r, path = dp_trajectory_oracle(params, RateProfile.of(alpha1), cfg)
        assert r == r_want
        assert np.array_equal(path, path_want)

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
        sol = solve_profile(base, prof, FAST)
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
        sol = solve_profile(base, RateProfile.of(0.4), FAST)
        report = check_feasibility(base, sol)
        assert report.passed
        assert report.rate_violation <= 1e-6

    def test_doctored_power_flagged(self, base):
        sol = solve_profile(base, RateProfile.of(0.4), FAST)
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
        sol = solve_profile(base, RateProfile.of(0.4), FAST)
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
