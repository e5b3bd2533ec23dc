from dataclasses import replace

import numpy as np
import pytest

from uavbc import (
    InfeasibleFlight,
    RatePair,
    RateProfile,
    ValidityError,
    fixed_boundary,
    hfh_tdma_achievable,
    region_high_snr,
    region_tinf,
    solve_profile,
    solve_v0,
)
from uavbc import asymptotic, hfh_solver
from uavbc.core import log2_1p

PEAK = 6.6582114827517955  # log2(1 + Pbar beta0 / H^2) of the base scenario


class TestRegionTinf:
    def test_sum_is_peak_everywhere(self, base):
        reg = region_tinf(base, 33)
        assert len(reg) == 33
        for p in reg.points:
            assert p.rate_pair.total == pytest.approx(base.peak_rate, abs=1e-12)
        assert base.peak_rate == pytest.approx(PEAK, abs=1e-10)

    def test_corner(self, base):
        reg = region_tinf(base, 3)
        assert reg.points[-1].profile.alpha1 == 1.0
        assert reg.points[-1].rate_pair == RatePair(base.peak_rate, 0.0)

    def test_independent_of_speed_and_distance(self, base):
        a = region_tinf(base, 5)
        b = region_tinf(replace(base, V=1.0, D=4000.0), 5)
        for pa, pb in zip(a.points, b.points):
            assert pa.rate_pair == pb.rate_pair

    def test_altitude_scaling(self, base):
        """At high SNR, doubling H costs log2(4) of sum rate."""
        big = replace(base, Pbar=1e3)
        drop = (
            region_tinf(big, 3).metadata["sum_rate"]
            - region_tinf(replace(big, H=200.0), 3).metadata["sum_rate"]
        )
        assert drop == pytest.approx(2.0, abs=1e-4)


class TestHfhTdmaAchievable:
    def test_reference_value(self, base):
        pair = hfh_tdma_achievable(base, RateProfile.of(0.5))
        assert pair.r1 == pytest.approx(1.4796025517226212, abs=1e-12)
        assert pair.r2 == pytest.approx(pair.r1, abs=1e-15)

    def test_large_T_limit(self, base):
        prof = RateProfile.of(0.3)
        pair = hfh_tdma_achievable(replace(base, T=1e9), prof)
        assert pair.r1 == pytest.approx(0.3 * PEAK, rel=1e-6)
        assert pair.r2 == pytest.approx(0.7 * PEAK, rel=1e-6)

    def test_corner_scaling(self, base):
        pair = hfh_tdma_achievable(base, RateProfile.of(0.0))
        assert pair.r1 == 0.0
        assert pair.r2 == pytest.approx((1 - 1000.0 / 1800.0) * PEAK, abs=1e-9)

    def test_infeasible_flight(self, base):
        with pytest.raises(InfeasibleFlight):
            hfh_tdma_achievable(replace(base, T=10.0), RateProfile.of(0.5))
        with pytest.raises(InfeasibleFlight):
            hfh_tdma_achievable(replace(base, V=0.0), RateProfile.of(0.5))


class TestSolveV0:
    def test_corners(self, base):
        sol = solve_v0(base, RateProfile.of(0.0))
        assert sol.x_star == 500.0
        assert sol.rate_pair.r2 == pytest.approx(PEAK, abs=1e-9)
        mirrored = solve_v0(base, RateProfile.of(1.0))
        assert mirrored.x_star == -500.0
        assert mirrored.rate_pair.r1 == pytest.approx(PEAK, abs=1e-9)

    @pytest.mark.parametrize("alpha1", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_is_solve_profile_at_rest(self, base, alpha1):
        """`solve_profile` at V = 0 viewed as a hover, field for field."""
        prof = RateProfile.of(alpha1)
        sol = solve_profile(replace(base, V=0.0), prof)
        hover = solve_v0(base, prof)
        assert hover.x_star == sol.trajectory.x_I == sol.trajectory.x_F
        assert (hover.p1, hover.p2) == (sol.schedule.p1[0], sol.schedule.p2[0])
        assert hover.rate_pair == sol.rate_pair
        assert hover.profile == prof
        assert hover.r == sol.r

    def test_equal_profile_beats_center_hover(self, base):
        sol = solve_v0(base, RateProfile.of(0.5))
        center = fixed_boundary(base, 0.0, RateProfile.of(0.5))
        assert sol.r > center.rate_pair.r2 / 0.5 + 1e-3
        assert 0.0 <= sol.x_star <= 500.0

    def test_inner_bisection_matches_grid_scan(self, base):
        """Power split at the chosen hover equals a dense scan of the
        rate-balance equation."""
        prof = RateProfile.of(0.5)
        sol = solve_v0(base, prof)
        x = sol.x_star
        h1 = base.beta0 / ((x + 500.0) ** 2 + 1e4)
        h2 = base.beta0 / ((x - 500.0) ** 2 + 1e4)
        p2s = np.linspace(0.0, base.Pbar, 10001)
        lhs = prof.alpha1 * np.log2(1.0 + p2s * h2)
        rhs = prof.alpha2 * np.log2(1.0 + (base.Pbar - p2s) * h1 / (p2s * h1 + 1.0))
        best = p2s[np.argmin(np.abs(lhs - rhs))]
        assert sol.p2 == pytest.approx(best, abs=1e-6)

    @pytest.mark.parametrize("alpha1", [0.1, 0.3, 0.5, 0.8])
    def test_reports_the_search_winner(self, base, monkeypatch, alpha1):
        """The placement's own `fixed_boundary` point is reported: a solve
        makes no call beyond `_best_hover`'s (one fewer than re-solving the
        winner), and the split equals `fixed_boundary` at x_star."""
        prof = RateProfile.of(alpha1)
        calls = 0
        boundary = hfh_solver.fixed_boundary

        def counting(*args):
            nonlocal calls
            calls += 1
            return boundary(*args)

        for module in (hfh_solver, asymptotic):  # wherever a caller looks it up
            monkeypatch.setattr(module, "fixed_boundary", counting, raising=False)
        sol = solve_v0(base, prof)
        in_solve = calls
        calls = 0
        hfh_solver._best_hover(base, prof.mirrored() if alpha1 > 0.5 else prof,
                               hfh_solver.DEFAULT_CONFIG.hover_grid)
        assert in_solve == calls > 0
        monkeypatch.undo()
        point = fixed_boundary(base, sol.x_star, prof)
        assert (sol.p1, sol.p2, sol.rate_pair) == (point.p1, point.p2, point.rate_pair)

    def test_hover_side_matches_profile(self, base):
        rng = np.random.default_rng(29)
        for _ in range(12):
            a1 = rng.uniform(0.02, 0.5)
            sol = solve_v0(base, RateProfile.of(a1))
            assert 0.0 <= sol.x_star <= 500.0
            ratio_gap = abs(
                sol.profile.alpha2 * sol.rate_pair.r1
                - sol.profile.alpha1 * sol.rate_pair.r2
            )
            assert ratio_gap <= 1e-6 * sol.r

    def test_region_contains_every_fixed_location(self, base):
        """The placement-optimized region dominates C_f(x) at each x."""
        prof = RateProfile.of(0.4)
        sol = solve_v0(base, prof)
        for x in np.linspace(-500.0, 500.0, 21):
            fixed = fixed_boundary(base, float(x), prof)
            assert sol.r >= min(
                fixed.rate_pair.r1 / prof.alpha1, fixed.rate_pair.r2 / prof.alpha2
            ) - 1e-9

    def test_mirror_dominance_construction(self, base):
        """Time sharing the mirrored point with the strong corner dominates
        any left-side hover when user 2 carries the larger weight."""
        prof = RateProfile.of(0.3)
        for x_neg in (-450.0, -300.0, -120.0):
            bp = fixed_boundary(base, x_neg, prof)
            r1, r2 = bp.rate_pair.r1, bp.rate_pair.r2
            assert r2 >= r1
            R2 = log2_1p(base.Pbar * base.beta0 / ((-x_neg - 500.0) ** 2 + 1e4))
            beta1 = (R2 - r2) / (R2 - r1)
            mixed = (beta1 * r2, beta1 * r1 + (1.0 - beta1) * R2)
            assert mixed[0] >= r1 - 1e-12
            assert mixed[1] >= r2 - 1e-12


class TestRegionHighSnr:
    def test_reference_scenario(self, base):
        strong = replace(base, Pbar=1.0)
        reg = region_high_snr(strong, 9)
        assert reg.metadata["validity_ratio"] == pytest.approx(99.0099, abs=1e-3)
        assert reg.metadata["sum_rate"] == pytest.approx(13.287712379549449, abs=1e-9)
        assert "validity_warning" in reg.metadata  # 99 < 100
        for p in reg.points:
            assert p.rate_pair.total == pytest.approx(reg.metadata["sum_rate"], abs=1e-12)
            hover = p.trajectory
            assert hover.x_I == hover.x_F
            assert abs(hover.x_I) == 500.0

    def test_independent_of_motion_inputs(self, base):
        strong = replace(base, Pbar=1.0)
        a = region_high_snr(strong, 5)
        b = region_high_snr(replace(strong, V=0.0, T=9.0), 5)
        for pa, pb in zip(a.points, b.points):
            assert pa.rate_pair == pb.rate_pair

    def test_validity_floor(self, base):
        with pytest.raises(ValidityError):
            region_high_snr(base, 5)  # ratio ~ 0.99 at 10 dBm

    def test_no_warning_when_comfortable(self, base):
        reg = region_high_snr(replace(base, Pbar=10.0), 5)
        assert "validity_warning" not in reg.metadata
