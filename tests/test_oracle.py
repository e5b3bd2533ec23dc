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
from scipy.integrate import quad

from uavbc import (
    GridTooCoarse,
    RatePair,
    RateProfile,
    channel_gain,
    dp_trajectory_oracle,
    grid_power_oracle,
    hfh_position,
    intersection_point,
    make_hfh,
    numeric_intersection_oracle,
    solve_profile,
    solve_v0,
    tdma_rates,
    tdma_solve_profile,
    triangle_contains,
)
from uavbc import oracle
from uavbc.core import LOG2, gain_pair
from uavbc.hfh_solver import BoundarySolution, PowerSchedule, _sc_rates, _split_frame, _strong_power
from uavbc.tdma_solver import TdmaSolution
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
        """The last two straddling pairs tie the gains at one end: at xB
        (the quadratic's A2 = 0), then at xC (A0 = 0)."""
        pairs = [(500.0, 250.0, 1e-6), (300.0, -200.0, 1e-6), (-100.0, -400.0, 1e-6), (450.0, 0.0, 1e-6),
                 (1e-300, -200.0, 1e-12), (300.0, -1e-300, 1e-12)]
        for xB, xC, tol in pairs:
            closed = intersection_point(base, xB, xC)
            numeric = numeric_intersection_oracle(base, xB, xC)
            assert numeric.r1 == pytest.approx(closed.r1, abs=tol)
            assert numeric.r2 == pytest.approx(closed.r2, abs=tol)

    def test_symmetric_pair_on_diagonal(self, base):
        res = numeric_intersection_oracle(base, 260.0, -260.0)
        assert res.r1 == pytest.approx(res.r2, abs=1e-8)


def _halving_rescore(params, positions, profile):
    """The rescoring `_path_profile_value` ran before `balance_weight`: 60
    halvings of the path's imbalance on [0, 1] after both ends, the best
    iterate kept, and the final bracket's time share."""
    frame = _split_frame(*gain_pair(params, positions), params.Pbar)
    a1, a2 = profile.alpha1, profile.alpha2

    def agg(mu):
        ps = _strong_power(frame, mu, params.Pbar)
        r1, r2 = _sc_rates(*frame[:3], ps, params.Pbar - ps)
        return float(r1.mean() / LOG2), float(r2.mean() / LOG2)

    lo, hi, best = 0.0, 1.0, 0.0
    pair_lo, pair_hi = agg(lo), agg(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        r1, r2 = agg(mid)
        best = max(best, profile.rate_scale(r1, r2))
        if a2 * r1 - a1 * r2 <= 0.0:
            lo, pair_lo = mid, (r1, r2)
        else:
            hi, pair_hi = mid, (r1, r2)
    gL = a2 * pair_lo[0] - a1 * pair_lo[1]
    gH = a2 * pair_hi[0] - a1 * pair_hi[1]
    if gL <= 0.0 <= gH and gH - gL > 0.0:
        lam = gH / (gH - gL)
        r1 = lam * pair_lo[0] + (1.0 - lam) * pair_hi[0]
        r2 = lam * pair_lo[1] + (1.0 - lam) * pair_hi[1]
        best = max(best, profile.rate_scale(r1, r2))
    return best


@pytest.fixture(scope="module")
def criterion6_paths(base):
    """(params, [(profile, path)]) of criterion 6's DP paths, at profiles
    i / 7 and the benchmark's DpConfig, on the reference channel and two
    low-SNR ones."""
    out = {}
    for name, change in {"reference": {}, "Pbar=1e-5": {"Pbar": 1e-5}, "H=3e4": {"H": 3e4}}.items():
        params, profiles = replace(base, **change), [RateProfile.of(i / 7) for i in range(1, 7)]
        out[name] = params, [(p, dp_trajectory_oracle(params, p, DpConfig(64, 51, 11))[1]) for p in profiles]
    return out


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
            # them, r as `balance_weight`'s rescoring gives it: the
            # benchmark's own config
            ("base", DpConfig(64, 51, 11), 3 / 7, 5.261568200207684,
             np.r_[[492.0] * 18, 472.0 - 28.0 * np.arange(35), [-500.0] * 11]),
            # an odd slot count: the last slot's values follow an odd slot's
            ("base", DpConfig(33, 26, 7, 2048), 0.4, 5.255863308078171,
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

    def test_shared_forward_pass_is_exact(self, base):
        """Criterion 6's profiles give the same (r, path), bit for bit, from
        a cold forward pass (cache cleared) and from the one an earlier
        profile built, in either order."""
        cfg = DpConfig(64, 51, 11)
        cold = {}
        for i in range(1, 7):
            oracle._dp_forward.cache_clear()
            cold[i] = dp_trajectory_oracle(base, RateProfile.of(i / 7), cfg)
        oracle._dp_forward.cache_clear()
        for i in [*range(1, 7), *range(6, 0, -1)]:
            r, path = dp_trajectory_oracle(base, RateProfile.of(i / 7), cfg)
            assert r == cold[i][0]
            assert np.array_equal(path, cold[i][1])

    def test_one_forward_pass_serves_a_channel(self, base, monkeypatch):
        """Profiles on one (params, cfg) share one forward pass, a new cfg
        builds its own, and corner profiles build none."""
        calls = []
        real = oracle._DpStages.forward
        monkeypatch.setattr(oracle._DpStages, "forward",
                            lambda self, widths: calls.append(len(widths)) or real(self, widths))
        oracle._dp_forward.cache_clear()
        for alpha1 in (0.0, 0.2, 0.5, 0.8, 1.0):
            dp_trajectory_oracle(base, RateProfile.of(alpha1), DpConfig(16, 21, 5, 128))
        assert calls == [16]
        for alpha1 in (0.3, 0.6):
            dp_trajectory_oracle(base, RateProfile.of(alpha1), DpConfig(17, 21, 5, 128))
        assert calls == [16, 17]

    def test_memoized_windows_are_exact(self, base):
        """`_DpStages.values` sliced from a block's memoized windows equals a
        fresh recomputation bit for bit, on seeded chains of requests like
        the backtrack's and on requests outside the memo, which recompute
        it."""
        fwd = oracle._dp_forward(base, DpConfig(64, 51, 11))
        stages, hist = fwd.stages, fwd.hist
        R, step, P = stages.reach, stages.step, len(fwd.xs)
        rng = np.random.default_rng(34)

        def check(memo, i, j, k):
            args = (hist, i, j - R, j + R + 1, k - step, k + 1)
            got = stages.values(*args, memo)
            assert np.array_equal(got, stages.values(*args, {}))

        for block in rng.choice(16, size=6, replace=False):
            top = 4 * int(block) + 3
            memo = {}
            j, k = int(rng.integers(P)), int(rng.integers(top * step))
            first = j, k
            for i in range(top, top - 3, -1):
                check(memo, i, j, k)
                j = min(max(j + int(rng.integers(-R, R + 1)), 0), P - 1)
                k = max(k - int(rng.integers(step + 1)), 0)
            assert sorted(memo) == [top - 2, top - 1, top]
            # one bin past the block's first request, and 2R + 1 rows off it
            for i, j, k in [(top, first[0], first[1] + 1),
                            (top - 1, (first[0] + 2 * R + 1) % P, first[1])]:
                before = memo[i][1]
                check(memo, i, j, k)
                assert memo[i][1] is not before

    def test_backtrack_recomputes_each_dropped_slot_once(self, base, monkeypatch):
        """A warm call at the benchmark's config runs the reward stage on one
        window per dropped slot: 3 in each of its 16 blocks of 4 slots."""
        cfg = DpConfig(64, 51, 11)
        oracle._dp_forward(base, cfg)
        calls = []
        real = oracle._DpStages.reward
        monkeypatch.setattr(oracle._DpStages, "reward",
                            lambda self, w, value, row0=0: calls.append(row0) or real(self, w, value, row0))
        for i in range(1, 7):
            calls.clear()
            dp_trajectory_oracle(base, RateProfile.of(i / 7), cfg)
            assert len(calls) == 48

    @pytest.mark.parametrize("channel", ["reference", "Pbar=1e-5", "H=3e4"])
    def test_rescoring_matches_halving(self, criterion6_paths, channel):
        """`_path_profile_value` is within 4 ulps of the 60-halving
        rescoring on criterion 6's paths."""
        params, paths = criterion6_paths[channel]
        for prof, path in paths:
            want = _halving_rescore(params, path, prof)
            assert abs(oracle._path_profile_value(params, path, prof) - want) <= 4.0 * math.ulp(want)

    def test_rescoring_work(self, criterion6_paths, monkeypatch):
        """Rescoring a criterion-6 path on the reference channel evaluates at
        most 16 weights, against 62 for the halving rescoring."""
        calls = []
        real = oracle._strong_power
        monkeypatch.setattr(oracle, "_strong_power", lambda *args: calls.append(1) or real(*args))
        params, paths = criterion6_paths["reference"]
        for prof, path in paths:
            calls.clear()
            oracle._path_profile_value(params, path, prof)
            assert 0 < len(calls) <= 16

    def test_a_new_channel_evicts_the_last(self, base):
        """The cache holds one forward pass: after a second (params, cfg),
        the traced memory stays within that one's history plus 1 MB, without
        the cyclic collector, so the first history (~3.8 MB) is freed.  The
        cached arrays are read-only."""
        prof = RateProfile.of(0.4)
        first, second = DpConfig(32, 26, 7, 8192), DpConfig(31, 26, 7, 8192)
        oracle._dp_forward.cache_clear()
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dp_trajectory_oracle(base, prof, first)
            dp_trajectory_oracle(base, prof, second)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        fwd = oracle._dp_forward(base, second)
        kept = [v for v in fwd.hist if v is not None]
        assert after - before <= sum(v.nbytes for v in kept) + (1 << 20)
        stages = fwd.stages
        arrays = [fwd.xs, *kept, *stages.shifts, *stages.gains]
        assert not any(a.flags.writeable for a in arrays)

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

    @pytest.mark.parametrize("late", [True, False], ids=["t1-after-T", "t1-before-0"])
    def test_tdma_switch_outside_flight_flagged(self, base, late):
        """A switch time 0.5 T past either end serves no user longer than
        the whole flight: a claim 10% above that user's whole-flight rate
        (r1 2.618 against 2.380 at t1 = 1.5 T) fails: hover time outside
        [0, T] does not count."""
        sol = tdma_solve_profile(base, RateProfile.of(0.3))
        t1 = 1.5 * base.T if late else -0.5 * base.T
        whole = tdma_rates(base, sol.trajectory, base.T if late else 0.0)
        claim = RatePair(1.1 * whole.r1, 0.0) if late else RatePair(0.0, 1.1 * whole.r2)
        report = check_feasibility(base, TdmaSolution(sol.profile, claim, sol.trajectory, t1))
        assert not report.passed
        assert report.integrals == (whole.r1, whole.r2, whole.r1 + whole.r2)

    def test_sc_reintegration_converges_across_the_cut(self, base):
        """A hover-both flight crosses x = 0, where the strong user flips:
        I1 and I2 with every slot split in 4 and in 64 agree to 1e-12
        relative (a rule with nodes on the cut moves them by 3.3e-6)."""
        params = replace(base, V=60.0)
        sol = solve_profile(params, RateProfile.of(0.2))
        assert sol.diagnostics["polish"] == "hover_both"
        p1, p2 = sol.schedule.p1, sol.schedule.p2
        coarse, fine = (oracle._inequality_integrals(params, sol.trajectory, np.repeat(p1, k), np.repeat(p2, k))
                        for k in (4, 64))
        assert coarse == pytest.approx(fine, rel=1e-12, abs=0.0)

    def test_long_tdma_flight_passes_at_1e9(self, base):
        """A 2,906 m flight (Pbar = 1e-2 W, H = 100 m, D = 3000 m, T = 200 s,
        alpha1 = 0.1): a fixed 257-node Simpson missed r1 by 1.73e-9 here."""
        params = replace(base, D=3000.0, T=200.0)
        sol = tdma_solve_profile(params, RateProfile.of(0.1))
        assert sol.trajectory.x_F - sol.trajectory.x_I > 2900.0
        assert check_feasibility(params, sol, tolerance=1e-9).passed

    @pytest.mark.parametrize("Pbar", [1e-5, 10.0])
    @pytest.mark.parametrize("H, D", [(10.0, 3000.0), (100.0, 3000.0), (200.0, 1000.0)])
    def test_tdma_integrals_match_quad(self, base, Pbar, H, D):
        """The TDMA windows' re-integration, `tdma_rates`, agrees with
        adaptive quadrature to 1e-12, on flights of up to 558 panels."""
        params = replace(base, Pbar=Pbar, H=H, D=D, T=200.0)
        traj = make_hfh(params, -0.45 * D, 0.48 * D, 10.0)
        fly = (traj.t_I, params.T - traj.t_F)

        def window(user, a, b):
            def rate(t):
                return math.log2(1.0 + params.Pbar * channel_gain(params, hfh_position(traj, params, t), user))

            points = [t for t in fly if a < t < b] or None
            return quad(rate, a, b, points=points, epsabs=0.0, epsrel=1e-13, limit=500)[0] / params.T

        for t1 in (5.0, 60.0, 150.0):
            pair = tdma_rates(params, traj, t1)
            assert pair.r1 == pytest.approx(window(1, 0.0, t1), rel=1e-12, abs=0.0)
            assert pair.r2 == pytest.approx(window(2, t1, params.T), rel=1e-12, abs=0.0)
            report = check_feasibility(params, TdmaSolution(RateProfile.of(0.5), pair, traj, t1))
            assert report.integrals == (pair.r1, pair.r2, pair.r1 + pair.r2)

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
