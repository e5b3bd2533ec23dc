import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from uavbc import (
    HfhTrajectory,
    RateProfile,
    TimeOutOfRange,
    channel_gain,
    hfh_position,
    make_hfh,
    solve_profile,
    solve_t1,
    tdma_rates,
    tdma_solve_profile,
    tdma_trace_region,
)
from uavbc import tdma_solver
from uavbc.numerics import golden_max
from uavbc.oracle import check_feasibility
from uavbc.tdma_solver import CumulativeRates, TdmaSearchConfig

PEAK = 6.6582114827517955
FAST_TDMA = TdmaSearchConfig(x_grid=33, ti_grid=9)


class TestTdmaRates:
    def test_no_time_for_user1(self, base):
        traj = make_hfh(base, -500.0, 500.0, 10.0)
        pair = tdma_rates(base, traj, 0.0)
        assert pair.r1 == 0.0
        assert pair.r2 > 0.0

    def test_hover_left_split_half(self, static):
        traj = make_hfh(static, -500.0, -500.0, static.T)
        pair = tdma_rates(static, traj, static.T / 2)
        assert pair.r1 == pytest.approx(PEAK / 2, abs=1e-9)
        assert pair.r2 == pytest.approx(0.4964201042135669, abs=1e-9)

    def test_hover_left_all_user1(self, static):
        traj = make_hfh(static, -500.0, -500.0, static.T)
        pair = tdma_rates(static, traj, static.T)
        assert pair.r1 == pytest.approx(PEAK, abs=1e-9)
        assert pair.r2 == 0.0

    def test_out_of_range(self, base):
        traj = make_hfh(base, 0.0, 0.0, base.T)
        with pytest.raises(TimeOutOfRange):
            tdma_rates(base, traj, base.T * 1.5)

    def test_cumulative_matches_adaptive(self, base):
        traj = make_hfh(base, -500.0, 420.0, 7.0)
        cum = CumulativeRates(base, traj)
        for t1 in (0.0, 11.0, 29.5, 47.0, base.T):
            fast = cum.pair_at(t1)
            exact = tdma_rates(base, traj, t1)
            assert fast.r1 == pytest.approx(exact.r1, rel=1e-10)
            assert fast.r2 == pytest.approx(exact.r2, rel=1e-10)

    def test_cumulative_matches_adaptive_at_low_snr(self, base):
        """A pure flight at Pbar = 1e-5, D = 3000; alpha1 = 0.1 switches at
        t1 ~ 0.0327 s, a metre into the flight, where a linear interpolation
        of a cumulative table under-reports r1 by 5.7e-5."""
        params = replace(base, Pbar=1e-5, D=3000.0)
        traj = make_hfh(params, -1425.0, 375.0, 0.0)
        cum = CumulativeRates(params, traj)
        assert solve_t1(params, traj, RateProfile.of(0.1), cum=cum) == pytest.approx(0.0327, abs=1e-4)
        for t1 in (0.0327, 0.5, 17.0, 41.3, params.T):
            fast = cum.pair_at(t1)
            exact = tdma_rates(params, traj, t1)
            assert fast.r1 == pytest.approx(exact.r1, rel=1e-10)
            assert fast.r2 == pytest.approx(exact.r2, rel=1e-10)


class TestSolveT1:
    def test_symmetric_trajectory(self, base):
        t_hover = 0.5 * (base.T - base.D / base.V)
        traj = make_hfh(base, -500.0, 500.0, t_hover)
        t1 = solve_t1(base, traj, RateProfile.of(0.5))
        assert t1 == pytest.approx(base.T / 2, rel=1e-6)

    def test_corner(self, base):
        traj = make_hfh(base, -500.0, 500.0, 10.0)
        assert solve_t1(base, traj, RateProfile.of(0.0)) == 0.0
        assert solve_t1(base, traj, RateProfile.of(1.0)) == base.T

    def test_matches_dense_scan(self, base):
        prof = RateProfile.of(0.35)
        traj = make_hfh(base, -500.0, 250.0, 20.0)
        cum = CumulativeRates(base, traj)
        t1 = solve_t1(base, traj, prof, cum=cum)
        grid = np.linspace(0.0, base.T, 100001)
        gaps = [
            abs(prof.alpha2 * cum.pair_at(t).r1 - prof.alpha1 * cum.pair_at(t).r2)
            for t in grid[:: 1000]
        ]  # coarse pre-scan to bracket, then the fine window
        k = int(np.argmin(gaps)) * 1000
        window = grid[max(k - 1000, 0) : min(k + 1000, len(grid))]
        fine = [
            abs(prof.alpha2 * cum.pair_at(t).r1 - prof.alpha1 * cum.pair_at(t).r2)
            for t in window
        ]
        best = window[int(np.argmin(fine))]
        assert abs(t1 - best) <= (grid[1] - grid[0]) + 1e-9


class TestTdmaSolveProfile:
    def test_corner(self, base):
        sol = tdma_solve_profile(base, RateProfile.of(0.0))
        assert sol.trajectory.x_I == sol.trajectory.x_F == 500.0
        assert sol.rate_pair.r2 == pytest.approx(PEAK, abs=1e-9)
        assert sol.t1 == 0.0

    def test_dominated_by_sc_at_v0(self, static):
        prof = RateProfile.of(0.5)
        td = tdma_solve_profile(static, prof, FAST_TDMA)
        sc = solve_profile(static, prof)
        assert td.rate_pair.r1 == pytest.approx(td.rate_pair.r2, rel=1e-4)
        assert td.r <= sc.r + 1e-6

    def test_beats_hover_only_schedule(self, base):
        sol = tdma_solve_profile(base, RateProfile.of(0.5), FAST_TDMA)
        assert sol.rate_pair.r1 >= 1.4796025517226212 - 1e-9
        assert check_feasibility(base, sol).passed

    def test_hover_exclusion(self, base):
        """With V > 0, hovering happens only above a user."""
        for a1 in (0.1, 0.3, 0.5):
            sol = tdma_solve_profile(base, RateProfile.of(a1), FAST_TDMA)
            traj = sol.trajectory
            if traj.t_I > 1e-6:
                assert abs(traj.x_I) == pytest.approx(500.0, abs=1e-6)
            if traj.t_F > 1e-6:
                assert abs(traj.x_F) == pytest.approx(500.0, abs=1e-6)

    @pytest.mark.parametrize(
        "Pbar, D, Ts, alphas",
        [
            pytest.param(1e-2, 1000.0, (20.0, 60.0, 200.0, 400.0),
                         (0.05, 0.1, 0.2, 0.3, 0.4, 0.5), id="reference-scan"),
            pytest.param(1e-5, 3000.0, (60.0, 200.0), (0.02, 0.1, 0.3, 0.5), id="low-snr"),
        ],
    )
    def test_search_value_is_reported_value(self, base, Pbar, D, Ts, alphas):
        """The value the search maximizes is the reported one: both are
        `CumulativeRates.pair_at` at the winner."""
        for T in Ts:
            for alpha1 in alphas:
                sol = tdma_solve_profile(replace(base, Pbar=Pbar, D=D, T=T), RateProfile.of(alpha1))
                assert sol.diagnostics["search_r"] == sol.r

    @pytest.mark.parametrize("alpha1", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("T", [20.0, 60.0, 400.0])
    @pytest.mark.parametrize("V", [1e-7, 1e-9, 1e-12])
    def test_tiny_speed(self, base, V, T, alpha1):
        """Reaches V*T of 2e-11 to 4e-5 m, which the positions at the users
        do not resolve: no member's flight overruns T, and r is at least the
        fixed hovers' (V = 0)."""
        prof = RateProfile.of(alpha1)
        sol = tdma_solve_profile(replace(base, V=V, T=T), prof)
        assert sol.r >= tdma_solve_profile(replace(base, V=0.0, T=T), prof).r * (1.0 - 1e-12)

    def test_mirror(self, base):
        a = tdma_solve_profile(base, RateProfile.of(0.25), FAST_TDMA)
        b = tdma_solve_profile(base, RateProfile.of(0.75), FAST_TDMA)
        assert a.rate_pair.r1 == pytest.approx(b.rate_pair.r2, abs=1e-9)
        assert a.t1 == pytest.approx(base.T - b.t1, abs=1e-6)
        assert check_feasibility(base, b).passed


def test_tdma_trace_corners_and_nesting(base):
    reg = tdma_trace_region(base, 5, FAST_TDMA)
    assert reg.points[0].rate_pair.r2 == pytest.approx(PEAK, abs=1e-9)
    assert reg.points[-1].rate_pair.r1 == pytest.approx(PEAK, abs=1e-9)
    for p in reg.points:
        assert p.rate_pair.total <= PEAK + 1e-9  # inside the T->inf triangle


class TestTdmaExactness:
    """Default-config outputs pinned with ==, one point per winning family."""

    @pytest.mark.parametrize(
        "V, T, alpha1, r, t1, traj",
        [
            pytest.param(  # hover at both users
                30.0, 200.0, 0.1, 6.24212785729569, 24.999344061497283,
                HfhTrajectory(-500.0, 500.0, 8.33267739483063, 158.33398927183603),
                id="hover-both",
            ),
            pytest.param(  # fly, then hover above user 2
                30.0, 63.712, 0.189061, 5.3523557569537115, 15.993024212597856,
                HfhTrajectory(-476.8897037167412, 500.0, 0.0, 31.14900987610863),
                id="fly-then-hover",
            ),
            pytest.param(  # fly the whole time
                30.0, 20.0, 0.5, 3.1740369683613427, 10.000000000000007,
                HfhTrajectory(-299.9999999999999, 300.0000000000001, 0.0, 0.0),
                id="pure-flight",
            ),
            pytest.param(  # V = 0: one fixed hover
                0.0, 88.144, 0.256504, 2.8245244787625645, 55.03643088066329,
                HfhTrajectory(394.23672871066, 394.23672871066, 88.144, 0.0),
                id="static",
            ),
        ],
    )
    def test_pinned(self, base, V, T, alpha1, r, t1, traj):
        sol = tdma_solve_profile(replace(base, V=V, T=T), RateProfile.of(alpha1))
        assert sol.r == r
        assert sol.t1 == t1
        assert sol.trajectory == traj

    def test_trace_mirrors_exactly(self, base):
        points = tdma_trace_region(base, 5).points
        for i in (0, 1):  # the middle point, alpha1 = 1/2, is its own mirror
            assert points[i].rate_pair == points[-1 - i].rate_pair.swapped()


# ---------------------------------------------------------------------------
# the grid screen: its error bound and the winner it lets through
# ---------------------------------------------------------------------------


def _exhaustive_tdma(params, profile, cfg=tdma_solver.DEFAULT_TDMA_CONFIG):
    """`tdma_solve_profile` (non-mirrored, non-corner) with every grid
    candidate scored by `_evaluate`: the search without the screen."""

    def evaluate(traj):
        return tdma_solver._evaluate(params, traj, profile)

    best = None
    for fam, s, traj in tdma_solver._candidate_trajectories(params, cfg):
        r, t1, _ = evaluate(traj)
        if best is None or r > best[0]:
            best = (r, fam, s, traj, t1)
    r_best, fam, s, traj, t1 = best
    s, _ = golden_max(
        lambda v: evaluate(fam.build(v))[0],
        max(fam.lo, s - fam.step),
        min(fam.hi, s + fam.step),
        iters=50,
        xtol=fam.xtol,
    )
    cand = fam.build(s)
    r_cand, t1_cand, _ = evaluate(cand)
    if r_cand > r_best:
        r_best, traj, t1 = r_cand, cand, t1_cand
    return CumulativeRates(params, traj).pair_at(t1), traj, t1, {"case": fam.case, "search_r": r_best}


class TestScreen:
    @pytest.mark.parametrize("Pbar", [1e-5, 1e-2, 10.0])
    @pytest.mark.parametrize("H, D", [(100.0, 1000.0), (100.0, 3000.0),
                                      (200.0, 1000.0), (200.0, 3000.0)])
    def test_error_within_half_window(self, base, Pbar, H, D):
        """The exact winner survives the screen while no candidate's screen
        value is further than w / (2 + w) of the best exact value from its
        own exact value (w the window): the winner's screen value is then
        above the screen's best less w times it.

        The error is measured against the best value, not the candidate's
        own: the screen bisects t1 to 1e-9 T, while `_evaluate` finds the
        exact root, so a candidate served to user 1 for a short time reads
        a larger share of its own value off than of the best.
        """
        cfg = TdmaSearchConfig(x_grid=17, ti_grid=5)
        w = tdma_solver._SCREEN_WINDOW
        for V in (0.0, 5.0, 30.0):
            params = replace(base, Pbar=Pbar, H=H, D=D, V=V)
            trajs = [t for _, _, t in tdma_solver._candidate_trajectories(params, cfg)]
            for alpha1 in (0.01, 0.1, 0.3, 0.5):
                prof = RateProfile.of(alpha1)
                exact = np.array([tdma_solver._evaluate(params, t, prof)[0] for t in trajs])
                screen = tdma_solver._screen(params, trajs, prof)
                assert np.max(np.abs(screen - exact)) <= w / (2.0 + w) * exact.max()

    @pytest.mark.parametrize(
        "V, T, Pbar, alpha1",
        [
            pytest.param(30.0, 60.0, 1e-2, 0.5, id="mirror-families-tie"),
            pytest.param(0.0, 60.0, 1e-2, 0.3, id="static"),
            pytest.param(30.0, 1000.0 / 30.0, 1e-2, 0.3, id="reach-is-D"),
            # At high SNR the objective is flat enough that the screen's own
            # maximum is another candidate than the exact one.
            pytest.param(30.0, 20.0, 10.0, 0.5, id="screen-misranks"),
            pytest.param(5.0, 33.3, 10.0, 0.5, id="screen-misranks-tie"),
        ],
    )
    def test_matches_exhaustive_search(self, base, V, T, Pbar, alpha1):
        """The solver's winner is at least as good as the search without the
        screen, refined by golden section, and as the best point of a
        4,097-point scan of every admissible family."""
        params = replace(base, V=V, T=T, Pbar=Pbar)
        prof = RateProfile.of(alpha1)
        sol = tdma_solve_profile(params, prof)
        pair, _, _, diagnostics = _exhaustive_tdma(params, prof)
        assert sol.r >= prof.rate_scale(pair.r1, pair.r2) * (1.0 - 1e-13)
        assert sol.diagnostics["case"] == diagnostics["case"]
        for fam in tdma_solver._families(params, tdma_solver.DEFAULT_TDMA_CONFIG):
            for s in np.linspace(fam.lo, fam.hi, 4097).tolist():
                assert sol.r >= tdma_solver._evaluate(params, fam.build(s), prof)[0]


# ---------------------------------------------------------------------------
# the paper's first-order conditions at the winner
# ---------------------------------------------------------------------------


def _flight_residual(params, traj, t1):
    """f / (C1(x_s) C2(x_F)) with f = C1(x_s) C2(x_F) - C1(x_I) C2(x_s), C_k
    user k's full-power rate and x_s the position at t1: the sign of dr/ds
    when the free location s of a flight family moves."""

    def rates(x):
        return [math.log1p(params.Pbar * channel_gain(params, x, k)) for k in (1, 2)]

    c1_s, c2_s = rates(hfh_position(traj, params, t1))
    ref = c1_s * rates(traj.x_F)[1]
    return (ref - rates(traj.x_I)[0] * c2_s) / ref


@pytest.fixture(scope="module")
def foc_scan(base):
    """(params, solution, family) over 384 flights: Pbar from 1e-5 to 10 W,
    two altitudes and distances, V in {5, 30} m/s, T from 20 to 400 s."""
    out = []
    for Pbar, H, D, V, T, alpha1 in itertools.product(
        (1e-5, 1e-2, 10.0), (100.0, 200.0), (1000.0, 3000.0), (5.0, 30.0),
        (20.0, 60.0, 200.0, 400.0), (0.02, 0.1, 0.3, 0.5),
    ):
        params = replace(base, Pbar=Pbar, H=H, D=D, V=V, T=T)
        sol = tdma_solve_profile(params, RateProfile.of(alpha1))
        families = {fam.case: fam for fam in tdma_solver._families(params, tdma_solver.DEFAULT_TDMA_CONFIG)}
        out.append((params, sol, families[sol.diagnostics["case"]]))
    return out


class TestFirstOrderConditions:
    def test_hover_both_switches_at_the_center(self, foc_scan):
        """Hovering above both users, an interior optimum switches where
        C1 = C2, at x = 0."""
        switches = [
            abs(hfh_position(sol.trajectory, params, sol.t1)) / params.D
            for params, sol, fam in foc_scan
            if fam.case == 4 and sol.trajectory.t_I > 0.0 and sol.trajectory.t_F > 0.0
        ]
        assert len(switches) >= 80
        assert max(switches) <= 1e-12

    def test_symmetric_points(self, base):
        """At alpha1 = 1/2 the optimum is its own mirror image."""
        sol = tdma_solve_profile(base, RateProfile.of(0.5))
        assert sol.diagnostics["case"] == 4
        assert sol.trajectory.t_I == pytest.approx(sol.trajectory.t_F, rel=0.0, abs=1e-12 * base.T)
        assert sol.t1 == pytest.approx(base.T / 2, rel=0.0, abs=1e-12 * base.T)
        sol = tdma_solve_profile(replace(base, T=20.0), RateProfile.of(0.5))
        assert sol.diagnostics["case"] == 1
        assert sol.trajectory.x_I == pytest.approx(-300.0, rel=0.0, abs=1e-9)
        assert sol.trajectory.x_F == pytest.approx(300.0, rel=0.0, abs=1e-9)

    def test_flight_families_meet_their_first_order_condition(self, foc_scan):
        """An interior winner of families 1-3 is a root of the residual, to
        the root search's location tolerance (1e-9 D): the residual's
        90th percentile reflects it, and r's rounding (near the root r is
        flat to an ulp over ~1e-6 m, and the best point evaluated wins).
        A winner at a family end has the residual pointing out."""
        inner, ends = [], 0
        for params, sol, fam in foc_scan:
            if fam.case == 4:
                continue
            traj = sol.trajectory
            f = _flight_residual(params, traj, sol.t1)
            s = traj.x_F if fam.case == 2 else traj.x_I
            if s == fam.lo or s == fam.hi:
                assert (s == fam.lo and f <= 0.0) or (s == fam.hi and f >= 0.0)
                ends += 1
            else:
                inner.append(abs(f))
        assert len(inner) >= 250 and ends >= 5
        assert np.median(inner) <= 1e-12
        assert np.percentile(inner, 90) <= 1e-8

    def test_reports_the_residual(self, foc_scan):
        """`foc_residual` is |f| at an interior winner of families 1-3, and 0
        at a family end f points out of and for hover-both (closed form)."""
        for params, sol, fam in foc_scan:
            traj = sol.trajectory
            s = traj.x_F if fam.case == 2 else traj.x_I
            if fam.case == 4 or s == fam.lo or s == fam.hi:
                assert sol.diagnostics["foc_residual"] == 0.0
            else:
                f = _flight_residual(params, traj, sol.t1)
                assert sol.diagnostics["foc_residual"] == pytest.approx(abs(f), rel=1e-6, abs=1e-15)

    @pytest.mark.parametrize("H, Pbar, V", [(1e150, 1e-2, 0.0), (100.0, 1e-300, 0.0), (100.0, 1e-300, 30.0)])
    def test_underflowing_rates(self, base, H, Pbar, V):
        """Rates of ~1e-294 bps/Hz (H = 1e150 m; at 1e160 m H^2 overflows,
        which `validate_params` rejects) or rates whose products underflow
        (Pbar = 1e-300 W): the residuals are formed from rate ratios, and
        the winner is at least the best grid member."""
        params = replace(base, H=H, Pbar=Pbar, V=V)
        prof = RateProfile.of(0.1)
        sol = tdma_solve_profile(params, prof)
        cands = tdma_solver._candidate_trajectories(params, tdma_solver.DEFAULT_TDMA_CONFIG)
        assert sol.r >= max(tdma_solver._evaluate(params, traj, prof)[0] for _, _, traj in cands)

    @pytest.mark.parametrize("alpha1", [0.05, 0.256504, 0.5])
    def test_fixed_hover_meets_its_first_order_condition(self, static, alpha1):
        """With V = 0, r = C1 C2 / (alpha1 C2 + alpha2 C1) at the hover x, so
        r is no higher, to its rounding, a location tolerance (1e-9 D) or
        more either side."""
        prof = RateProfile.of(alpha1)
        sol = tdma_solve_profile(static, prof)
        x = sol.trajectory.x_I
        assert sol.diagnostics["foc_residual"] <= 1e-6
        for dx in (-1e-3, -1e-6, 1e-6, 1e-3):
            r = tdma_solver._evaluate(static, make_hfh(static, x + dx, x + dx, static.T), prof)[0]
            assert r <= sol.r * (1.0 + 1e-15)
