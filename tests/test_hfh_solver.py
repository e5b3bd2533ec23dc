import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from uavbc import (
    DiscretizationInvalid,
    RateProfile,
    discretize,
    hfh_tdma_achievable,
    make_hfh,
    per_slot_weighted_split,
    sc_rate_pair,
    solve_p5,
    solve_profile,
    solve_v0,
    tdma_solve_profile,
    trace_region,
    triangle_contains,
)
from uavbc import hfh_solver
from uavbc.hfh_solver import (
    DiscretizedTrajectory,
    SearchConfig,
    TrajectoryEvaluator,
    positions_at,
    split_weighted,
    validate_discretization,
)
from uavbc.oracle import check_feasibility, grid_power_oracle

PEAK = 6.6582114827517955


class TestPerSlotSplit:
    def test_all_weight_user1(self, base):
        p1, p2 = per_slot_weighted_split(base, 130.0, 1.0)
        assert p2 == 0.0 and p1 == base.Pbar

    def test_equal_gains_low_weight(self, base):
        p1, p2 = per_slot_weighted_split(base, 0.0, 0.3)
        assert p2 == base.Pbar

    def test_matches_grid_oracle(self, base):
        rng = np.random.default_rng(101)
        step = base.Pbar / 10000
        for _ in range(100):
            x = rng.uniform(-500.0, 500.0)
            mu = rng.uniform(0.0, 1.0)
            ours = per_slot_weighted_split(base, x, mu)
            scan = grid_power_oracle(base, x, mu)
            assert abs(ours[0] - scan[0]) <= step + 1e-12

    def test_near_tie_at_half_weight(self):
        """At mu = 1/2 the interior split divides by zero; on gains tied to
        within 1e-12 rounding can make the weighted derivative positive at
        0 yet negative at Pbar, so the split takes that value's clamp.  It
        must still be a power in [0, Pbar] and lose no more than rounding
        against the better single-user corner."""
        rng = np.random.default_rng(7)
        reached = 0
        for Pbar in (1e-4, 3.3e-3, 1e-2, 1.0, 100.0):
            hw = rng.uniform(80.0, 1e4, 100_000)
            hs = hw * (1.0 + rng.uniform(0.0, 1e-12, hw.size))
            a, b = 0.5 * hs, 0.5 * hw
            reached += np.sum((a - b > 0.0) & (a * (1.0 + Pbar * hw) - b * (1.0 + Pbar * hs) < 0.0))
            for h1, h2 in ((hw, hs), (hs, hw)):
                p1, p2 = split_weighted(h1, h2, 0.5, Pbar)
                assert np.all(np.isfinite(p1)) and np.all((p1 >= 0.0) & (p1 <= Pbar))
                strong2 = h2 >= h1
                r1 = np.where(strong2, np.log1p(p1 * h1 / (p2 * h1 + 1.0)), np.log1p(p1 * h1))
                r2 = np.where(strong2, np.log1p(p2 * h2), np.log1p(p2 * h2 / (p1 * h2 + 1.0)))
                corner = np.log1p(Pbar * hs)
                assert np.all(r1 + r2 >= corner * (1.0 - 1e-12))
        assert reached > 0


def _random_p5_cases(base, rng, n):
    """(params, HFH trajectory, profile) with random T, endpoints, hover
    split and non-corner profile; some flights cross x = 0."""
    cases = []
    for _ in range(n):
        params = replace(base, T=float(rng.choice([20.0, 60.0, 200.0])))
        span = min(params.V * params.T, params.D) * rng.uniform(0.05, 1.0)
        x_I = rng.uniform(-0.5 * params.D, 0.5 * params.D - span)
        t_I = rng.uniform(0.0, params.T - span / params.V)
        traj = make_hfh(params, x_I, x_I + span, t_I)
        cases.append((params, traj, RateProfile.of(float(rng.uniform(0.05, 0.95)))))
    return cases


def _plain_bisection_r(ev, profile, mu_tol, max_iter):
    """Best r over the iterates of a plain bisection of mu on [0, 1]."""
    a1, a2 = profile.alpha1, profile.alpha2
    lo, hi, best = 0.0, 1.0, -math.inf
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        _, _, r1, r2 = ev.solve_weight(mid)
        r = profile.rate_scale(r1, r2)
        best = max(best, r)
        if abs(r1 / a1 - r2 / a2) <= mu_tol * max(r, 1e-12):
            break
        if a2 * r1 - a1 * r2 <= 0.0:
            lo = mid
        else:
            hi = mid
    return best


class TestSolveP5:
    def test_equal_gain_hover_tie(self, base):
        disc = discretize(base, make_hfh(base, 0.0, 0.0, base.T), 64)
        res = solve_p5(base, disc, RateProfile.of(0.5))
        assert res.rate_pair.r1 == pytest.approx(1.1384201026794123, abs=1e-7)
        assert res.rate_pair.r2 == pytest.approx(res.rate_pair.r1, abs=1e-7)

    def test_corner(self, base):
        disc = discretize(base, make_hfh(base, 500.0, 500.0, base.T), 16)
        res = solve_p5(base, disc, RateProfile.of(0.0))
        assert res.rate_pair.r1 == 0.0
        assert res.rate_pair.r2 == pytest.approx(PEAK, abs=1e-9)

    def test_full_power_every_slot(self, base):
        disc = discretize(base, make_hfh(base, -400.0, 350.0, 8.0), 128)
        res = solve_p5(base, disc, RateProfile.of(0.35))
        total = res.schedule.p1 + res.schedule.p2
        assert np.allclose(total, base.Pbar, rtol=1e-12)

    def test_mu_sweep_monotone(self, base):
        ev = TrajectoryEvaluator.exact(base, make_hfh(base, -450.0, 300.0, 12.0), 128)
        r1_prev, r2_prev = -1.0, np.inf
        for mu in np.linspace(0.0, 1.0, 21):
            _, _, r1, r2 = ev.solve_weight(float(mu))
            assert r1 >= r1_prev - 1e-12
            assert r2 <= r2_prev + 1e-12
            r1_prev, r2_prev = r1, r2

    def test_profile_ratio_met(self, base):
        disc = discretize(base, make_hfh(base, -450.0, 300.0, 12.0), 256)
        prof = RateProfile.of(0.37)
        res = solve_p5(base, disc, prof)
        assert abs(res.rate_pair.r1 / prof.alpha1 - res.rate_pair.r2 / prof.alpha2) <= (
            1e-6 * res.r
        )

    @pytest.mark.parametrize(
        "V, T, alpha1, x",
        [
            (0.0, 60.0, 0.3, 391.4151909817422),
            (0.0, 60.0, 0.5, -202.28580606261164),
            (30.0, 20.0, 0.2, 457.9352323251564),
        ],
    )
    def test_hover_matches_hover_value(self, base, V, T, alpha1, x):
        """On a pure hover every slot is the hover, so P5's optimum is
        `_hover_value`'s.  The balance stop bounds the shortfall by mu_tol;
        P5 is achievable, so it is not above the hover value beyond
        rounding."""
        params, prof = replace(base, V=V, T=T), RateProfile.of(alpha1)
        hover = hfh_solver._hover_value(params, x, prof)
        res = solve_p5(params, discretize(params, make_hfh(params, x, x, T), 512), prof)
        assert hover * (1.0 - SearchConfig().mu_tol) <= res.r <= hover * (1.0 + 1e-14)

    def test_warm_matches_cold(self, base):
        """Warm starts, from the root or up to 0.05 away from it, reach the
        cold start's value within 1e-9 of r, and both end balanced to
        mu_tol unless the tie-break blend fired or an unbalanced iterate with
        higher r is reported."""
        cfg = SearchConfig()
        rng = np.random.default_rng(23)
        for params, traj, prof in _random_p5_cases(base, rng, 12):
            ev = TrajectoryEvaluator.exact(params, traj, 256)
            cold = hfh_solver._solve_p5_on(params, ev, prof, cfg.mu_tol, cfg.mu_max_iter)
            for offset in (0.0, 3e-5, -2e-3, 0.05):
                guess = min(max(cold.mu + offset, 0.0), 1.0)
                warm = hfh_solver._solve_p5_on(
                    params, ev, prof, cfg.mu_tol, cfg.mu_max_iter, guess=guess
                )
                assert abs(warm.r - cold.r) <= 1e-9 * cold.r
                for res in (cold, warm):
                    skew = abs(res.rate_pair.r1 / prof.alpha1 - res.rate_pair.r2 / prof.alpha2)
                    assert res.tie_break or res.unbalanced or skew <= cfg.mu_tol * res.r

    def test_unbalanced_iterate_is_no_tie_break(self, base):
        """A golden step of the T = 200 s, alpha1 = 0.1 solve reports an
        iterate just off the balance stop because it has the higher r:
        that is flagged `unbalanced`; `tie_break` is only the blend's."""
        params, prof = replace(base, T=200.0), RateProfile.of(0.1)
        traj = make_hfh(params, -500.0, 500.0, 8.33328396123981)
        ev = TrajectoryEvaluator.exact(params, traj, 512)
        cfg = SearchConfig()
        res = hfh_solver._solve_p5_on(
            params, ev, prof, cfg.mu_tol, cfg.mu_max_iter, guess=0.49767663485116576
        )
        assert res.unbalanced and not res.tie_break
        skew = abs(res.rate_pair.r1 / prof.alpha1 - res.rate_pair.r2 / prof.alpha2)
        assert skew > cfg.mu_tol * res.r

    def test_at_least_plain_bisection(self, base):
        """Against the best iterate of a plain bisection stopped at a 1e-6
        balance, the solver's earlier form: never lower by more than the
        1e-9 stop allows (a bisection iterate can land nearer the root, as
        1 of 1,600 random cases did, by 3.5e-11), and not lower at all on
        at least 20 of 24 cases."""
        cfg = SearchConfig()
        rng = np.random.default_rng(29)
        at_least = 0
        for params, traj, prof in _random_p5_cases(base, rng, 24):
            ev = TrajectoryEvaluator.exact(params, traj, 256)
            res = hfh_solver._solve_p5_on(params, ev, prof, cfg.mu_tol, cfg.mu_max_iter)
            ref = _plain_bisection_r(ev, prof, 1e-6, 60)
            assert res.r >= ref * (1.0 - cfg.mu_tol)
            at_least += res.r >= ref
        assert at_least >= 20

    def test_plateau_is_where_every_strong_user_gets_all_power(self, base):
        """Inside `plateau()` every slot gives all power to its stronger
        user; a weight 1e-9 outside an edge that is not 0 or 1 moves some
        slot off that corner."""
        rng = np.random.default_rng(31)
        for params, traj, _ in _random_p5_cases(base, rng, 12):
            ev = TrajectoryEvaluator.exact(params, traj, 256)
            lo, hi = ev.plateau()
            assert lo <= 0.5 <= hi
            for mu in (lo + 1e-12, 0.5 * (lo + hi), hi - 1e-12):
                assert np.all(hfh_solver._strong_power(ev.frame, mu, params.Pbar) == params.Pbar)
            for mu in [w for w, edge in ((lo - 1e-9, lo), (hi + 1e-9, hi)) if 0.0 < edge < 1.0]:
                assert np.any(hfh_solver._strong_power(ev.frame, mu, params.Pbar) < params.Pbar)

    def test_root_beside_the_plateau_takes_few_solves(self, base):
        """The search reports this flight with one P5 solve, warm-started at
        the midpoint of the polish pick's weight bracket (14 weight solves
        cold).  The trajectory the slot-aligned search used to report here
        balances on the plateau, so its P5 root lies just outside it;
        bracket ends left on the flat would make regula falsi crawl (27
        weight solves cold and 27 warm from inside the plateau, against 12
        and 6)."""
        params = replace(base, T=200.0)
        prof = RateProfile.of(0.1)
        sol = solve_profile(params, prof)
        assert sol.diagnostics["p5_calls"] == 1
        assert sol.diagnostics["weight_solves"] == 6
        cfg = SearchConfig()
        traj = make_hfh(params, -500.0, 500.0, 8.33231542768917)
        ev = TrajectoryEvaluator.exact(params, traj, cfg.n_slots)
        cold = hfh_solver._solve_p5_on(params, ev, prof, cfg.mu_tol, cfg.mu_max_iter)
        warm = hfh_solver._solve_p5_on(params, ev, prof, cfg.mu_tol, cfg.mu_max_iter, guess=0.5)
        assert cold.iterations <= 12
        assert warm.iterations <= 10

    def test_rejects_bad_discretization(self, base):
        jumpy = DiscretizedTrajectory(
            np.array([-500.0, 500.0, -500.0]), base.T / 3, None
        )
        with pytest.raises(DiscretizationInvalid):
            solve_p5(base, jumpy, RateProfile.of(0.5))
        outside = DiscretizedTrajectory(np.array([0.0, 700.0]), base.T / 2, None)
        with pytest.raises(DiscretizationInvalid):
            validate_discretization(base, outside)


class TestSolveProfile:
    def test_corner_hovers_at_user(self, base):
        sol = solve_profile(base, RateProfile.of(0.0))
        assert sol.trajectory.x_I == sol.trajectory.x_F == 500.0
        assert sol.rate_pair.r2 == pytest.approx(PEAK, abs=1e-9)

    @pytest.mark.parametrize("alpha1", [0.0, 1.0])
    def test_corner_reports_peak_rate(self, base, monkeypatch, alpha1):
        """A corner is the served user's fixed-location point: the peak
        rate at weight 0 or 1, all power to that user, no P5."""
        monkeypatch.setattr(hfh_solver, "_solve_p5_on", None)
        sol = solve_profile(base, RateProfile.of(alpha1))
        peak = base.peak_rate
        assert sol.r == peak
        assert sol.mu == alpha1
        assert (sol.rate_pair.r1, sol.rate_pair.r2) == ((peak, 0.0) if alpha1 else (0.0, peak))
        assert np.all(sol.schedule.p1 == alpha1 * base.Pbar)
        assert np.all(sol.schedule.p2 == (1.0 - alpha1) * base.Pbar)

    def test_equal_rate_bracketed(self, base):
        sol = solve_profile(base, RateProfile.of(0.5))
        lower = hfh_tdma_achievable(base, RateProfile.of(0.5)).r1
        assert lower - 1e-9 <= sol.rate_pair.r1 <= PEAK / 2 + 1e-9
        assert sol.rate_pair.r2 == pytest.approx(sol.rate_pair.r1, rel=1e-5)

    def test_v0_matches_placement_solver(self, static):
        prof = RateProfile.of(0.5)
        sol = solve_profile(static, prof)
        hover = solve_v0(static, prof)
        assert sol.trajectory.x_I == sol.trajectory.x_F == hover.x_star
        assert sol.r == hover.r

    def test_speed_feasible_and_checked(self, base):
        sol = solve_profile(base, RateProfile.of(0.3))
        flight = sol.trajectory.span / base.V
        assert sol.trajectory.t_I + flight + sol.trajectory.t_F == pytest.approx(
            base.T, rel=1e-9
        )
        report = check_feasibility(base, sol)
        assert report.passed, report

    def test_losing_flight_reports_the_hover(self, base):
        """On two slots the polished flight's P5 value falls within the tie
        of the best hover, so the hover is reported from its own
        `fixed_boundary` point, with no second P5 solve."""
        sol = solve_profile(replace(base, T=30.0), RateProfile.of(0.2), SearchConfig(n_slots=2))
        d = sol.diagnostics
        assert d["polish_value"] > d["hover_r"] * (1.0 + 1e-6)
        assert d["p5_calls"] == 1
        assert sol.trajectory.x_I == sol.trajectory.x_F
        assert sol.r == d["hover_r"]

    @pytest.mark.parametrize("alpha1", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("H", [3e5, 1e6, 1e7])
    def test_near_tied_gains(self, base, H, alpha1):
        """So high above the users their gains differ by ~4e-9 relative, and
        the imbalance jumps at a weight with no double strictly inside P5's
        final bracket: the blend keeps r at least at the hover value its
        own search found (r was 0.0 at H = 1e7 m without it)."""
        params = replace(base, H=H)
        sol = solve_profile(params, RateProfile.of(alpha1))
        assert sol.r >= sol.diagnostics["hover_r"] * (1.0 - 2e-15)
        report = check_feasibility(params, sol, tolerance=1e-9)
        assert report.passed, report

    @pytest.mark.parametrize("alpha1", [0.05, 0.3])
    @pytest.mark.parametrize("Pbar", [1e-24, 1e-30])
    def test_tiny_power(self, base, Pbar, alpha1):
        """At so low a power every rate is ~1e-20 bps/Hz or less.  The tie
        with the hover and P5's balance are relative, so a flight still
        replaces the hover (an absolute 1e-12 bps/Hz floor in the tie kept
        the hover, 72% and 92% below TDMA) and P5 ends balanced: each
        slot's interior split spans less than a double's spacing of
        weights, so the blend across the final bracket balances it."""
        params, prof = replace(base, Pbar=Pbar), RateProfile.of(alpha1)
        sol = solve_profile(params, prof)
        assert sol.diagnostics["p5_calls"] == 1
        assert not sol.diagnostics["unbalanced"]
        assert sol.r >= tdma_solve_profile(params, prof).r * (1.0 - 1e-6)
        report = check_feasibility(params, sol, tolerance=1e-9)
        assert report.passed, report

    def test_optimal_pair_satisfies_hull_condition(self, base):
        """Intermediate hover locations are covered by the endpoints' hull."""
        sol = solve_profile(base, RateProfile.of(0.45))
        xI, xF = sol.trajectory.x_I, sol.trajectory.x_F
        if xF - xI > 1.0:
            for x in np.linspace(xI, xF, 7):
                assert triangle_contains(base, xI, xF, float(x), n_samples=96)

    def test_mirror_profile_swaps(self, base):
        a = solve_profile(base, RateProfile.of(0.3))
        b = solve_profile(base, RateProfile.of(0.7))
        assert a.rate_pair.r1 == pytest.approx(b.rate_pair.r2, abs=1e-6)
        assert a.rate_pair.r2 == pytest.approx(b.rate_pair.r1, abs=1e-6)
        assert check_feasibility(base, b).passed


@functools.lru_cache(maxsize=None)
def _sc(params, alpha1):
    return solve_profile(params, RateProfile.of(alpha1))


def test_flight_across_x0_inside_a_slot_is_feasible(base):
    """The strong user flips at x = 0, so rates jump there: both the
    evaluator and the feasibility check cut the flight at the crossing."""
    report = check_feasibility(base, solve_profile(base, RateProfile.of(0.375)))
    assert report.passed, report


# (T, alpha1) points of the theory's invariants
INVARIANT_POINTS = [(200.0, 0.1), (400.0, 0.2), (60.0, 0.4), (20.0, 0.5)]


class TestInvariants:
    """Orderings the theory guarantees for the optimal SC boundary point."""

    @pytest.mark.parametrize("T, alpha1", INVARIANT_POINTS)
    def test_sc_at_least_tdma(self, base, T, alpha1):
        """The SC value is reported on 2,048 slots, and TDMA's is slot-free
        quadrature: at T = 400 s, alpha1 = 0.2 SC sits 1.1e-7 below TDMA,
        slot loss and the polish's fixed-weight chord, not P5's balance, so
        this tolerance is 1e-6."""
        params = replace(base, T=T)
        tdma = tdma_solve_profile(params, RateProfile.of(alpha1))
        assert _sc(params, alpha1).r >= tdma.r * (1.0 - 1e-6)

    @pytest.mark.parametrize("alpha1", [0.1, 0.2, 0.3, 0.4, 0.5])
    def test_sc_at_least_tdma_at_T200(self, base, alpha1):
        """With P5 balanced to 1e-9, SC is not below TDMA at T = 200 s."""
        params = replace(base, T=200.0)
        tdma = tdma_solve_profile(params, RateProfile.of(alpha1))
        assert _sc(params, alpha1).r >= tdma.r * (1.0 - 1e-8)

    @pytest.mark.parametrize("alpha1", [0.2, 0.4])
    def test_nondecreasing_in_T(self, base, alpha1):
        r = [_sc(replace(base, T=T), alpha1).r for T in (20.0, 60.0, 200.0)]
        assert r[0] <= r[1] <= r[2]

    @pytest.mark.parametrize("T, alpha1", INVARIANT_POINTS)
    def test_sc_at_least_best_hover(self, base, T, alpha1):
        params = replace(base, T=T)
        prof = RateProfile.of(alpha1)
        xs = np.linspace(-0.5 * base.D, 0.5 * base.D, 257)
        hover = max(hfh_solver._hover_value(params, float(x), prof) for x in xs)
        assert _sc(params, alpha1).r >= hover


def test_trace_region_small(base):
    reg = trace_region(base, 3)
    assert [p.profile.alpha1 for p in reg.points] == [0.0, 0.5, 1.0]
    assert reg.points[0].rate_pair.r1 == 0.0
    assert reg.points[2].rate_pair.r2 == 0.0
    mid = reg.points[1].rate_pair
    assert mid.r1 == pytest.approx(mid.r2, rel=1e-5)


# ---------------------------------------------------------------------------
# exactness of the SC search: values recorded from the plain per-element form
# ---------------------------------------------------------------------------


class TestSearchExactness:
    """Bit-exact outputs of the default search on the reference scenario."""

    def test_profile_0_3(self, base):
        sol = solve_profile(base, RateProfile.of(0.3))
        assert sol.r == 5.271265932136474
        assert sol.rate_pair.r1 == 1.5813797796409421
        assert sol.rate_pair.r2 == 3.6898861524966966
        assert sol.mu == 0.4998957974371894
        t = sol.trajectory
        assert (t.x_I, t.x_F, t.t_I, t.t_F) == (
            -500.0,
            500.0,
            3.83300536408198,
            22.833661302584687,
        )

    def test_profile_0_5(self, base):
        sol = solve_profile(base, RateProfile.of(0.5))
        assert sol.r == 5.271266064564796
        assert sol.mu == 0.4999  # the warm start's lower end balances
        assert sol.trajectory.x_I == -500.0
        assert sol.trajectory.t_I == 13.333333333333329

    def test_polish_follows_an_optimum_past_its_window(self, base):
        """Here polish stages 2 to 5 of the zoom the family root replaced used
        to pick x_I on their window's edge and shrink away from it, ending at
        129.16 m with a polished value of 2.0357674378868786; its best stage
        reached 2.0357696787422377 at 129.6875 m.  The fly-hover root places
        the hover end at g's maximum beside user 2 (499.05 m) and x_I where
        the ends' weighted rates are equal."""
        sol = solve_profile(replace(base, Pbar=1e-3, T=20.0), RateProfile.of(0.05))
        d = sol.diagnostics
        assert d["polish"] == "fly_hover"
        assert d["polish_value"] == 2.0357702073849877
        assert sol.trajectory.x_I == pytest.approx(130.0857, abs=1e-4)
        assert sol.trajectory.x_F == pytest.approx(499.0531, abs=1e-4)
        # The reported r may move by P5's rounding as the pair moves by ~1e-11 m.
        assert sol.r >= 2.035770162921787 * (1.0 - 1e-12)
        assert d["foc_residual"] < 1e-10

    @pytest.mark.parametrize(
        "V, T, alpha1, r, pair, mu, hover_r, x",
        [
            pytest.param(
                0.0, 60.0, 0.3, 3.373482376177497,
                (1.012044712853249, 2.3614376633242475), 0.8887765468590508,
                3.373482376177497, 391.4151865159188, id="static",
            ),
            pytest.param(  # +-x tie in value: the winner on x >= 0, the half searched
                0.0, 60.0, 0.5, 2.476260691101694,
                (1.238130345550847, 1.238130345550847), 0.7325362062641467,
                2.476260691101694, 202.28581681284106, id="static-mirror-tie",
            ),
            pytest.param(  # too short a flight: the hover beats every pair
                30.0, 20.0, 0.2, 4.384226821642133,
                (0.8768453643284266, 3.5073814573137065), 0.8869171097799904,
                4.384226821642133, 457.93522582708636, id="hover-beats-flight",
            ),
        ],
    )
    def test_hover_winner(self, base, V, T, alpha1, r, pair, mu, hover_r, x):
        """A winning hover is reported from the `fixed_boundary` point its
        search found, with no P5: r is the hover value, every slot takes
        that point's split, and the per-slot split at the reported weight
        returns it."""
        params = replace(base, V=V, T=T)
        sol = solve_profile(params, RateProfile.of(alpha1))
        assert sol.r == r == hover_r
        assert (sol.rate_pair.r1, sol.rate_pair.r2) == pair
        assert sol.mu == mu
        assert sol.diagnostics["hover_r"] == hover_r
        assert sol.diagnostics["p5_calls"] == sol.diagnostics["weight_solves"] == 0
        t = sol.trajectory
        assert (t.x_I, t.x_F, t.t_I, t.t_F) == (x, x, T, 0.0)
        p1, p2 = sol.schedule.p1, sol.schedule.p2
        assert len(p1) == SearchConfig().n_slots
        assert np.all(p1 == p1[0]) and np.all(p2 == p2[0])
        report = check_feasibility(params, sol, tolerance=1e-9)
        assert report.passed, report
        q1, q2 = per_slot_weighted_split(params, x, mu)
        assert abs(q1 - p1[0]) <= 1e-9 * params.Pbar
        assert abs(q2 - p2[0]) <= 1e-9 * params.Pbar

    @pytest.mark.parametrize(
        "alpha1, mu_max_iter, mu",
        [
            pytest.param(0.5, 60, 0.5, id="equal-rate"),
            pytest.param(0.3, 60, 0.5, id="unequal-rate"),
            pytest.param(0.3, 2, 0.30000000000000004, id="bracket-ends-only"),
        ],
    )
    def test_tie_break_fallback(self, base, alpha1, mu_max_iter, mu):
        """Tied gains at x = 0 flip all power at mu = 1/2, so the imbalance
        jumps there and no weight balances it: the blend fires on the final
        bracket.  1/2 is the plateau's upper edge, where the bracket's lower
        end moves, so the blend's weight is 1/2.  With two solves only the
        bracket ends mu = 0 and 1 are solved, and the blend runs on them.
        """
        disc = discretize(base, make_hfh(base, 0.0, 0.0, base.T), 64)
        cfg = SearchConfig(mu_max_iter=mu_max_iter)
        res = solve_p5(base, disc, RateProfile.of(alpha1), cfg)
        assert res.r == 2.276840205358824
        assert res.tie_break
        assert res.mu == mu


# ---------------------------------------------------------------------------
# kernel equivalence: the hoisted/compressed kernels against the plain forms
# ---------------------------------------------------------------------------


def _plain_gains(params, x):
    half = 0.5 * params.D
    H2 = params.H * params.H
    return params.beta0 / ((x + half) ** 2 + H2), params.beta0 / ((x - half) ** 2 + H2)


def _plain_strong_power(h1, h2, mu, Pbar):
    """Strong user, strong/weak gains and strong-user power, every term per element."""
    strong2 = h2 >= h1
    hs = np.where(strong2, h2, h1)
    hw = np.where(strong2, h1, h2)
    mus = np.where(strong2, 1.0 - mu, mu)
    muw = np.where(strong2, mu, 1.0 - mu)
    d0 = mus * hs - muw * hw
    dP = mus * hs * (1.0 + Pbar * hw) - muw * hw * (1.0 + Pbar * hs)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_star = d0 / (hs * hw * (muw - mus))
    p_star = np.where(np.isfinite(p_star), np.clip(p_star, 0.0, Pbar), 0.0)
    ps = np.where(d0 <= 0.0, 0.0, np.where(dP >= 0.0, Pbar, p_star))
    return strong2, hs, hw, ps


def _plain_pair_points(params, tables, i, j):
    """One pair's primal point (r1, r2, at_i) at every weight, two-axis indexing."""
    slack = params.T - (tables.x[j] - tables.x[i]) / params.V
    points = []
    for m, w in enumerate(tables.mu):
        at_i = w * tables.h1[m, i] + (1.0 - w) * tables.h2[m, i] >= (
            w * tables.h1[m, j] + (1.0 - w) * tables.h2[m, j]
        )
        e = i if at_i else j
        r1 = ((tables.c1[m, j] - tables.c1[m, i]) / params.V + slack * tables.h1[m, e]) / params.T
        r2 = ((tables.c2[m, j] - tables.c2[m, i]) / params.V + slack * tables.h2[m, e]) / params.T
        points.append((r1, r2, at_i))
    return points


def _plain_pair_value(params, tables, i, j, profile):
    """One pair's (value, t_I) from its primal point at every weight: the last
    weight with imbalance <= 0 and the next one, time-shared onto the ray."""
    a1, a2 = profile.alpha1, profile.alpha2
    slack = params.T - (tables.x[j] - tables.x[i]) / params.V
    points = _plain_pair_points(params, tables, i, j)
    gaps = [a2 * r1 - a1 * r2 for r1, r2, _ in points]
    lo = max(m for m, g in enumerate(gaps) if g <= 0.0)
    (r1L, r2L, iL), (r1H, r2H, iH) = points[lo], points[lo + 1]
    lam = gaps[lo + 1] / (gaps[lo + 1] - gaps[lo])
    r1 = lam * r1L + (1.0 - lam) * r1H
    r2 = lam * r2L + (1.0 - lam) * r2H
    return min(r1 / a1, r2 / a2), slack * (lam * iL + (1.0 - lam) * iH)


class TestKernelEquivalence:
    """The kernels compute the plain per-element numbers exactly (no tolerance)."""

    @pytest.mark.parametrize(
        "alpha1, kind",
        [
            pytest.param(alpha1, kind, id=str(alpha1) if kind == "global" else f"{alpha1}-{kind}")
            for alpha1 in (0.3, 0.5)
            for kind in ("global", "polish", "two-weight")
        ],
    )
    def test_batched_profile_values(self, base, alpha1, kind):
        """The weight bisection over all pairs equals a per-pair weight scan,
        on the global table, a polish stage's and one with only the mu = 0
        and 1 sentinels (no bisection step)."""
        params = replace(base, T=20.0)  # part of the wedge is out of reach
        if kind == "global":
            tables = hfh_solver.pair_tables(params)
            rng = np.random.default_rng(11)
            n = len(tables.x)
            pairs = [(0, 0), (n // 2, n // 2), (n // 2 - 3, n // 2 + 7), (0, 60), (n - 61, n - 1)]
            while len(pairs) < 120:
                i, j = np.sort(rng.integers(0, n, 2))
                if tables.x[j] - tables.x[i] <= params.V * params.T:
                    pairs.append((i, j))
        else:
            x, mu = _polish_stage_inputs(params, -250.0, 150.0, 1, 0.45, 0.05)
            tables = hfh_solver._rate_tables(params, x, mu if kind == "polish" else np.array([0.0, 1.0]))
            pairs = [(i, j) for i in range(len(x)) for j in range(i, len(x))]
        prof = RateProfile.of(alpha1)
        value, t_I, lo, hi = hfh_solver._batched_profile_values(
            params, np.array(pairs), prof, tables
        )
        assert np.all(hi == lo + 1)
        for k, (i, j) in enumerate(pairs):
            assert (value[k], t_I[k]) == _plain_pair_value(params, tables, i, j, prof)

    def test_weighted_hover_rate(self, base):
        t = hfh_solver.pair_tables(base)
        w = t.mu[:, None]
        assert np.array_equal(t.g, w * t.h1 + (1.0 - w) * t.h2)

    @pytest.mark.parametrize("i, j", [(0, 0), (0, 60), (97, 107), (140, 200)])
    def test_pair_primal_over_all_weights(self, base, i, j):
        """Flat gathers at m = 0 .. len(mu) - 1 for one pair, as `_best_pair`
        calls them, equal the two-axis per-weight formula."""
        params = replace(base, T=20.0)
        t = hfh_solver.pair_tables(params)
        slack = params.T - (t.x[j] - t.x[i]) / params.V
        r1, r2, at_i = hfh_solver._pair_primal(params, t, slack, np.arange(len(t.mu)), i, j)
        points = _plain_pair_points(params, t, i, j)
        assert np.array_equal(r1, [p[0] for p in points])
        assert np.array_equal(r2, [p[1] for p in points])
        assert np.array_equal(at_i, [p[2] for p in points])
        assert 0 < at_i.sum() < len(t.mu) or i == j  # both hover ends occur

    @pytest.mark.parametrize("m, a, b", [(32, 0, 60), (90, 70, 170), (80, 110, 200)])
    def test_tables_match_quad(self, base, m, a, b):
        """Hover rates and flight integrals against scipy's quad of the
        per-position split rates; the middle case crosses x = 0, the last two
        hold kinks where the split leaves or enters its interior regime."""
        tables = hfh_solver.pair_tables(base)
        mu = tables.mu[m]

        def rate(x, user):
            pair = sc_rate_pair(base, x, *per_slot_weighted_split(base, x, mu))
            return pair.r1 if user == 1 else pair.r2

        x_a, x_b = tables.x[a], tables.x[b]
        cuts = [x_a, 0.0, x_b] if x_a < 0.0 < x_b else [x_a, x_b]
        for user, h, c in ((1, tables.h1, tables.c1), (2, tables.h2, tables.c2)):
            ref = sum(
                quad(rate, lo, hi, args=(user,), epsabs=0.0, epsrel=1e-12, limit=200)[0]
                for lo, hi in zip(cuts[:-1], cuts[1:])
            )
            assert c[m, b] - c[m, a] == pytest.approx(ref, rel=1e-9)
            assert h[m, a] == pytest.approx(rate(x_a, user), rel=1e-12)

    @pytest.mark.parametrize("alpha1", [0.2, 0.375])
    def test_polished_value_matches_fine_slots(self, base, alpha1):
        """The polished continuous value against the slotted P5 on the same
        trajectory; P5 balances the rates to 1e-10 here, below its default
        mu_tol, so the gap measures slotting and quadrature alone."""
        prof = RateProfile.of(alpha1)
        pick = hfh_solver._best_pair(base, prof, hfh_solver.pair_tables(base))
        assert pick.pair_value <= pick.value
        disc = discretize(base, make_hfh(base, pick.x_I, pick.x_F, pick.t_I), 4096)
        res = solve_p5(base, disc, prof, SearchConfig(mu_tol=1e-10, mu_max_iter=100))
        assert res.r == pytest.approx(pick.value, abs=1e-6)

    @pytest.mark.parametrize("mu", [0.0, 0.37, 0.5, 1.0])
    def test_solve_weight(self, base, mu):
        """Slot splits equal split_weighted, rates equal the per-atom SC formula."""
        traj = make_hfh(base, -300.0, 250.0, 10.3)  # crosses x = 0 inside a slot
        n = 96
        delta = base.T / n
        centre = (np.arange(n) + 0.5) * delta
        off = 0.5 * delta / math.sqrt(3.0)
        mid_pos = positions_at(base, traj, centre)
        atom_pos = positions_at(base, traj, np.concatenate([centre - off, centre + off]))
        atom_w = np.full(2 * n, 0.5 * delta)
        atom_slot = np.concatenate([np.arange(n), np.arange(n)])
        ev = TrajectoryEvaluator(base, mid_pos, atom_pos, atom_w, atom_slot)
        p1, p2, r1, r2 = ev.solve_weight(mu)

        h1m, h2m = _plain_gains(base, mid_pos)
        q1, q2 = split_weighted(h1m, h2m, mu, base.Pbar)
        assert np.array_equal(p1, q1) and np.array_equal(p2, q2)

        ah1, ah2 = _plain_gains(base, atom_pos)
        s2 = ah2 >= ah1
        assert np.any(s2 != (h2m >= h1m)[atom_slot])  # an atom past the slot's switch
        p1a, p2a = q1[atom_slot], q2[atom_slot]
        r1a = np.where(s2, np.log1p(p1a * ah1 / (p2a * ah1 + 1.0)), np.log1p(p1a * ah1))
        r2a = np.where(s2, np.log1p(p2a * ah2), np.log1p(p2a * ah2 / (p1a * ah2 + 1.0)))
        aw = atom_w / base.T
        scale = 1.0 / math.log(2.0)
        assert (r1, r2) == (scale * float(aw @ r1a), scale * float(aw @ r2a))

    def test_split_weighted_array_mu(self, base):
        rng = np.random.default_rng(3)
        x = np.concatenate([np.linspace(-500.0, 500.0, 41), np.zeros(3)])
        mu = np.concatenate([rng.uniform(0.0, 1.0, 41), [0.0, 0.5, 1.0]])
        h1, h2 = _plain_gains(base, x)
        p1, p2 = split_weighted(h1, h2, mu, base.Pbar)
        strong2, _, _, ps = _plain_strong_power(h1, h2, mu, base.Pbar)
        pw = base.Pbar - ps
        assert np.array_equal(p1, np.where(strong2, pw, ps))
        assert np.array_equal(p2, np.where(strong2, ps, pw))
        for i in range(len(x)):
            one = split_weighted(h1[i : i + 1], h2[i : i + 1], mu[i], base.Pbar)
            assert (one[0][0], one[1][0]) == (p1[i], p2[i])


TABLE_CHANNELS = [{}, {"Pbar": 1.0}, {"D": 3000.0, "Pbar": 1e-5}, {"H": 200.0}]


def _polish_stage_inputs(params, x_I, x_F, stage, centre, width):
    """The positions of polish stage `stage` around x_I and x_F, and 17
    weights across [centre - width, centre + width] plus the mu = 0 and 1
    sentinels."""
    half = 0.5 * params.D
    offsets = params.D / (hfh_solver._PAIR_NODES - 1) * (np.arange(9) - 4) * 0.25 ** stage
    x = np.union1d(np.clip(x_I + offsets, -half, half), np.clip(x_F + offsets, -half, half))
    mu = np.linspace(max(centre - width, 0.0), min(centre + width, 1.0), 17)
    return x, np.union1d([0.0, 1.0], mu)


def _polish_shaped_inputs(params, rng, k):
    """Two position clusters at a random polish stage's spacing, and 17
    weights across a bracket (down to 1e-6 wide) plus the sentinels."""
    half = 0.5 * params.D
    x_I, x_F = np.sort(rng.uniform(-half, half, 2))
    x_I = -half if k % 5 == 0 else (rng.uniform(-1e-3, 1e-3) if k % 11 == 0 else x_I)
    x_F = half if k % 7 == 0 else x_F
    stage = rng.integers(1, 6)
    centre = rng.uniform(0.0, 1.0) if k % 3 else 0.5 + rng.uniform(-1e-6, 1e-6)
    width = 10.0 ** rng.uniform(-6.0, -1.0)
    return _polish_stage_inputs(params, x_I, x_F, stage, centre, width)


def _regime_roots(params, mu):
    """x = 0 and the roots in (-D/2, D/2) of (1 - mu)(d1 + c) = mu (d2 + c),
    c in {0, Pbar beta0}, where the split leaves or enters its interior
    regime: a x^2 + D x + a (D^2/4 + H^2 + c) = 0, a = 1 - 2 mu, each root
    taken by the stable quadratic formula."""
    half, a = 0.5 * params.D, 1.0 - 2.0 * mu
    roots = [0.0]
    for c in (0.0, params.Pbar * params.beta0):
        k = a * (half * half + params.H ** 2 + c)
        disc = params.D ** 2 - 4.0 * a * k
        if a != 0.0 and disc >= 0.0:
            q = -0.5 * (params.D + math.sqrt(disc))
            roots += [r for r in (q / a, k / q) if abs(r) < half]
    return roots


def _quad_flight(params, mu, x_a, x_b, user):
    """scipy's quad of user's per-position split rate at weight mu over
    [x_a, x_b], cut at x = 0 and where the split's regime changes, in
    bps/Hz times meters.  Each piece is integrated to 1e-11 (relative) or
    to 1e-14 of D times the peak rate: the rates of an interior piece a
    fraction of a micrometre wide are formed with cancellation, and quad
    cannot meet a relative bound on it."""

    def rate(x):
        pair = sc_rate_pair(params, x, *per_slot_weighted_split(params, x, mu))
        return pair.r1 if user == 1 else pair.r2

    cuts = sorted({x_a, x_b, *(r for r in _regime_roots(params, mu) if x_a < r < x_b)})
    tol = 1e-14 * params.D * params.peak_rate
    return sum(
        quad(rate, lo, hi, epsabs=tol, epsrel=1e-11, limit=200)[0]
        for lo, hi in zip(cuts[:-1], cuts[1:])
    )


# Channels and weights of the closed-form flight integrals: near mu = 1/2
# the power moves between the users over a narrow ramp beside x = 0 (a
# fraction of a micrometre wide at Pbar = 1e-8 W, where an interior rate is
# the small difference of large logarithms).
QUAD_CHANNELS = {
    "reference": {}, "Pbar=1e-8": {"Pbar": 1e-8}, "Pbar=1e-5": {"Pbar": 1e-5}, "Pbar=1": {"Pbar": 1.0},
    "H=200,D=3000": {"H": 200.0, "D": 3000.0}, "H=3e4": {"H": 3e4},
}
QUAD_WEIGHTS = [0.0, 0.3, 0.4999, 0.49998, 0.5, 0.50002, 0.883, 1.0]


class TestRateTables:
    """The closed-form tables match quad of the per-position split rates."""

    @pytest.mark.parametrize("channel", QUAD_CHANNELS)
    def test_flight_integrals_match_quad(self, base, channel):
        """Every window's flight integrals at every weight within 1e-9
        (relative) of quad, from one table on the windows' ends."""
        params = replace(base, **QUAD_CHANNELS[channel])
        half = 0.5 * params.D
        windows = [(-5.0, 5.0), (-2.5, 2.5), (-half, half), (-half, 0.0), (0.0, half),
                   (-0.3 * params.D, half), (-half, 0.12 * params.D)]
        x = np.unique(windows)
        t = hfh_solver._rate_tables(params, x, np.array(QUAD_WEIGHTS))
        for m, mu in enumerate(QUAD_WEIGHTS):
            for x_a, x_b in windows:
                a, b = np.searchsorted(x, [x_a, x_b])
                for user, c in ((1, t.c1), (2, t.c2)):
                    ref = _quad_flight(params, mu, x_a, x_b, user)
                    assert c[m, b] - c[m, a] == pytest.approx(ref, rel=1e-9, abs=0.0), (mu, x_a, x_b, user)

    @pytest.mark.parametrize("change", TABLE_CHANNELS)
    def test_global_tables(self, base, change):
        """The global tables' flight integrals on rows across the regimes,
        mu = 1/2 and its neighbours included, within 1e-9 (relative) of
        quad."""
        params = replace(base, **change)
        t = hfh_solver.pair_tables(params)
        n = len(t.x)
        for m in (0, 20, 63, 64, 65, 113, 128):
            for a, b in ((0, n - 1), (0, n // 2), (n // 2, n - 1), (37, 151)):
                for user, c in ((1, t.c1), (2, t.c2)):
                    ref = _quad_flight(params, t.mu[m], t.x[a], t.x[b], user)
                    assert c[m, b] - c[m, a] == pytest.approx(ref, rel=1e-9, abs=0.0), (m, a, b, user)

    @pytest.mark.parametrize("change", TABLE_CHANNELS)
    def test_polish_shaped_tables(self, base, change):
        """Polish-shaped tables, some with brackets a millionth wide around
        mu = 1/2: every table's whole span at three rows within 1e-9
        (relative) of quad."""
        params = replace(base, **change)
        rng = np.random.default_rng(17)
        for k in range(12):
            x, mu = _polish_shaped_inputs(params, rng, k)
            t = hfh_solver._rate_tables(params, x, mu)
            for m in (1, len(mu) // 2, len(mu) - 2):
                for user, c in ((1, t.c1), (2, t.c2)):
                    ref = _quad_flight(params, mu[m], x[0], x[-1], user)
                    assert c[m, -1] - c[m, 0] == pytest.approx(ref, rel=1e-9, abs=0.0), (k, m, user)

    @pytest.mark.parametrize("stage", [1, 5])
    def test_polish_tables_match_quad(self, base, stage):
        """Flight integrals of a polish table whose bridge crosses x = 0 and
        whose weight bracket straddles the weight at which x = 200 m leaves
        the all-to-user-2 corner, against quad, and its mu = 0 and 1 rows
        too."""
        strong2, hs, hw, cw, cs, _ = hfh_solver._split_frame(*hfh_solver.gain_pair(base, 200.0), base.Pbar)
        assert strong2
        clamp = hs * cw / (hs * cw + hw * cs)
        x, mu = _polish_stage_inputs(base, -287.3, 341.9, stage, clamp, 1e-2 * 0.25 ** stage)
        t = hfh_solver._rate_tables(base, x, mu)
        for m, corner in ((1, True), (len(mu) - 2, False)):
            assert (per_slot_weighted_split(base, 200.0, mu[m])[1] == base.Pbar) == corner
        n = len(x)
        for m in (1, 9, len(mu) - 2):
            for a, b in ((0, n - 1), (n - 9, n - 1)):
                for user, c in ((1, t.c1), (2, t.c2)):
                    ref = _quad_flight(base, mu[m], x[a], x[b], user)
                    assert c[m, b] - c[m, a] == pytest.approx(ref, rel=1e-9), (m, a, b)
        assert np.all(t.c1[0] == 0.0) and np.all(t.c2[-1] == 0.0)
        for a, b in ((0, n - 1), (0, 8)):  # from c[:, 0] = 0: no cancellation
            for user, m, c in ((1, -1, t.c1[-1]), (2, 0, t.c2[0])):
                ref = _quad_flight(base, mu[m], x[a], x[b], user)
                assert c[b] - c[a] == pytest.approx(ref, rel=1e-12), (a, b, user)

    @pytest.mark.parametrize("x", [(-5.0, 5.0), (-2.5, 2.5)])
    @pytest.mark.parametrize("mu", [0.49998, 0.50002])
    def test_step_at_zero(self, base, x, mu):
        """Near mu = 1/2 the power moves from user 1 to user 2 over a ramp
        between about 1 and 5 cm from x = 0: the flight integrals across it
        match quad to 1e-9 bps/Hz m (7.8e-4 off with 2-point Gauss
        sub-cells)."""
        t = hfh_solver._rate_tables(base, np.array(x), np.array([0.0, mu, 1.0]))
        for user, c in ((1, t.c1), (2, t.c2)):
            ref = _quad_flight(base, mu, x[0], x[1], user)
            assert abs(c[1, 1] - c[1, 0] - ref) <= 1e-9, user


class TestPairTablesCache:
    """One read-only table set per channel (beta0, H, D, Pbar)."""

    def test_shared_across_speed_and_duration(self, base):
        tables = hfh_solver.pair_tables(base)
        assert hfh_solver.pair_tables(replace(base, V=5.0, T=400.0)) is tables

    @pytest.mark.parametrize("change", [{"H": 200.0}, {"D": 2000.0}, {"Pbar": 1.0}])
    def test_new_channel_new_tables(self, base, change):
        assert hfh_solver.pair_tables(replace(base, **change)) is not hfh_solver.pair_tables(base)

    def test_equal_to_a_fresh_build(self, base):
        params = replace(base, V=5.0, T=400.0)
        cached = hfh_solver.pair_tables(base)
        half = 0.5 * base.D
        fresh = hfh_solver._rate_tables(
            params,
            np.linspace(-half, half, hfh_solver._PAIR_NODES),
            np.linspace(0.0, 1.0, hfh_solver._PAIR_WEIGHTS),
        )
        for name in ("x", "mu", "h1", "h2", "c1", "c2", "g"):
            assert np.array_equal(getattr(cached, name), getattr(fresh, name)), name

    @pytest.mark.parametrize("name", ["x", "mu", "h1", "h2", "c1", "c2", "g"])
    def test_read_only(self, base, name):
        with pytest.raises(ValueError):
            getattr(hfh_solver.pair_tables(base), name)[...] = 0.0


class TestGlobalPairsCache:
    """One read-only set of the global stage's pairs and floor candidates per
    (D, V T)."""

    def test_equal_to_a_fresh_build(self, base):
        params = replace(base, T=20.0)  # a reach of 600 m: not every pair fits
        pairs, candidates = hfh_solver.global_pairs(params)
        fresh = hfh_solver._pairs_within(hfh_solver.pair_tables(params).x, params.V * params.T)
        assert np.array_equal(pairs, fresh) and len(pairs) < 201 * 202 // 2
        assert np.array_equal(candidates, hfh_solver._floor_candidates(fresh, hfh_solver._PAIR_NODES))

    def test_shared_across_equal_reach(self, base):
        first = hfh_solver.global_pairs(replace(base, V=30.0, T=20.0))
        assert hfh_solver.global_pairs(replace(base, V=20.0, T=30.0, Pbar=1.0)) is first
        assert hfh_solver.global_pairs(replace(base, V=30.0, T=21.0)) is not first

    def test_read_only(self, base):
        for a in hfh_solver.global_pairs(base):
            with pytest.raises(ValueError):
                a[...] = 0


# The power-axis scan on the reference channel, and a D = 3000 m slice.
POWER_AXIS = [
    ({"Pbar": Pbar, "T": T}, alpha1)
    for Pbar in (1e-5, 1e-4, 1e-3, 1e-2, 1.0)
    for T in (20.0, 60.0, 200.0, 400.0)
    for alpha1 in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
]
WIDE_SLICE = [
    ({"Pbar": Pbar, "H": 200.0, "D": 3000.0, "T": T}, alpha1)
    for Pbar in (1e-5, 1e-2, 10.0)
    for T in (200.0, 400.0)
    for alpha1 in (0.05, 0.2, 0.35, 0.5)
]


def _picks(base, cases):
    """(params, profile, `_best_pair` pick) of each case."""
    for change, alpha1 in cases:
        params, prof = replace(base, **change), RateProfile.of(alpha1)
        yield params, prof, hfh_solver._best_pair(params, prof, hfh_solver.pair_tables(params))


def _closed_form_cases(base, cases):
    """(params, profile, pick) where the pick hovers above both users and
    is placed in closed form."""
    return [case for case in _picks(base, cases) if case[2].family == "hover_both"]


def _static_cases(base, cases):
    """(params, profile, pick) where the global pick is static, or its
    family root collapses onto the hover, and so the hover is the value."""
    return [case for case in _picks(base, cases) if case[2].value is None]


def _family_scan(params, prof, family, hover, s0, bracket, n=61):
    """The best value of an exhaustive scan of a family's members: n values
    of the free coordinate s within two global node spacings of s0, the
    hovering end held at `hover` (ignored for a pure flight), all valued on
    one table of their ends at 4,001 weights across +-0.05 around the
    bracket's centre (and mu = 0 and 1), so that a member's weight bracket
    is ~2.5e-5 wide."""
    half, reach = 0.5 * params.D, params.V * params.T
    step = params.D / (hfh_solver._PAIR_NODES - 1)
    if family == "flight":
        lo, hi = -half, half - reach
    elif family == "fly_hover":
        lo, hi = max(-half, hover - reach), hover
    else:
        lo, hi = hover, min(half, hover + reach)
    s = np.linspace(max(lo, s0 - 2.0 * step), min(hi, s0 + 2.0 * step), n)
    s = s[(s != hover)] if family != "flight" else s
    if not len(s):
        return -np.inf
    ends = {"flight": (s, s + reach), "fly_hover": (s, np.full_like(s, hover)),
            "hover_fly": (np.full_like(s, hover), s)}[family]
    x = np.unique(np.concatenate(ends))
    centre = 0.5 * sum(bracket)
    mu = np.union1d([0.0, 1.0], np.clip(np.linspace(centre - 0.05, centre + 0.05, 4001), 0.0, 1.0))
    tables = hfh_solver._rate_tables(params, x, mu)
    pairs = np.stack([np.searchsorted(x, e) for e in ends], axis=1)
    return float(np.max(hfh_solver._batched_profile_values(params, pairs, prof, tables)[0]))


def _family_members(pick):
    """`_family_scan`'s arguments for the family and hovering end of `pick`."""
    if pick.family == "hover_fly":
        return pick.family, pick.x_I, pick.x_F
    return pick.family, pick.x_F, pick.x_I


class TestHoverBothPick:
    """A global pick from -D/2 to D/2 with both hovers positive is placed in
    closed form at weight 1/2, with no member table."""

    @pytest.mark.parametrize("cases", [POWER_AXIS, WIDE_SLICE], ids=["power-axis", "D=3000m"])
    def test_not_below_the_family_root(self, base, cases, monkeypatch):
        """The closed form against the family root on the same pick, forced
        by a closed form that never applies: never lower beyond rounding."""
        closed = _closed_form_cases(base, cases)
        assert len(closed) >= 10
        monkeypatch.setattr(hfh_solver, "_hover_both_time", lambda *args: None)
        for params, prof, pick in closed:
            root = hfh_solver._best_pair(params, prof, hfh_solver.pair_tables(params))
            assert root.family != "hover_both"
            assert root.pair_value == pick.pair_value
            assert root.value is None or pick.value >= root.value * (1.0 - 1e-13), (params, prof)
            assert (pick.x_I, pick.x_F) == (-0.5 * params.D, 0.5 * params.D)
            assert 0.0 < pick.t_I < params.T - params.D / params.V

    def test_not_below_tdma(self, base):
        """SC and TDMA place this family alike (at weight 1/2 the split
        serves the stronger user alone), so the placed value is TDMA's r
        or above, and its hover time is TDMA's."""
        closed = _closed_form_cases(base, POWER_AXIS)
        assert len(closed) >= 40
        for params, prof, pick in closed:
            td = tdma_solve_profile(params, prof)
            assert pick.value >= td.r * (1.0 - 1e-12), (params, prof)
            if td.diagnostics["case"] == 4:
                assert pick.t_I == pytest.approx(td.trajectory.t_I, rel=1e-9, abs=1e-9 * params.T)

    def test_reported_with_one_p5(self, base):
        sol = solve_profile(base, RateProfile.of(0.4))
        assert sol.diagnostics["polish"] == "hover_both"
        assert sol.diagnostics["p5_calls"] == 1
        assert (sol.trajectory.x_I, sol.trajectory.x_F) == (-500.0, 500.0)
        polished = sol.diagnostics["polish_value"]
        assert polished * (1.0 - 1e-7) <= sol.r <= polished  # the report's slots only lose


class TestPolishBuilds:
    """Where family members are valued (`_pair_value`): for every pick but
    a static or a closed-form one; no table is built beyond the cached
    global one.  (The class and its tests keep the names they had under the
    zoom the family root replaced, so their ids stay.)"""

    @staticmethod
    def _members(params, prof, monkeypatch):
        hfh_solver.pair_tables(params)  # the global tables, cached
        calls, builds = [], []
        value, build = hfh_solver._pair_value, hfh_solver._rate_tables
        monkeypatch.setattr(hfh_solver, "_pair_value", lambda *args: calls.append(1) or value(*args))
        monkeypatch.setattr(hfh_solver, "_rate_tables", lambda *args: builds.append(1) or build(*args))
        sol = solve_profile(params, prof)
        monkeypatch.setattr(hfh_solver, "_pair_value", value)
        monkeypatch.setattr(hfh_solver, "_rate_tables", build)
        assert not builds
        return len(calls), sol

    @pytest.mark.parametrize("k", range(9, 17))
    def test_none_above_both_users(self, base, k, monkeypatch):
        """alpha1 = k/32 for k = 9 .. 16 picks -D/2 to D/2 from the global
        table with both hovers positive.  (At k = 8 the table picks
        -495 m to D/2, and the closed form wins over its fly-hover root.)"""
        members, sol = self._members(base, RateProfile.of(k / 32), monkeypatch)
        assert members == 0
        assert sol.diagnostics["polish"] == "hover_both"

    @pytest.mark.parametrize("Pbar", [1e-5, 1e-2])
    def test_no_slack_zooms(self, base, Pbar, monkeypatch):
        """At T = D/V the pick -D/2 to D/2 is a pure flight, with no hover
        time to split (the closed form's t_I is 0 up to rounding, of either
        sign): it has nowhere to slide, and its residual is 0 by symmetry,
        so the one member that values the pick ends the root with no
        handover, and the pure flight is reported."""
        params = replace(base, Pbar=Pbar, T=base.D / base.V)
        members, sol = self._members(params, RateProfile.of(0.5), monkeypatch)
        assert members == 1
        assert sol.diagnostics["polish"] == "flight"
        assert sol.diagnostics["foc_residual"] == 0.0
        assert (sol.trajectory.x_I, sol.trajectory.x_F) == pytest.approx((-500.0, 500.0), abs=1e-6)
        assert check_feasibility(params, sol, 1e-9).passed

    def test_fly_hover_zooms(self, base, monkeypatch):
        """alpha1 = 5/32 picks a fly-hover pair, -375 m to D/2; its root
        moves x_I to -380.632 m, where hovering there starts to pay, in
        at most eight members, the pick's included (the zoom took six
        stages)."""
        members, sol = self._members(base, RateProfile.of(5 / 32), monkeypatch)
        assert 3 <= members <= 8
        assert sol.diagnostics["polish"] == "fly_hover"
        assert sol.trajectory.x_I == pytest.approx(-380.632, abs=1e-3)
        assert sol.trajectory.x_F == 500.0
        assert sol.trajectory.t_I < 1e-3

    @pytest.mark.parametrize("k", [2, 4])
    def test_none_at_a_static_pick(self, base, k, monkeypatch):
        """alpha1 = k/32 for k = 2, 4 picks a static pair from the global
        table (495 m, 485 m): the static family's optimum is the hover, so
        no member is valued, and the placed value is the hover's.
        (At k = 1 and 3 the table picks a pair one node apart, 495 to 500 m
        and 490 to 495 m, whose root collapses onto the hover.)"""
        members, sol = self._members(base, RateProfile.of(k / 32), monkeypatch)
        assert members == 0
        assert sol.diagnostics["polish"] == "static"
        assert sol.diagnostics["polish_value"] == sol.diagnostics["hover_r"]
        assert sol.trajectory.x_I == sol.trajectory.x_F
        assert sol.diagnostics["p5_calls"] == 0


class TestFamilyRoot:
    """`_family_root` places each flight pick by its family's first-order
    condition, against exhaustive scans, TDMA and finite differences."""

    @pytest.mark.parametrize("cases", [POWER_AXIS, WIDE_SLICE], ids=["power-axis", "D=3000m"])
    def test_not_below_the_family_scan(self, base, cases):
        """On every pick a family root places, its value reaches the best of
        a dense scan of the family's members around it (the scan's spacing
        is 1/15 of a node spacing)."""
        placed = [case for case in _picks(base, cases)
                  if case[2].family in ("fly_hover", "hover_fly", "flight")]
        assert len(placed) >= 3
        for params, prof, pick in placed:
            scan = _family_scan(params, prof, *_family_members(pick), pick.bracket)
            assert pick.value >= scan * (1.0 - 1e-9), (params, prof, pick)

    @pytest.mark.parametrize("cases", [POWER_AXIS, WIDE_SLICE], ids=["power-axis", "D=3000m"])
    def test_static_scan_not_above_the_hover(self, base, cases):
        """Where the global pick is static, or its root collapses onto the
        hover, no fly-hover onto the pick's node, nor hover-fly from it,
        within two node spacings beats the best hover beyond the tie."""
        static = _static_cases(base, cases)
        assert len(static) >= 3
        for params, prof, pick in static:
            hover_r = hfh_solver._best_hover(params, prof)[1]
            for family, node in (("fly_hover", pick.x_F), ("hover_fly", pick.x_I)):
                scan = _family_scan(params, prof, family, node, node, pick.bracket)
                assert scan <= hover_r * (1.0 + hfh_solver._TIE_TOL_REL), (params, prof, family)

    @pytest.mark.parametrize(
        "change, alpha1, family, tol",
        [
            pytest.param({"Pbar": 1e-3, "D": 3000.0}, 0.4, "flight", 1e-8, id="wide-worst"),
            pytest.param({"Pbar": 1e-4}, 0.075, "fly_hover", 1e-8, id="dense-worst"),
            pytest.param({"H": 3e4}, 0.1, "fly_hover", 1e-6, id="tied-0.1"),
            pytest.param({"H": 3e4}, 0.5, "hover_both", 1e-6, id="tied-0.5"),
            pytest.param({"H": 3e5}, 0.1, "fly_hover", 1e-8, id="tied-3e5-0.1"),
        ],
    )
    def test_not_below_tdma(self, base, change, alpha1, family, tol):
        """Picks whose zoom stayed on or near the global nodes, where the
        continuous value (the larger of the placed value and the hover's)
        was 1.76e-4, 4.02e-5, 1.34e-6 and 3.30e-6 below TDMA, and a
        near-tied pick that members valued as chords across their weight
        brackets left 1.38e-8 below it."""
        params, prof = replace(base, T=60.0, **change), RateProfile.of(alpha1)
        sol = solve_profile(params, prof)
        d = sol.diagnostics
        assert d["polish"] == family
        assert max(d["polish_value"], d["hover_r"]) >= tdma_solve_profile(params, prof).r * (1.0 - tol)
        assert check_feasibility(params, sol, tolerance=1e-9).passed

    @pytest.mark.parametrize(
        "change, alpha1, s, x_F",
        [
            pytest.param({"Pbar": 1e-3, "D": 3000.0}, 0.4, -765.0, None, id="flight"),
            pytest.param({"Pbar": 1e-4}, 0.075, -412.0, 500.0, id="fly-hover-low-snr"),
            pytest.param({}, 5 / 32, -386.0, 500.0, id="fly-hover"),
        ],
    )
    def test_residual_matches_central_difference(self, base, change, alpha1, s, x_F):
        """A member's foc, the relative slope of r per metre of its free end
        (a pure flight's slide), against a central difference (h = 1e-3 m)
        of a 16,384-slot P5 balanced to 1e-12, off the root where the free
        end does not hover; the member is valued at its own weight."""
        params, prof = replace(base, **change), RateProfile.of(alpha1)
        reach = params.V * params.T

        def ends(x):
            return (x, x + reach) if x_F is None else (x, x_F)

        _, t_I, _, foc = hfh_solver._pair_value(params, prof, *ends(s), 1)
        assert t_I == 0.0
        cfg = SearchConfig(mu_tol=1e-12, mu_max_iter=200)

        def r(x):
            disc = discretize(params, make_hfh(params, *ends(x), 0.0), 16384)
            return solve_p5(params, disc, prof, cfg).r

        h = 1e-3
        slope = (r(s + h) - r(s - h)) / (2.0 * h) / r(s)
        assert abs(foc) > 1e-5
        assert foc == pytest.approx(slope, rel=1e-4)

    def test_reports_its_best_member(self, base, monkeypatch):
        """The placed value is the best `_pair_value` the root evaluated, and
        every member's weight bracket is a few ulps wide, inside (0, 1)."""
        params, prof = replace(base, Pbar=1e-3, T=20.0), RateProfile.of(0.05)
        global_tables = hfh_solver.pair_tables(params)
        members = []
        value = hfh_solver._pair_value
        monkeypatch.setattr(hfh_solver, "_pair_value",
                            lambda *args: members.append(value(*args)) or members[-1])
        pick = hfh_solver._best_pair(params, prof, global_tables)
        assert len(members) >= 3
        assert pick.value == max(m[0] for m in members)
        for _, _, (lo, hi), _ in members:
            assert 0.0 < lo <= hi < 1.0  # lo == hi where a weight balances exactly
            assert hi - lo <= 1e-15

    def test_walks_to_hover_both(self, base):
        """At alpha1 = 8/32 the table picks -495 m to D/2; the closed form
        at -D/2 is the better pair, and no member search walks there."""
        pick = hfh_solver._best_pair(base, RateProfile.of(0.25), hfh_solver.pair_tables(base))
        assert pick.family == "hover_both"
        assert (pick.x_I, pick.x_F) == (-500.0, 500.0)
        assert pick.pair_value < pick.value

    @pytest.mark.parametrize("k", [1, 3])
    def test_collapse_is_static(self, base, k, monkeypatch):
        """alpha1 = 1/32 and 3/32 pick a pair one node apart; the free end
        runs onto the hover, so the pick is the static family's, whose
        value is the hover's, after three members: the pick, the root's
        start once the hovering end has moved, and the hover."""
        members, sol = TestPolishBuilds._members(base, RateProfile.of(k / 32), monkeypatch)
        assert members == 3
        assert sol.diagnostics["polish"] == "static"
        assert sol.diagnostics["polish_value"] == sol.diagnostics["hover_r"]
        assert sol.trajectory.x_I == sol.trajectory.x_F


def _table_pair_value(params, prof, x_I, x_F, e, centre):
    """The table valuation of the pair x_I < x_F with all its slack at its
    end e, as `_family_scan` values a member: `_rate_tables` of its ends at
    4,001 weights across +-0.05 around centre (and mu = 0 and 1), ranked by
    `_batched_profile_values` with the other end's weighted hover rate
    below any, so that it never hovers.  Returns (value, t_I, the least
    weak-duality bound over the rows, the best single row's value)."""
    mu = np.union1d([0.0, 1.0], np.clip(np.linspace(centre - 0.05, centre + 0.05, 4001), 0.0, 1.0))
    tables = hfh_solver._rate_tables(params, np.array([x_I, x_F]), mu)
    g = tables.g.copy()
    g[:, 1 - e] = -1.0
    tables = replace(tables, g=g)
    value, t_I, _, _ = (float(v[0]) for v in
                        hfh_solver._batched_profile_values(params, np.array([[0, 1]]), prof, tables))
    slack = params.T - (x_F - x_I) / params.V
    r1, r2, _ = hfh_solver._pair_primal(params, tables, slack, np.arange(len(mu)), 0, 1)
    bound = np.min((mu * r1 + (1.0 - mu) * r2) / (mu * prof.alpha1 + (1.0 - mu) * prof.alpha2))
    return value, t_I, float(bound), float(np.max(np.minimum(r1 / prof.alpha1, r2 / prof.alpha2)))


def _quad_pair_value(params, prof, x_I, x_F, e, bracket):
    """The pair's value from scipy's quad: its primal points at both weights
    of `bracket`, flight (`_quad_flight`) plus slack at its end e,
    time-shared onto the profile ray."""
    slack = params.T - (x_F - x_I) / params.V
    x_e = x_F if e else x_I
    points = []
    for mu in bracket:
        hover = sc_rate_pair(params, x_e, *per_slot_weighted_split(params, x_e, mu))
        points.append([(_quad_flight(params, mu, x_I, x_F, k) / params.V + slack * h) / params.T
                       for k, h in ((1, hover.r1), (2, hover.r2))])
    (r1L, r2L), (r1H, r2H) = points
    gL, gH = prof.alpha2 * r1L - prof.alpha1 * r2L, prof.alpha2 * r1H - prof.alpha1 * r2H
    lam = min(max(gH / (gH - gL), 0.0), 1.0) if gH != gL else 1.0
    return min((lam * r1L + (1.0 - lam) * r1H) / prof.alpha1, (lam * r2L + (1.0 - lam) * r2H) / prof.alpha2)


# (channel change, alpha1, x_I, x_F, hovering end e) of `_pair_value` cases.
PAIR_CASES = {
    "across-zero": ({}, 0.3, -300.0, 250.0, 1),
    "hover-at-zero": ({"T": 200.0}, 0.5, -100.0, 0.0, 1),
    "hover-at-x_I": ({"T": 200.0}, 0.2, -480.0, 120.0, 0),
    "Pbar=1e-8": ({"Pbar": 1e-8}, 0.2, -400.0, 500.0, 1),
    "no-slack": ({"T": 1000.0 / 30.0}, 0.4, -500.0, 500.0, 1),
}


class TestPairValue:
    """`_pair_value`, one pair's exact value with all slack at one end,
    against the fine-weight table valuation and against quad."""

    @pytest.mark.parametrize("case", PAIR_CASES)
    def test_between_the_table_chord_and_bound(self, base, case):
        """Never below the table's chord (an achievable value) nor above the
        least weak-duality bound of its rows, which are 2.5e-5 apart."""
        change, alpha1, x_I, x_F, e = PAIR_CASES[case]
        params, prof = replace(base, **change), RateProfile.of(alpha1)
        value, t_I, bracket, _ = hfh_solver._pair_value(params, prof, x_I, x_F, e)
        chord, table_t_I, bound, _ = _table_pair_value(params, prof, x_I, x_F, e, sum(bracket) / 2)
        assert chord * (1.0 - 1e-13) <= value <= bound * (1.0 + 1e-13)
        assert bound - chord <= 1e-12 * value
        assert t_I == pytest.approx(table_t_I, abs=1e-12 * params.T)
        assert 0.0 <= bracket[0] <= bracket[1] <= 1.0 and bracket[1] - bracket[0] <= 1e-15

    @pytest.mark.parametrize("case", PAIR_CASES)
    def test_matches_quad(self, base, case):
        change, alpha1, x_I, x_F, e = PAIR_CASES[case]
        params, prof = replace(base, **change), RateProfile.of(alpha1)
        value, _, bracket, _ = hfh_solver._pair_value(params, prof, x_I, x_F, e)
        assert value == pytest.approx(_quad_pair_value(params, prof, x_I, x_F, e, bracket), rel=1e-9)

    def test_shares_across_the_jump_at_zero(self, base):
        """Hovering at x = 0, where the gains tie, the hover serves user 2
        alone below mu = 1/2 and user 1 alone from it: the root is the jump,
        and no single weight's point reaches the value, so the time-share
        weight lies strictly inside (0, 1)."""
        change, alpha1, x_I, x_F, e = PAIR_CASES["hover-at-zero"]
        params, prof = replace(base, **change), RateProfile.of(alpha1)
        value, _, (lo, hi), _ = hfh_solver._pair_value(params, prof, x_I, x_F, e)
        assert lo < 0.5 <= hi
        best_row = _table_pair_value(params, prof, x_I, x_F, e, 0.5)[3]
        assert best_row < value * (1.0 - 1e-3)

    def test_zero_residual_by_symmetry(self, base):
        """The pure flight -D/2 to D/2 at alpha1 = 1/2 balances at mu = 1/2,
        where both ends' weighted rates are equal: its residual is 0, and
        so it is with x_I one ulp inside, where they differ by rounding."""
        params, prof = replace(base, T=base.D / base.V), RateProfile.of(0.5)
        assert hfh_solver._pair_value(params, prof, -500.0, 500.0, 1)[3] == 0.0
        assert hfh_solver._pair_value(params, prof, math.nextafter(-500.0, 0.0), 500.0, 1)[3] == 0.0


# Polish-stage windows: (x_I, x_F, stage) on the reference D, scaled with D.
CELL_WINDOWS = {
    "apart": (-480.0, 480.0, 1),
    "corners": (-500.0, 500.0, 1),
    "straddles-zero": (-1.3, 250.0, 1),
    "overlapping": (120.0, 121.0, 2),
    "stage4-off-grid": (-237.1234, 318.777, 4),
    "on-grid": (200.0, 300.0, 0),
}
CELL_BRACKETS = {"narrow": (0.5, 1e-3), "wide": (0.5, 0.3), "beside-zero": (0.45, 1e-3)}


class TestGridCells:
    """Polish-stage tables, built for all weights at once, equal per-weight
    builds to the last bit, and their flight integrals match quad.  (The
    class keeps the name of the per-channel cell cache that the closed form
    replaced, so its test ids stay.)"""

    @pytest.mark.parametrize("bracket", CELL_BRACKETS)
    @pytest.mark.parametrize("window", CELL_WINDOWS)
    @pytest.mark.parametrize("change", TABLE_CHANNELS)
    def test_cached_equals_uncached(self, base, change, window, bracket):
        params = replace(base, **change)
        x_I, x_F, stage = CELL_WINDOWS[window]
        scale = params.D / base.D
        x, mu = _polish_stage_inputs(params, x_I * scale, x_F * scale, stage, *CELL_BRACKETS[bracket])
        t = hfh_solver._rate_tables(params, x, mu)
        for m in range(1, len(mu) - 1):
            row = hfh_solver._rate_tables(params, x, np.array([0.0, mu[m], 1.0]))
            for name in ("h1", "h2", "c1", "c2", "g"):
                assert np.array_equal(getattr(t, name)[m], getattr(row, name)[1]), (m, name)
        n = len(x)
        for m in (1, len(mu) // 2, len(mu) - 2):
            for a, b in ((0, n - 1), (0, np.searchsorted(x, x_I * scale, side="right") - 1)):
                if b == a:
                    continue
                for user, c in ((1, t.c1), (2, t.c2)):
                    ref = _quad_flight(params, mu[m], x[a], x[b], user)
                    assert c[m, b] - c[m, a] == pytest.approx(ref, rel=1e-9, abs=0.0), (m, a, b, user)


# ---------------------------------------------------------------------------
# the static-hover placement: the root of Q_v's minimum over [0, D/2]
# ---------------------------------------------------------------------------

HOVER_ALPHAS = np.linspace(0.01, 0.5, 7)


@pytest.mark.parametrize("Pbar", [1e-6, 1e-3, 1.0, 100.0])
@pytest.mark.parametrize("H, D", [(100.0, 1000.0), (200.0, 3000.0), (50.0, 200.0),
                                  (300.0, 400.0), (100.0, 100.0)])
class TestHoverScreen:
    """`_best_hover`'s closed-form placement (the class keeps the name of the
    grid screen it replaced, so its test ids stay)."""

    def test_no_scan_point_beats_it(self, base, Pbar, H, D):
        """No point of a 257-point scan of [-D/2, D/2], or of a 201-point
        scan of x* +- 1 m, beats the placement by more than 1e-13."""
        params = replace(base, Pbar=Pbar, H=H, D=D)
        for alpha1 in HOVER_ALPHAS:
            prof = RateProfile.of(float(alpha1))
            x, r, _ = hfh_solver._best_hover(params, prof)
            near = np.clip(x + np.linspace(-1.0, 1.0, 201), -0.5 * D, 0.5 * D)
            for xs in (np.linspace(-0.5 * D, 0.5 * D, 257), near):
                scan = max(hfh_solver._hover_value(params, float(y), prof) for y in xs)
                assert scan <= r * (1.0 + 1e-13), (alpha1, scan / r - 1.0)

    def test_best_hover_is_nearer_the_larger_target(self, base, Pbar, H, D):
        """For alpha1 <= alpha2 the best hover on x >= 0 scores at least the
        best on x <= 0 (the mirrored profile's on x >= 0), so `_best_hover`
        searches that half only.  At alpha1 = 1/2 the two tie: -x* scores
        the same."""
        params = replace(base, Pbar=Pbar, H=H, D=D)
        for alpha1 in HOVER_ALPHAS:
            prof = RateProfile.of(float(alpha1))
            r = hfh_solver._best_hover(params, prof)[1]
            r_left = hfh_solver._best_hover(params, prof.mirrored())[1]
            assert r >= r_left, alpha1
        prof = RateProfile.of(0.5)
        x, r, _ = hfh_solver._best_hover(params, prof)
        assert hfh_solver._hover_value(params, -x, prof) == r

    def test_power_balance_at_the_placement(self, base, Pbar, H, D):
        """(a - 1) d1(x*) + a b d2(x*) = Pbar beta0 at the reported r, with
        a = 2^(alpha1 r) and b = 2^(alpha2 r) - 1: all power is used and
        both users get their rates."""
        params = replace(base, Pbar=Pbar, H=H, D=D)
        for alpha1 in HOVER_ALPHAS:
            prof = RateProfile.of(float(alpha1))
            x, r, _ = hfh_solver._best_hover(params, prof)
            a, b = 2.0 ** (prof.alpha1 * r), 2.0 ** (prof.alpha2 * r) - 1.0
            q = (a - 1.0) * ((x + 0.5 * D) ** 2 + H * H) + a * b * ((x - 0.5 * D) ** 2 + H * H)
            assert q == pytest.approx(Pbar * params.beta0, rel=1e-10), alpha1


def test_hover_scan_at_a_tiny_share(base):
    """At alpha1 = 1e-4 user 1 gets 2.8e-4 of Pbar at x*.  On a 201-point
    scan of x* +- 1e-5 m no point beats the placement, and the values lie on
    a quadratic to 1e-15 relative: `fixed_boundary` bisects the small share
    itself, so no rounding of Pbar less the large share shows (that scatter
    read 4.5e-13, and a scan point beat r by 4.45e-13)."""
    params = replace(base, Pbar=1e-5, H=300.0, D=400.0, V=0.0)
    prof = RateProfile.of(1e-4)
    x, r, _ = hfh_solver._best_hover(params, prof)
    t = np.linspace(-1.0, 1.0, 201)
    scan = np.array([hfh_solver._hover_value(params, float(x + 1e-5 * s), prof) for s in t])
    assert scan.max() <= r * (1.0 + 1e-15)
    residual = scan - np.polyval(np.polyfit(t, scan, 2), t)
    assert np.max(np.abs(residual)) <= 1e-15 * r


# ---------------------------------------------------------------------------
# the floored global ranking: the same pick from a pruned bisection
# ---------------------------------------------------------------------------

FLOOR_CHANNELS = [
    pytest.param({"Pbar": Pbar, "H": H, "D": D}, id=f"{Pbar}W-{H:g}m-{D:g}m")
    for Pbar in (1e-5, 1e-2, 1.0)
    for H, D in ((100.0, 1000.0), (200.0, 3000.0))
] + [pytest.param({"H": 1e7}, id="near-tied-gains")]


def _floor_cases(base, channel):
    """(params, profile, tables, pairs) of the global ranking at T in {20,
    400} s and alpha1 in {0.05, 0.3, 0.5} on one channel."""
    for T in (20.0, 400.0):
        params = replace(base, T=T, **channel)
        tables = hfh_solver.pair_tables(params)
        pairs = hfh_solver._pairs_within(tables.x, params.V * params.T)
        for alpha1 in (0.05, 0.3, 0.5):
            yield params, RateProfile.of(alpha1), tables, pairs


def _assert_same_pick(plain, floored):
    """Equal argmax (index, value, t_I, lo, hi), and every survivor's outputs
    equal the unfloored ones, to the last bit; pruned pairs read -inf."""
    k = int(np.argmax(plain[0]))
    assert int(np.argmax(floored[0])) == k
    for a, b in zip(plain, floored):
        assert a[k] == b[k]
    kept = floored[0] > -np.inf
    for a, b in zip(plain, floored):
        assert np.array_equal(a[kept], b[kept])
    assert np.all(plain[0][~kept] < plain[0][k])


class TestFlooredRanking:
    @pytest.mark.parametrize("channel", FLOOR_CHANNELS)
    def test_same_pick(self, base, channel):
        """The ranking floored by `_rank_floor` picks the unfloored argmax."""
        pruned = 0
        for params, prof, tables, pairs in _floor_cases(base, channel):
            plain = hfh_solver._batched_profile_values(params, pairs, prof, tables)
            floor = hfh_solver._rank_floor(params, hfh_solver.global_pairs(params)[1], prof, tables)
            assert floor <= plain[0].max()
            floored = hfh_solver._batched_profile_values(params, pairs, prof, tables, floor)
            _assert_same_pick(plain, floored)
            pruned += int(np.sum(floored[0] == -np.inf))
        assert pruned > 0

    @pytest.mark.parametrize("alpha1", [0.05, 0.3, 0.5])
    def test_floor_at_the_maximum(self, base, alpha1):
        """The tightest floor a pair reaches still keeps the first maximum."""
        params, prof = replace(base, T=20.0), RateProfile.of(alpha1)
        tables = hfh_solver.pair_tables(params)
        pairs = hfh_solver._pairs_within(tables.x, params.V * params.T)
        plain = hfh_solver._batched_profile_values(params, pairs, prof, tables)
        floored = hfh_solver._batched_profile_values(params, pairs, prof, tables, plain[0].max())
        _assert_same_pick(plain, floored)
        assert np.sum(floored[0] > -np.inf) < 0.1 * len(pairs)

    def test_two_weights_prune_nothing(self, base):
        """With only the mu = 0 and 1 sentinels no bisection step runs, so
        no pair is pruned, whatever the floor."""
        params, prof = replace(base, T=20.0), RateProfile.of(0.3)
        x, _ = _polish_stage_inputs(params, -250.0, 150.0, 1, 0.45, 0.05)
        tables = hfh_solver._rate_tables(params, x, np.array([0.0, 1.0]))
        pairs = hfh_solver._pairs_within(x, params.V * params.T)
        plain = hfh_solver._batched_profile_values(params, pairs, prof, tables)
        floored = hfh_solver._batched_profile_values(params, pairs, prof, tables, plain[0].max())
        for a, b in zip(plain, floored):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("channel", FLOOR_CHANNELS)
    def test_value_below_every_row_bound(self, base, channel):
        """The pruning's invariant: a pair's value is at most its weighted-rate
        bound at every row, to _PRUNE_REL.  It holds because the row-m primal
        maximizes the mu[m]-weighted rate over the rows' primals; a table
        change that breaks that dominance fails here first."""
        for params, prof, tables, pairs in _floor_cases(base, channel):
            value = hfh_solver._batched_profile_values(params, pairs, prof, tables)[0]
            i, j = pairs[:, 0], pairs[:, 1]
            slack = params.T - (tables.x[j] - tables.x[i]) / params.V
            for m, w in enumerate(tables.mu):
                r1, r2, _ = hfh_solver._pair_primal(params, tables, slack, m, i, j)
                bound = (w * r1 + (1.0 - w) * r2) / (w * prof.alpha1 + (1.0 - w) * prof.alpha2)
                assert np.all(value <= bound * (1.0 + hfh_solver._PRUNE_REL)), (m, prof.alpha1)

    def test_global_stage_gathers_a_quarter(self, base, monkeypatch):
        """At the reference scenario the global stage's `_pair_primal` gathers
        (pairs summed over calls, the floor's candidates included) are at
        most 6% of the unfloored ranking's, for alpha1 = k/32, k = 1 .. 16
        (3.4-5.5% with the block bound, 16-20% without it)."""
        tables = hfh_solver.pair_tables(base)
        primal = hfh_solver._pair_primal
        gathered = [0]

        def counting(params, tables_, slack, m, i, j):
            if tables_ is tables:
                gathered[0] += len(i)
            return primal(params, tables_, slack, m, i, j)

        def global_gathers(prof):
            gathered[0] = 0
            hfh_solver._best_pair(base, prof, tables)
            return gathered[0]

        monkeypatch.setattr(hfh_solver, "_pair_primal", counting)
        for k in range(1, 17):
            prof = RateProfile.of(k / 32)
            floored = global_gathers(prof)
            with monkeypatch.context() as m:
                m.setattr(hfh_solver, "_rank_floor", lambda *args: -np.inf)
                plain = global_gathers(prof)
            assert floored <= 0.06 * plain, k

    @pytest.mark.parametrize("change", [{}, {"Pbar": 1e-5, "T": 20.0}], ids=["reference", "low-snr"])
    def test_region_unchanged(self, base, change, monkeypatch):
        """Every point of `trace_region(33)` equals the one traced with the
        floor forced to -inf: rates, trajectory, weight, schedule and
        diagnostics."""
        params = replace(base, **change)
        floored = trace_region(params, 33)
        monkeypatch.setattr(hfh_solver, "_rank_floor", lambda *args: -np.inf)
        plain = trace_region(params, 33)
        for p, q in zip(plain.points, floored.points):
            assert (p.r, p.rate_pair, p.trajectory, p.mu) == (q.r, q.rate_pair, q.trajectory, q.mu)
            assert p.diagnostics == q.diagnostics
            assert np.array_equal(p.schedule.p1, q.schedule.p1)
            assert np.array_equal(p.schedule.p2, q.schedule.p2)


class TestBlockBound:
    """The global ranking's block test (`_block_survivors`): the pairs of the
    node blocks whose bound is below the floor are dropped before any pair
    is ranked, and the pick stays the unfloored one."""

    @pytest.mark.parametrize("channel", FLOOR_CHANNELS)
    def test_value_below_every_block_bound(self, base, channel):
        """Every pair's unfloored value is at most its block pair's bound
        U_mu / (mu alpha1 + (1 - mu) alpha2) at every bound row, to
        _PRUNE_REL."""
        for params, prof, tables, pairs in _floor_cases(base, channel):
            bounds, ids, mu = hfh_solver._block_bounds(params)
            assert np.array_equal(pairs, hfh_solver.global_pairs(params)[0])
            assert np.array_equal(mu, tables.mu[::hfh_solver._BLOCK_ROW_STEP])
            value = hfh_solver._batched_profile_values(params, pairs, prof, tables)[0]
            for m, w in enumerate(mu):
                bound = bounds[m, ids] / (w * prof.alpha1 + (1.0 - w) * prof.alpha2)
                assert np.all(value <= bound * (1.0 + hfh_solver._PRUNE_REL)), (m, prof.alpha1)

    @pytest.mark.parametrize("channel", FLOOR_CHANNELS)
    def test_same_pick(self, base, channel):
        """Ranking the block survivors with the floor picks the unfloored
        argmax of all pairs: the same pair, value, t_I and bracket, to the
        last bit."""
        for params, prof, tables, pairs in _floor_cases(base, channel):
            plain = hfh_solver._batched_profile_values(params, pairs, prof, tables)
            floor = hfh_solver._rank_floor(params, hfh_solver.global_pairs(params)[1], prof, tables)
            kept = hfh_solver._block_survivors(params, pairs, prof, floor)
            ranked = hfh_solver._batched_profile_values(params, kept, prof, tables, floor)
            k, q = int(np.argmax(plain[0])), int(np.argmax(ranked[0]))
            assert tuple(pairs[k]) == tuple(kept[q])
            for a, b in zip(plain, ranked):
                assert a[k] == b[q]

    def test_near_tied_gains_drop_nothing(self, base):
        """At H = 1e7 m the weighted rates hardly depend on position, so
        every block's bound reaches the floor and no pair is dropped."""
        for params, prof, tables, pairs in _floor_cases(base, {"H": 1e7}):
            floor = hfh_solver._rank_floor(params, hfh_solver.global_pairs(params)[1], prof, tables)
            assert np.array_equal(hfh_solver._block_survivors(params, pairs, prof, floor), pairs)

    def test_cached_per_channel_and_reach(self, base):
        first = hfh_solver._block_bounds(replace(base, V=30.0, T=20.0))
        assert hfh_solver._block_bounds(replace(base, V=20.0, T=30.0)) is first
        assert hfh_solver._block_bounds(replace(base, V=20.0, T=30.0, Pbar=1.0)) is not first
        for a in hfh_solver._block_bounds(base):
            with pytest.raises(ValueError):
                a[...] = 0
