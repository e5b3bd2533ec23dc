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

# trimmed search for tests that only need a sane solution, not a tight one
FAST = SearchConfig(hover_grid=65)


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

    def test_equal_rate_bracketed(self, base):
        sol = solve_profile(base, RateProfile.of(0.5), FAST)
        lower = hfh_tdma_achievable(base, RateProfile.of(0.5)).r1
        assert lower - 1e-9 <= sol.rate_pair.r1 <= PEAK / 2 + 1e-9
        assert sol.rate_pair.r2 == pytest.approx(sol.rate_pair.r1, rel=1e-5)

    def test_v0_matches_placement_solver(self, static):
        prof = RateProfile.of(0.5)
        sol = solve_profile(static, prof)
        hover = solve_v0(static, prof)
        assert sol.r == pytest.approx(hover.r, abs=1e-4)
        assert sol.trajectory.x_I == sol.trajectory.x_F

    def test_speed_feasible_and_checked(self, base):
        sol = solve_profile(base, RateProfile.of(0.3), FAST)
        flight = sol.trajectory.span / base.V
        assert sol.trajectory.t_I + flight + sol.trajectory.t_F == pytest.approx(
            base.T, rel=1e-9
        )
        report = check_feasibility(base, sol)
        assert report.passed, report

    def test_optimal_pair_satisfies_hull_condition(self, base):
        """Intermediate hover locations are covered by the endpoints' hull."""
        sol = solve_profile(base, RateProfile.of(0.45), FAST)
        xI, xF = sol.trajectory.x_I, sol.trajectory.x_F
        if xF - xI > 1.0:
            for x in np.linspace(xI, xF, 7):
                assert triangle_contains(base, xI, xF, float(x), n_samples=96)

    def test_mirror_profile_swaps(self, base):
        a = solve_profile(base, RateProfile.of(0.3), FAST)
        b = solve_profile(base, RateProfile.of(0.7), FAST)
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
        params = replace(base, T=T)
        tdma = tdma_solve_profile(params, RateProfile.of(alpha1))
        assert _sc(params, alpha1).r >= tdma.r * (1.0 - 1e-5)

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
    reg = trace_region(base, 3, FAST)
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
        assert sol.r == 5.271265684894746
        assert sol.rate_pair.r1 == 1.5813797054684238
        assert sol.rate_pair.r2 == 3.6898859973637816
        assert sol.mu == 0.499434232711792
        t = sol.trajectory
        assert (t.x_I, t.x_F, t.t_I, t.t_F) == (
            -500.0,
            500.0,
            3.8294620210062216,
            22.837204645660442,
        )

    def test_profile_0_5(self, base):
        sol = solve_profile(base, RateProfile.of(0.5))
        assert sol.r == 5.27126606457166
        assert sol.mu == 0.5
        assert sol.trajectory.x_I == -500.0
        assert sol.trajectory.t_I == 13.33333333333332

    @pytest.mark.parametrize(
        "alpha1, mu_max_iter, mu",
        [(0.5, 60, 0.5), (0.3, 60, 0.49999999999999994), (0.3, 1, 0.15000000000000002)],
    )
    def test_tie_break_fallback(self, base, alpha1, mu_max_iter, mu):
        """Tied gains at x = 0 flip all power at mu = 1/2: the blend fires.

        After one iterate the bracket's lower end is still mu = 0, whose
        state the blend solves on demand.
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


def _plain_pair_value(params, tables, i, j, profile):
    """One pair's (value, t_I) from its primal point at every weight: the last
    weight with imbalance <= 0 and the next one, time-shared onto the ray."""
    a1, a2 = profile.alpha1, profile.alpha2
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
    gaps = [a2 * r1 - a1 * r2 for r1, r2, _ in points]
    lo = max(m for m, g in enumerate(gaps) if g <= 0.0)
    (r1L, r2L, iL), (r1H, r2H, iH) = points[lo], points[lo + 1]
    lam = gaps[lo + 1] / (gaps[lo + 1] - gaps[lo])
    r1 = lam * r1L + (1.0 - lam) * r1H
    r2 = lam * r2L + (1.0 - lam) * r2H
    return min(r1 / a1, r2 / a2), slack * (lam * iL + (1.0 - lam) * iH)


class TestKernelEquivalence:
    """The kernels compute the plain per-element numbers exactly (no tolerance)."""

    @pytest.mark.parametrize("alpha1", [0.3, 0.5])
    def test_batched_profile_values(self, base, alpha1):
        """The weight bisection over all pairs equals a per-pair weight scan."""
        params = replace(base, T=20.0)  # part of the wedge is out of reach
        tables = hfh_solver.pair_tables(params)
        rng = np.random.default_rng(11)
        n = len(tables.x)
        pairs = [(0, 0), (n // 2, n // 2), (n // 2 - 3, n // 2 + 7), (0, 60), (n - 61, n - 1)]
        while len(pairs) < 120:
            i, j = np.sort(rng.integers(0, n, 2))
            if tables.x[j] - tables.x[i] <= params.V * params.T:
                pairs.append((i, j))
        prof = RateProfile.of(alpha1)
        value, t_I, lo, hi = hfh_solver._batched_profile_values(
            params, np.array(pairs), prof, tables
        )
        assert np.all(hi == lo + 1)
        for k, (i, j) in enumerate(pairs):
            assert (value[k], t_I[k]) == _plain_pair_value(params, tables, i, j, prof)

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
        trajectory; P5 balances the rates to 1e-10 here, because its default
        mu_tol = 1e-6 alone can leave r up to ~3e-6 below its optimum."""
        prof = RateProfile.of(alpha1)
        x_I, x_F, t_I, pair, bound, polished = hfh_solver._best_pair(
            base, prof, hfh_solver.pair_tables(base)
        )
        assert pair <= polished and pair <= bound
        disc = discretize(base, make_hfh(base, x_I, x_F, t_I), 4096)
        res = solve_p5(base, disc, prof, SearchConfig(mu_tol=1e-10, mu_max_iter=100))
        assert res.r == pytest.approx(polished, abs=1e-6)

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
