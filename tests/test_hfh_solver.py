import math
from dataclasses import replace

import numpy as np
import pytest

from uavbc import (
    DiscretizationInvalid,
    RateProfile,
    discretize,
    hfh_tdma_achievable,
    make_hfh,
    per_slot_weighted_split,
    solve_p5,
    solve_profile,
    solve_v0,
    trace_region,
    triangle_contains,
)
from uavbc import hfh_solver
from uavbc.hfh_solver import (
    DEFAULT_CONFIG,
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
FAST = SearchConfig(grid_xi=9, grid_xf=9, grid_ti=5, hover_grid=65, refine_rounds=1)


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
        assert sol.r == 5.271265107216534
        assert sol.rate_pair.r1 == 1.5813796494924122
        assert sol.rate_pair.r2 == 3.6898855750515733
        assert sol.mu == 0.5008792877197266
        t = sol.trajectory
        assert (t.x_I, t.x_F, t.t_I, t.t_F) == (
            -499.85493855861597,
            499.9999758875362,
            3.8326112877467753,
            22.838891564048154,
        )

    def test_profile_0_5(self, base):
        sol = solve_profile(base, RateProfile.of(0.5))
        assert sol.r == 5.271265379621093
        assert sol.mu == 0.4992532730102539
        assert sol.trajectory.x_I == -499.90783172163907
        assert sol.trajectory.t_I == 13.338000699093875

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


def _plain_batched_values(params, pos_matrix, profile, iters):
    """Grid ranking with a split for every element of every row."""
    h1, h2 = _plain_gains(params, pos_matrix)
    Pbar = params.Pbar
    a1, a2 = profile.alpha1, profile.alpha2
    lo = np.zeros(len(pos_matrix))
    hi = np.ones(len(pos_matrix))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        strong2, hs, hw, ps = _plain_strong_power(h1, h2, mid[:, None], Pbar)
        pw = Pbar - ps
        r_strong = np.log1p(ps * hs)
        r_weak = np.log1p(pw * hw / (ps * hw + 1.0))
        r1 = np.where(strong2, r_weak, r_strong).mean(axis=1) / math.log(2.0)
        r2 = np.where(strong2, r_strong, r_weak).mean(axis=1) / math.log(2.0)
        take = a2 * r1 - a1 * r2 <= 0.0
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    return np.minimum(r1 / a1, r2 / a2)


class TestKernelEquivalence:
    """The kernels compute the plain per-element numbers exactly (no tolerance)."""

    @pytest.mark.parametrize("alpha1", [0.3, 0.5])
    def test_batched_profile_values(self, base, alpha1):
        rng = np.random.default_rng(7)
        n = 128
        mids = (np.arange(n) + 0.5) * (base.T / n)
        special = [
            rng.uniform(-500.0, 500.0, n),  # unsorted
            np.tile([-120.0, 310.0, -120.0, 45.0], n // 4),  # repeats, not adjacent
            np.full(n, 137.5),  # all hover
            np.zeros(n),  # tied gains: zero denominator at mu = 1/2
        ]
        hfh = []
        while len(special) + len(hfh) < 2 * hfh_solver._GRID_BLOCK + 3:
            x_i, x_f = np.sort(rng.uniform(-500.0, 500.0, 2))
            x_f = min(x_f, x_i + base.V * base.T)
            t_i = rng.uniform(0.0, base.T - (x_f - x_i) / base.V)
            hfh.append(positions_at(base, make_hfh(base, x_i, x_f, t_i), mids))
        rows = np.array(special + hfh)
        prof = RateProfile.of(alpha1)
        got = hfh_solver._batched_profile_values(base, rows, prof, 24)
        assert np.array_equal(got, _plain_batched_values(base, rows, prof, 24))

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

    @pytest.mark.parametrize("T", [60.0, 20.0, 1000.0 / 30.0])
    def test_grid_candidates(self, base, T):
        """The broadcast grid equals make_hfh + positions_at, candidate by candidate."""
        params = replace(base, T=T)
        cfg = DEFAULT_CONFIG
        half = 0.5 * params.D
        mids = (np.arange(cfg.coarse_slots) + 0.5) * (T / cfg.coarse_slots)
        trajs = []
        for x_i in np.linspace(-half, half, cfg.grid_xi):
            reach = min(half, x_i + params.V * T)
            if reach <= x_i:
                continue
            for x_f in np.linspace(x_i, reach, cfg.grid_xf)[1:]:
                slack = T - (x_f - x_i) / params.V
                for t_i in np.linspace(0.0, slack, cfg.grid_ti) if slack > 0 else [0.0]:
                    trajs.append(make_hfh(params, x_i, x_f, float(t_i)))
        x_i, x_f, t_i, rows = hfh_solver._grid_candidates(params, cfg)
        assert [(t.x_I, t.x_F, t.t_I) for t in trajs] == list(zip(x_i, x_f, t_i))
        assert np.array_equal(rows, [positions_at(params, t, mids) for t in trajs])
