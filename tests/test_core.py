import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from uavbc import (
    DpConfig,
    InvalidParams,
    InvalidTrajectory,
    PowerBudgetExceeded,
    RateProfile,
    SearchConfig,
    SystemParams,
    TdmaSearchConfig,
    TimeOutOfRange,
    ZeroSpeedLeg,
    channel_gain,
    dp_trajectory_oracle,
    hfh_position,
    leg_rate_integral,
    make_hfh,
    sc_rate_pair,
    solve_profile,
    solve_v0,
    tdma_solve_profile,
    tdma_trace_region,
    trace_region,
    validate_params,
)

# 100001-point trapezoid reference for the full -D/2 -> D/2 leg of user 2
# at full power (reference scenario, V = 30 m/s).
LEG_TRAPZ_REF = 94.62106191516791


def test_validate_params_beta0(base):
    assert validate_params(base).beta0 == pytest.approx(1e8, rel=0, abs=0)
    unit = SystemParams(gamma0=1.0, sigma2=1.0, H=1.0, D=1.0, Pbar=1.0, V=0.0, T=1.0)
    assert validate_params(unit).beta0 == 1.0


@pytest.mark.parametrize("field,value", [("H", 0.0), ("sigma2", 0.0), ("T", -1.0), ("V", -0.1)])
def test_validate_params_rejects(base, field, value):
    bad = replace(base, **{field: value})
    with pytest.raises(InvalidParams) as err:
        validate_params(bad)
    assert err.value.field == field


ENTRY_POINTS = {
    "solve_profile": lambda params, prof: solve_profile(params, prof),
    "trace_region": lambda params, prof: trace_region(params, 3),
    "tdma_solve_profile": lambda params, prof: tdma_solve_profile(params, prof),
    "tdma_trace_region": lambda params, prof: tdma_trace_region(params, 3),
    "dp_trajectory_oracle": lambda params, prof: dp_trajectory_oracle(params, prof, DpConfig(8, 11, 3, 64)),
    "solve_v0": lambda params, prof: solve_v0(params, prof),
}


@pytest.mark.parametrize(
    "field,value",
    [("Pbar", math.nan), ("T", 0.0), ("T", math.inf), ("H", 0.0), ("V", -1.0),
     ("H", 1e-320), ("H", 1e160), ("D", 1e200), ("H", 1e-150), ("H", 1e-160), ("Pbar", 1e305)],
)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_validate_params(base, entry, field, value):
    """Out-of-range params raise InvalidParams naming the field, not a raw
    numpy error, a zero rate, `DiscretizationInvalid` or
    `PowerBudgetExceeded`: also a positive finite H or D whose square
    underflows or overflows, an H whose squared peak gain overflows
    (1e-150 m; at 1e-160 m the peak gain itself does) and a Pbar whose
    received power does."""
    with pytest.raises(InvalidParams) as err:
        ENTRY_POINTS[entry](replace(base, **{field: value}), RateProfile.of(0.3))
    assert err.value.field == field


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_reject_an_underflowing_gain(base, entry):
    """A far-user gain beta0 / (H^2 + D^2) that underflows to 0 raises
    InvalidParams naming H, not a RuntimeWarning from 0/0."""
    with pytest.raises(InvalidParams) as err:
        ENTRY_POINTS[entry](replace(base, gamma0=1e-300, H=1e20), RateProfile.of(0.3))
    assert err.value.field == "H"


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_reject_an_overflowing_reference_gain(base, entry):
    """beta0 = gamma0 / sigma2 = 1e300 / 1e-300 overflows: InvalidParams
    naming gamma0, not `PowerBudgetExceeded: x=nan`."""
    with pytest.raises(InvalidParams) as err:
        ENTRY_POINTS[entry](replace(base, gamma0=1e300, sigma2=1e-300), RateProfile.of(0.3))
    assert err.value.field == "gamma0"


def test_channel_gain_values(base):
    assert channel_gain(base, 500.0, 2) == pytest.approx(1e4, rel=1e-12)
    assert channel_gain(base, 500.0, 1) == pytest.approx(1e8 / 1.01e6, rel=1e-12)
    assert channel_gain(base, 0.0, 1) == channel_gain(base, 0.0, 2)


def test_channel_gain_peaks_and_decays(base):
    for user, x_k in ((1, -500.0), (2, 500.0)):
        peak = channel_gain(base, x_k, user)
        assert peak == pytest.approx(base.peak_gain)
        offsets = np.linspace(10.0, 900.0, 30)
        gains = [channel_gain(base, x_k + d, user) for d in offsets]
        assert all(g < peak for g in gains)
        assert all(a > b for a, b in zip(gains, gains[1:]))


def test_sc_rate_pair_examples(base):
    pair = sc_rate_pair(base, 0.0, base.Pbar / 2, base.Pbar / 2)
    assert pair.total == pytest.approx(2.2768402053588246, abs=1e-12)

    assert sc_rate_pair(base, 100.0, 0.0, 0.0) == sc_rate_pair(base, -320.0, 0.0, 0.0)
    assert sc_rate_pair(base, 100.0, 0.0, 0.0).total == 0.0

    pair = sc_rate_pair(base, 500.0, 0.0, base.Pbar)
    assert pair.r1 == 0.0
    assert pair.r2 == pytest.approx(math.log2(101.0), abs=1e-12)


def test_sc_rate_pair_power_guard(base):
    with pytest.raises(PowerBudgetExceeded):
        sc_rate_pair(base, 0.0, base.Pbar, base.Pbar)
    with pytest.raises(PowerBudgetExceeded):
        sc_rate_pair(base, 0.0, -1e-6, base.Pbar)


def test_sc_sum_bounded_by_peak(base):
    rng = np.random.default_rng(7)
    for _ in range(300):
        x = rng.uniform(-500.0, 500.0)
        p2 = rng.uniform(0.0, base.Pbar)
        pair = sc_rate_pair(base, x, base.Pbar - p2, p2)
        assert pair.total <= base.peak_rate + 1e-12


def test_sc_mirror_symmetry(base):
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = rng.uniform(-500.0, 500.0)
        p2 = rng.uniform(0.0, base.Pbar)
        a = sc_rate_pair(base, x, base.Pbar - p2, p2)
        b = sc_rate_pair(base, -x, p2, base.Pbar - p2)
        assert a.r1 == pytest.approx(b.r2, abs=1e-12)
        assert a.r2 == pytest.approx(b.r1, abs=1e-12)


def test_rate_profile_validation():
    with pytest.raises(ValueError):
        RateProfile(0.6, 0.6)
    with pytest.raises(ValueError):
        RateProfile(-0.1, 1.1)
    assert RateProfile.of(0.25).mirrored().alpha1 == 0.75


@pytest.mark.parametrize(
    "alpha1, alpha2, field",
    [(-0.1, 1.1, "alpha1"), (1.1, -0.1, "alpha2"), (0.3, 0.3, "alpha2"), (0.6, 0.6, "alpha2")],
    ids=["negative-alpha1", "negative-alpha2", "sum-below-one", "sum-above-one"],
)
def test_rate_profile_errors_are_typed(alpha1, alpha2, field):
    with pytest.raises(InvalidParams) as err:
        RateProfile(alpha1, alpha2)
    assert err.value.field == field


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda p: make_hfh(p, 0.0, 0.0, math.nan), InvalidTrajectory),
        (lambda p: make_hfh(p, 0.0, 0.0, math.inf), InvalidTrajectory),
        (lambda p: sc_rate_pair(p, 0.0, math.nan, 0.0), PowerBudgetExceeded),
        (lambda p: sc_rate_pair(p, 0.0, 0.0, math.nan), PowerBudgetExceeded),
        (lambda p: sc_rate_pair(p, math.nan, 0.0, p.Pbar), PowerBudgetExceeded),
        (lambda p: sc_rate_pair(p, math.inf, p.Pbar, 0.0), PowerBudgetExceeded),
        (lambda p: hfh_position(make_hfh(p, 0.0, 0.0, 0.0), p, math.nan), TimeOutOfRange),
    ],
    ids=["hfh-nan-time", "hfh-inf-time", "sc-nan-p1", "sc-nan-p2", "sc-nan-x", "sc-inf-x",
         "position-nan-time"],
)
def test_non_finite_inputs_are_typed(base, call, error):
    """A non-finite input raises its typed error instead of a NaN result."""
    with pytest.raises(error):
        call(base)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: SearchConfig(n_slots=0), "n_slots"),
        (lambda: SearchConfig(n_slots=-3), "n_slots"),
        (lambda: SearchConfig(mu_max_iter=0), "mu_max_iter"),
        (lambda: SearchConfig(mu_tol=math.inf), "mu_tol"),
        (lambda: SearchConfig(mu_tol=math.nan), "mu_tol"),
        (lambda: SearchConfig(mu_tol=0.0), "mu_tol"),
        (lambda: SearchConfig(mu_tol=-1.0), "mu_tol"),
        (lambda: TdmaSearchConfig(x_grid=1), "x_grid"),
        (lambda: TdmaSearchConfig(ti_grid=0), "ti_grid"),
    ],
    ids=["no-slots", "negative-slots", "no-weight-solves", "infinite-mu-tol", "nan-mu-tol",
         "zero-mu-tol", "negative-mu-tol", "one-x", "no-hover-times"],
)
def test_search_config_errors_are_typed(make, field):
    """A read search knob out of its range raises InvalidParams naming it,
    instead of an empty schedule, a raw error, a dropped family or a P5
    that stops after one solve or runs until its bracket collapses."""
    with pytest.raises(InvalidParams) as err:
        make()
    assert err.value.field == field


def test_search_configs_at_their_least_values(base):
    """The least values solve, and the unread fields are not checked."""
    SearchConfig(hover_grid=0, grid_xi=0, golden_iters=0)
    prof = RateProfile.of(0.3)
    assert solve_profile(base, prof, SearchConfig(n_slots=1, mu_max_iter=1)).r > 0.0
    assert tdma_solve_profile(base, prof, TdmaSearchConfig(x_grid=2, ti_grid=1)).r > 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_rate_profile_rejects_non_finite_weights(value):
    for make, field in ((lambda: RateProfile.of(value), "alpha1"),
                        (lambda: RateProfile(0.5, value), "alpha2")):
        with pytest.raises(InvalidParams) as err:
            make()
        assert err.value.field == field


class TestHfhPosition:
    def test_endpoints(self, base):
        traj = make_hfh(base, -400.0, 300.0, 5.0)
        assert hfh_position(traj, base, 0.0) == -400.0
        assert hfh_position(traj, base, base.T) == 300.0

    def test_degenerate_hover(self, base):
        traj = make_hfh(base, 120.0, 120.0, 10.0)
        for t in (0.0, 13.0, 60.0):
            assert hfh_position(traj, base, t) == 120.0

    def test_flight_midpoint(self, base):
        traj = make_hfh(base, -500.0, 500.0, 10.0)
        t_mid = traj.t_I + (500.0 / base.V)
        assert hfh_position(traj, base, t_mid) == pytest.approx(0.0, abs=1e-9)

    def test_out_of_range(self, base):
        traj = make_hfh(base, 0.0, 0.0, 0.0)
        with pytest.raises(TimeOutOfRange):
            hfh_position(traj, base, -1.0)
        with pytest.raises(TimeOutOfRange):
            hfh_position(traj, base, base.T + 1.0)

    def test_speed_constraint_sampled(self, base):
        traj = make_hfh(base, -500.0, 437.5, 3.3)
        rng = np.random.default_rng(3)
        for _ in range(400):
            t = rng.uniform(0.0, base.T)
            d = rng.uniform(0.0, base.T - t)
            dx = abs(hfh_position(traj, base, t + d) - hfh_position(traj, base, t))
            assert dx <= base.V * d + 1e-9

    def test_zero_speed_requires_hover(self, static):
        with pytest.raises(ValueError):
            make_hfh(static, -100.0, 100.0, 0.0)
        make_hfh(static, -100.0, -100.0, 12.0)  # fine

    def test_time_budget_must_close(self, base):
        with pytest.raises(ValueError):
            make_hfh(base, -500.0, 500.0, base.T)  # no time left to fly

    @pytest.mark.parametrize(
        "x_I, x_F, t_I",
        [(-600.0, 0.0, 0.0), (100.0, -100.0, 0.0)],
        ids=["outside", "unordered"],
    )
    def test_bad_locations_are_typed(self, base, x_I, x_F, t_I):
        with pytest.raises(InvalidTrajectory, match="outside"):
            make_hfh(base, x_I, x_F, t_I)

    def test_zero_speed_flight_is_typed(self, static):
        with pytest.raises(InvalidTrajectory, match="V = 0"):
            make_hfh(static, -100.0, 100.0, 0.0)

    @pytest.mark.parametrize("t_I", [60.0, -1.0], ids=["no-time-to-fly", "negative"])
    def test_bad_hover_times_are_typed(self, base, t_I):
        with pytest.raises(InvalidTrajectory, match="hover times") as err:
            make_hfh(base, -500.0, 500.0, t_I)
        assert isinstance(err.value, ValueError)


class TestLegRateIntegral:
    def test_empty_leg(self, base):
        assert leg_rate_integral(base, 1, 50.0, 50.0, base.Pbar) == 0.0

    def test_zero_power(self, base):
        assert leg_rate_integral(base, 2, -100.0, 100.0, 0.0) == 0.0

    def test_against_trapezoid_reference(self, base):
        val = leg_rate_integral(base, 2, -500.0, 500.0, base.Pbar)
        assert val == pytest.approx(LEG_TRAPZ_REF, abs=1e-6)
        # mirror symmetry of the two users over the full leg
        val1 = leg_rate_integral(base, 1, -500.0, 500.0, base.Pbar)
        assert val1 == pytest.approx(val, abs=1e-6)

    def test_zero_speed_leg(self, static):
        with pytest.raises(ZeroSpeedLeg):
            leg_rate_integral(static, 1, -10.0, 10.0, static.Pbar)

    @pytest.mark.parametrize(
        "change, user, x_a, x_b",
        [
            pytest.param({}, 2, -500.0, 500.0, id="reference"),
            pytest.param({}, 1, -480.0, 130.0, id="partial"),
            pytest.param({"Pbar": 1e-5, "D": 3000.0}, 1, -1500.0, 1500.0, id="long-low-snr"),
            pytest.param({"Pbar": 1e-5, "D": 3000.0}, 2, -1425.0, 375.0, id="long-low-snr-far"),
            pytest.param({"Pbar": 10.0, "H": 10.0, "D": 3000.0}, 1, -1500.0, 1500.0, id="low-high-snr"),
        ],
    )
    def test_against_quad(self, base, change, user, x_a, x_b):
        """Within 1e-12 relative of adaptive quadrature, on legs of up to
        300 H (600 panels)."""
        params = replace(base, **change)

        def rate(x):
            return math.log2(1.0 + params.Pbar * channel_gain(params, x, user))

        points = [x for x in (-0.5 * params.D, 0.5 * params.D) if x_a < x < x_b] or None
        ref = quad(rate, x_a, x_b, points=points, epsabs=0.0, epsrel=1e-13, limit=500)[0] / params.V
        val = leg_rate_integral(params, user, x_a, x_b, params.Pbar)
        assert val == pytest.approx(ref, rel=1e-12, abs=0.0)
