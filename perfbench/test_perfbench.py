"""Checks of the benchmark harness itself, on small inputs so they run fast.

Run with: python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from uavbc import SystemParams, hfh_solver, oracle  # noqa: E402

BASE = SystemParams(gamma0=1e-5, sigma2=1e-13, H=100.0, D=1000.0, Pbar=1e-2, V=30.0, T=60.0)
SMALL = hfh_solver.SearchConfig(
    grid_xi=5, grid_xf=5, grid_ti=3, hover_grid=33, refine_rounds=1, golden_iters=8,
    rerank_top=2)
SMALL_DP = oracle.DpConfig(n_slots=16, n_positions=11, mu_steps=3, r1_bins=256)
EXACT_COUNTS = ("hfh_solver.p5_calls", "hfh_solver.weight_solves", "oracle.dp_cells")


def small_workloads():
    return [
        workloads.ScRegion(BASE, 0, n_profiles=5, cfg=SMALL),
        workloads.ScenarioScan(BASE, 0, scenarios=[(30.0, 60.0, 0.3), (0.0, 60.0, 0.2)],
                               cfg=SMALL),
        workloads.OracleCertify(BASE, 0, profiles=[1 / 7, 4 / 7], dp_cfg=SMALL_DP, cfg=SMALL),
    ]


def traced_round(wl):
    tr = tracing.Tracer()
    with tr.installed():
        rnd = wl.round(tr)
    return rnd, tracing.layer_metrics(tr, 1)


@pytest.mark.parametrize("wl", small_workloads(), ids=lambda w: w.name)
def test_traced_outputs_equal_untraced(wl):
    plain = wl.round()
    traced, _ = traced_round(wl)
    assert plain.quality
    assert traced.quality == plain.quality
    assert traced.r_sc == plain.r_sc
    assert traced.r_tdma == plain.r_tdma
    assert traced.r_dp == plain.r_dp
    assert traced.margins == plain.margins
    assert traced.dp_gaps == plain.dp_gaps


def test_sc_region_times_the_whole_call():
    solve = hfh_solver.solve_profile
    rnd = small_workloads()[0].round()
    assert len(rnd.point_times) == 3  # 5 profiles: 3 solved, 2 mirrored
    assert rnd.solve_s >= sum(rnd.point_times) > 0.0
    # The bursts after each solve are left out of the solve time.
    assert rnd.solve_s < sum(rnd.point_times) + 0.5 * sum(rnd.cal.bursts)
    assert hfh_solver.solve_profile is solve


def test_sc_region_bursts_are_spans_of_their_own():
    tr = tracing.Tracer()
    with tr.installed():
        rnd = small_workloads()[0].round(tr)
    region = tr.names.index("hfh_solver.trace_region")
    bursts = [i for i, name in enumerate(tr.names) if name == "calibration.after_point"]
    # Children of the traced call, so its self time leaves them out.
    assert len(bursts) == len(rnd.point_times)
    assert all(tr.parent[i] == region for i in bursts)


def test_round_without_per_point_times_still_reports():
    rnd = workloads.Round(solve_s=2.0, attempted=4, quality=[0, 1, 2, 3],
                          r_sc=[5.0, 5.0, 5.0, 5.0], r_tdma=[3.0, 3.0, 3.0, 3.0])
    m, _ = run.end_to_end([rnd], [0.5])
    assert m["points_per_s"] == 2.0
    assert m["ref_points_per_s"] == 4.0 / rnd.cal.scaled(2.0)
    assert m["r_mean"] == 4.0
    assert "solve_s_p50" not in m and "solve_s_tail" not in m


def test_wrapped_functions_are_restored():
    before = tracing.snapshot_attributes()
    assert all(v is not None for v in before.values())
    for wl in small_workloads():
        traced_round(wl)
    after = tracing.snapshot_attributes()
    assert all(after[k] is before[k] for k in before)


def test_wrapped_functions_are_restored_when_the_call_raises():
    before = tracing.snapshot_attributes()
    with pytest.raises(AttributeError):
        with tracing.Tracer().installed():
            hfh_solver.solve_profile(BASE, None)
    after = tracing.snapshot_attributes()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("wl", small_workloads(), ids=lambda w: w.name)
def test_exact_counts_repeat(wl):
    _, first = traced_round(wl)
    _, second = traced_round(wl)
    for key in EXACT_COUNTS:
        assert first[key] == second[key], key
    assert first["hfh_solver.p5_calls"] > 0
    assert first["hfh_solver.weight_solves"] > 0


def test_dp_cells_are_computed_from_the_config():
    _, layer = traced_round(small_workloads()[2])
    cells = SMALL_DP.n_slots * SMALL_DP.n_positions * SMALL_DP.r1_bins
    assert layer["oracle.dp_cells"] == 2 * cells
    assert layer["oracle.dp_table_bytes"] == 2 * cells


def test_self_time_excludes_child_spans():
    tr = tracing.Tracer()
    outer = tr.wrap(lambda: inner(), "hfh_solver.outer")
    inner = tr.wrap(lambda: sum(range(10000)), "core.inner")
    outer()
    layer_self = tracing.layer_metrics(tr, 1)["core.self_s"]
    assert tr.parent == [-1, 0]
    assert layer_self == pytest.approx(tr.end[1] - tr.start[1])


def test_scan_inputs_follow_the_seed():
    a = workloads.scan_inputs(7)
    assert a == workloads.scan_inputs(7)
    assert a != workloads.scan_inputs(8)
    assert a[0] == workloads.ANCHOR
    for V, T, alpha1 in a:
        assert V in (0.0, 30.0)
        assert 20.0 <= T <= 400.0
        assert 0.0 < alpha1 <= 0.5
