import csv
import json
import math

import pytest

from uavbc import oracle
from uavbc.cli import (
    ConfigError,
    apply_overrides,
    build_scenario,
    main,
    parse_scenario_file,
)

BASE_SCENARIO = """
# reference scenario
gamma0_db = -50
sigma2_dbm = -100
h = 100
d = 1000
p_dbm = 10
v = 30
t = 60
"""


@pytest.fixture()
def scenario(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASE_SCENARIO)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestScenarioParsing:
    def test_db_conversions(self, scenario):
        params, settings = build_scenario(parse_scenario_file(scenario))
        assert params.gamma0 == pytest.approx(1e-5)
        assert params.sigma2 == pytest.approx(1e-13)
        assert params.Pbar == pytest.approx(1e-2)
        assert params.beta0 == pytest.approx(1e8)
        assert settings == {}

    def test_defaults_when_empty(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing here\n")
        params, _ = build_scenario(parse_scenario_file(str(path)))
        assert params.H == 100.0 and params.V == 30.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("altitude = 5\n")
        with pytest.raises(ConfigError):
            build_scenario(parse_scenario_file(str(path)))

    @pytest.mark.parametrize("key", ["grid_xi", "grid_xf", "grid_ti", "hover_grid"])
    def test_old_grid_keys_rejected(self, tmp_path, key):
        """The endpoint-pair search and the closed-form hover placement have
        no grid, so their old knobs are unknown."""
        path = tmp_path / "grid.cfg"
        path.write_text(BASE_SCENARIO + f"{key} = 9\n")
        with pytest.raises(ConfigError, match="unknown scenario key"):
            build_scenario(parse_scenario_file(str(path)))
        out = tmp_path / "sc.csv"
        code = main(["region", "--scenario", str(path), "--profiles", "2", "--out", str(out)])
        assert code == 2

    def test_overrides(self, scenario):
        params, _ = build_scenario(parse_scenario_file(scenario))
        out = apply_overrides(params, "V=0,T=20,P=30dBm")
        assert out.V == 0.0 and out.T == 20.0
        assert out.Pbar == pytest.approx(1.0)
        with pytest.raises(ConfigError):
            apply_overrides(params, "Q=1")


class TestRegionCommand:
    def test_tinf_region(self, scenario, tmp_path):
        out = tmp_path / "tinf.csv"
        code = main(
            ["region", "--scenario", scenario, "--mode", "tinf", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 33
        peak = math.log2(101.0)
        for row in rows:
            assert float(row["r1"]) + float(row["r2"]) == pytest.approx(peak, abs=1e-9)
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["regions"][0]["mode"] == "tinf"
        assert len(sidecar["regions"][0]["points"]) == 33

    def test_two_profiles_are_corners(self, scenario, tmp_path):
        out = tmp_path / "two.csv"
        assert (
            main(
                ["region", "--scenario", scenario, "--mode", "tinf",
                 "--profiles", "2", "--out", str(out)]
            )
            == 0
        )
        rows = read_csv(out)
        assert [float(r["r1"]) for r in rows][0] == 0.0
        assert [float(r["r2"]) for r in rows][1] == 0.0

    def test_v0_mode_deterministic(self, scenario, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code = main(
                ["region", "--scenario", scenario, "--mode", "v0",
                 "--profiles", "5", "--out", str(out)]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = read_csv(out1)
        assert rows[0]["x_I"] == rows[0]["x_F"]  # hover solutions

    def test_high_snr_needs_power(self, scenario, tmp_path):
        out = tmp_path / "hs.csv"
        code = main(
            ["region", "--scenario", scenario, "--mode", "high-snr", "--out", str(out)]
        )
        assert code == 2  # 10 dBm is far below the validity floor
        code = main(
            ["region", "--scenario", scenario, "--mode", "high-snr",
             "--override", "P=30dBm", "--out", str(out)]
        )
        assert code == 0

    def test_tdma_at_tiny_speed(self, tmp_path):
        """A reach of 6e-6 m, which the positions at the users do not
        resolve, is solved, as SC solves it."""
        path = tmp_path / "slow.cfg"
        path.write_text(BASE_SCENARIO.replace("v = 30", "v = 1e-7"))
        for mode in ("tdma", "sc"):
            out = tmp_path / f"{mode}.csv"
            code = main(["region", "--scenario", str(path), "--mode", mode,
                         "--profiles", "5", "--out", str(out)])
            assert code == 0, mode
            assert len(read_csv(out)) == 5

    def test_tdma_sidecar_reports_the_residual(self, scenario, tmp_path):
        """Each non-corner TDMA point's sidecar entry carries its first-order
        residual (0 for the reference scenario's hover-both winners)."""
        out = tmp_path / "tdma.csv"
        code = main(["region", "--scenario", scenario, "--mode", "tdma",
                     "--profiles", "5", "--out", str(out)])
        assert code == 0
        points = json.loads(out.with_suffix(".json").read_text())["regions"][0]["points"]
        for point in points[1:-1]:
            assert point["diagnostics"]["foc_residual"] == 0.0
            assert point["diagnostics"]["case"] == 4

    @pytest.mark.parametrize("h", ["1e-320", "1e160", "1e-150", "1e-160"])
    def test_unrepresentable_gain_exits_2(self, tmp_path, capsys, h):
        """An altitude whose gains a double cannot hold exits 2 naming H,
        with one message line and no output file."""
        path = tmp_path / "h.cfg"
        path.write_text(BASE_SCENARIO.replace("h = 100", f"h = {h}"))
        out = tmp_path / "sc.csv"
        code = main(["region", "--scenario", str(path), "--profiles", "3", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"configuration error: H = {float(h)!r} m")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_reference_gain_exits_2(self, tmp_path, capsys):
        """gamma0 = 3000 dB over sigma2 = -2970 dBm: beta0 overflows, so the
        run exits 2 naming gamma0, with no output file."""
        path = tmp_path / "g.cfg"
        path.write_text(BASE_SCENARIO.replace("gamma0_db = -50", "gamma0_db = 3000")
                        .replace("sigma2_dbm = -100", "sigma2_dbm = -2970"))
        out = tmp_path / "sc.csv"
        code = main(["region", "--scenario", str(path), "--profiles", "3", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error: gamma0 / sigma2 = inf")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_sc_sidecar_reports_the_polish(self, scenario, tmp_path):
        """Each flight's sidecar entry names its pair's family and its
        first-order residual: at 5 profiles the reference scenario's
        non-corner profiles hover above both users and are placed in closed
        form (alpha1 = 1/4 and 3/4 used to be zoomed from -495 m to D/2)."""
        out = tmp_path / "sc.csv"
        code = main(["region", "--scenario", scenario, "--profiles", "5", "--out", str(out)])
        assert code == 0
        points = json.loads(out.with_suffix(".json").read_text())["regions"][0]["points"]
        assert [p["diagnostics"].get("polish") for p in points] == [None] + ["hover_both"] * 3 + [None]
        assert [p["diagnostics"].get("foc_residual") for p in points] == [None] + [0.0] * 3 + [None]

    def test_sc_sidecar_reports_static_picks(self, scenario, tmp_path):
        """At 33 profiles alpha1 = 2/32 and 4/32 (and their mirrors) pick a
        static pair from the global table, which is not placed, and at 1/32
        and 3/32 the pair one node apart collapses onto the hover: the
        sidecar labels them "static", with the hover's value.  The
        fly-hover roots at 5/32 to 7/32 report a residual below 1e-12."""
        out = tmp_path / "sc.csv"
        code = main(["region", "--scenario", scenario, "--out", str(out)])
        assert code == 0
        points = json.loads(out.with_suffix(".json").read_text())["regions"][0]["points"]
        assert len(points) == 33
        static = [k for k, p in enumerate(points) if p["diagnostics"].get("polish") == "static"]
        assert static == [1, 2, 3, 4, 28, 29, 30, 31]
        flights = [k for k, p in enumerate(points) if p["diagnostics"].get("polish") == "fly_hover"]
        assert flights == [5, 6, 7, 25, 26, 27]
        assert all(points[k]["diagnostics"]["foc_residual"] < 1e-12 for k in flights)
        for k in static:
            diag = points[k]["diagnostics"]
            assert diag["polish_value"] == diag["hover_r"]

    def test_missing_scenario_file(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(
            ["region", "--scenario", str(tmp_path / "nope.cfg"), "--mode", "tinf",
             "--out", str(out)]
        )
        assert code == 2


PROFILE_COMMANDS = {
    "region-sc": ["region", "--mode", "sc"],
    "region-tdma": ["region", "--mode", "tdma"],
    "region-tinf": ["region", "--mode", "tinf"],
    "region-v0": ["region", "--mode", "v0"],
    "region-high-snr": ["region", "--mode", "high-snr", "--override", "P=40dBm"],
    "compare": ["compare", "--override", "V=0"],
    "fixed": ["fixed", "--x", "0"],
    "oracle-check": ["oracle-check"],
}


@pytest.mark.parametrize("count", ["1", "0", "-3"])
@pytest.mark.parametrize("command", PROFILE_COMMANDS.values(), ids=PROFILE_COMMANDS.keys())
def test_bad_profile_count_is_config_error(scenario, tmp_path, capsys, command, count):
    """Fewer than two profiles exits 2 with one message line and no output file."""
    out = tmp_path / "out.csv"
    code = main([*command, "--scenario", scenario, "--profiles", count, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error:") and "profiles" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, command",
    [
        ("n_slots = 0", ["region", "--override", "V=0"]),
        ("n_slots = -3", ["region"]),
        ("tdma_x_grid = 1", ["region", "--mode", "tdma"]),
        ("tdma_ti_grid = 0", ["region", "--mode", "tdma"]),
    ],
    ids=["no-slots", "negative-slots", "one-x", "no-hover-times"],
)
def test_bad_search_knob_is_config_error(tmp_path, capsys, line, command):
    """A search knob below its least value exits 2 naming it, with one
    message line and no output file."""
    path = tmp_path / "knob.cfg"
    path.write_text(BASE_SCENARIO + line + "\n")
    out = tmp_path / "out.csv"
    code = main([*command, "--scenario", str(path), "--profiles", "3", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    field = line.split(" = ")[0].removeprefix("tdma_")
    assert err.startswith("configuration error:") and field in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, mode", [("tdma_x_grid", "tdma"), ("tdma_ti_grid", "tdma"), ("n_slots", "sc")]
)
def test_unallocatable_grid_is_config_error(tmp_path, capsys, key, mode):
    """A grid of 10**14 points needs 800 TB per float array, more than a
    47-bit address space holds, so its first array fails to allocate at
    once: exit 2 with one message line and no output file."""
    path = tmp_path / "huge.cfg"
    path.write_text(BASE_SCENARIO + f"{key} = {10**14}\n")
    out = tmp_path / "out.csv"
    code = main(["region", "--mode", mode, "--scenario", str(path), "--profiles", "3",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: grid sizes too large")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


class TestFixedCommand:
    def test_fixed_at_center_is_line(self, scenario, tmp_path):
        out = tmp_path / "fixed.csv"
        code = main(
            ["fixed", "--scenario", scenario, "--x", "0", "--profiles", "9",
             "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 9
        for row in rows:
            total = float(row["r1"]) + float(row["r2"])
            assert total == pytest.approx(2.2768402053588246, abs=1e-7)

    def test_out_of_segment_rejected(self, scenario, tmp_path):
        out = tmp_path / "fixed.csv"
        code = main(
            ["fixed", "--scenario", scenario, "--x", "900", "--out", str(out)]
        )
        assert code == 2


class TestOracleCheckCommand:
    @pytest.mark.parametrize(
        "grid",
        [
            ["--dp-positions", "8"],
            ["--dp-slots", "8", "--dp-positions", "1001"],
            ["--dp-slots", "1"],
        ],
        ids=["spacing", "int8-moves", "one-slot"],
    )
    def test_coarse_grid_is_config_error(self, scenario, tmp_path, grid):
        out = tmp_path / "oracle.csv"
        code = main(["oracle-check", "--scenario", scenario, *grid, "--out", str(out)])
        assert code == 2

    def test_negative_mu_steps_is_config_error(self, tmp_path):
        path = tmp_path / "menu.cfg"
        path.write_text(BASE_SCENARIO + "mu_steps = -1\n")
        out = tmp_path / "oracle.csv"
        code = main(["oracle-check", "--scenario", str(path), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_corner_profiles_agree(self, scenario, tmp_path):
        out = tmp_path / "oracle.csv"
        code = main(
            ["oracle-check", "--scenario", scenario, "--profiles", "2",
             "--dp-slots", "32", "--dp-positions", "26", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert float(row["rel_gap"]) <= 0.03

    def test_flags_win_over_scenario_keys(self, tmp_path, monkeypatch):
        """--dp-slots, --dp-positions and --tol win over the scenario's
        dp_slots, dp_positions and oracle_tol, as --profiles wins over
        profiles; without the flags the keys apply."""
        path = tmp_path / "dp.cfg"
        path.write_text(BASE_SCENARIO + "dp_slots = 16\ndp_positions = 11\noracle_tol = -1\n")
        seen = []
        check = oracle.validate_dp_config
        monkeypatch.setattr(oracle, "validate_dp_config",
                            lambda params, cfg: seen.append(cfg) or check(params, cfg))
        out = tmp_path / "oracle.csv"
        command = ["oracle-check", "--scenario", str(path), "--profiles", "2", "--out", str(out)]
        assert main([*command, "--dp-slots", "32", "--dp-positions", "26", "--tol", "1"]) == 0
        assert {(cfg.n_slots, cfg.n_positions) for cfg in seen} == {(32, 26)}
        seen.clear()
        assert main(command) == 4  # every gap exceeds oracle_tol = -1
        assert {(cfg.n_slots, cfg.n_positions) for cfg in seen} == {(16, 11)}


def test_compare_command(scenario, tmp_path):
    out = tmp_path / "cmp.csv"
    code = main(
        ["compare", "--scenario", scenario, "--mode", "tinf", "--profiles", "3",
         "--override", "V=0", "--override", "V=30,T=20", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["V", "T"]
    assert len(rows) == 1 + 3 * 3  # header + three variants of three points
