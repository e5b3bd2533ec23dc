"""Command-line front end: scenario files, region tracing and certification.

Scenario files are flat ``key = value`` text ('#' starts a comment).  Powers
may be given in dBm and gains in dB at this boundary only; the library
itself is strictly linear-units.  All commands are deterministic: the same
scenario file produces byte-identical CSV/JSON output.

Exit codes: 0 ok, 2 configuration error (grid sizes too large to allocate
included), 3 solver failure, 4 oracle disagreement.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, replace

from . import asymptotic, hfh_solver, oracle, tdma_solver
from .core import SystemParams, trace, uniform_profiles, validate_params
from .errors import GridTooCoarse, InvalidParams, UavbcError, ValidityError
from .hfh_solver import BoundarySolution, SearchConfig
from .tdma_solver import TdmaSearchConfig, TdmaSolution

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_ORACLE = 4

# Defaults: the reference scenario used across the bundled datasets.
DEFAULT_SCENARIO = {
    "gamma0_db": -50.0,
    "sigma2_dbm": -100.0,
    "h": 100.0,
    "d": 1000.0,
    "p_dbm": 10.0,
    "v": 30.0,
    "t": 60.0,
}

_SOLVER_KEYS = {
    "profiles": int,
    "n_slots": int,
    "tdma_x_grid": int,
    "tdma_ti_grid": int,
    "dp_slots": int,
    "dp_positions": int,
    "mu_steps": int,
    "oracle_tol": float,
}


def db_to_linear(db):
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm):
    return 10.0 ** (dbm / 10.0) * 1e-3


class ConfigError(Exception):
    pass


def parse_scenario_file(path):
    """Flat key=value file -> dict of lowercase keys and float values."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                values[key.strip().lower()] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from exc
    return values


def _pop_float(values, key, default=None):
    if key in values:
        try:
            return float(values.pop(key))
        except ValueError as exc:
            raise ConfigError(f"scenario key {key!r}: not a number") from exc
    return default


def _pop_linear(values, key, log_key, to_linear):
    """`key` in linear units: from `log_key` (dB or dBm) when given, else
    from `key`, else from the default scenario's `log_key`."""
    log_value = _pop_float(values, log_key)
    value = _pop_float(values, key)
    if log_value is not None:
        return to_linear(log_value)
    return value if value is not None else to_linear(DEFAULT_SCENARIO[log_key])


def build_scenario(values):
    """Assemble (SystemParams, solver settings) from scenario key/values.

    Physical keys (dB/dBm variants take precedence when both appear):
    gamma0_db|gamma0, sigma2_dbm|sigma2, p_dbm|p, h, d, v, t.
    """
    values = dict(values)
    for key in list(values.keys()):
        if key in DEFAULT_SCENARIO or key in ("gamma0", "sigma2", "p"):
            continue
        if key not in _SOLVER_KEYS:
            raise ConfigError(f"unknown scenario key {key!r}")

    params = SystemParams(
        gamma0=_pop_linear(values, "gamma0", "gamma0_db", db_to_linear),
        sigma2=_pop_linear(values, "sigma2", "sigma2_dbm", dbm_to_watts),
        Pbar=_pop_linear(values, "p", "p_dbm", dbm_to_watts),
        H=_pop_float(values, "h", DEFAULT_SCENARIO["h"]),
        D=_pop_float(values, "d", DEFAULT_SCENARIO["d"]),
        V=_pop_float(values, "v", DEFAULT_SCENARIO["v"]),
        T=_pop_float(values, "t", DEFAULT_SCENARIO["t"]),
    )
    try:
        validate_params(params)
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from exc

    settings = {}
    for key, cast in _SOLVER_KEYS.items():
        if key in values:
            try:
                settings[key] = cast(values.pop(key))
            except ValueError as exc:
                raise ConfigError(f"scenario key {key!r}: bad value") from exc
    return params, settings


def apply_overrides(params, override_text):
    """Apply a 'V=30,T=60,P=30dBm' style override string to SystemParams."""
    if not override_text:
        return params
    updates = {}
    for token in override_text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ConfigError(f"bad override token {token!r}")
        key, _, val = token.partition("=")
        key = key.strip().lower()
        val = val.strip()
        try:
            if key == "v":
                updates["V"] = float(val)
            elif key == "t":
                updates["T"] = float(val)
            elif key == "p":
                if val.lower().endswith("dbm"):
                    updates["Pbar"] = dbm_to_watts(float(val[:-3]))
                else:
                    updates["Pbar"] = float(val)
            elif key == "h":
                updates["H"] = float(val)
            elif key == "d":
                updates["D"] = float(val)
            else:
                raise ConfigError(f"cannot override {key!r}")
        except ValueError as exc:
            raise ConfigError(f"bad override value in {token!r}") from exc
    new_params = replace(params, **updates)
    try:
        validate_params(new_params)
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from exc
    return new_params


def _flag_or_key(flag, settings, key, default):
    """A command-line flag when given, else the scenario's key, else default."""
    return flag if flag is not None else settings.get(key, default)


def _n_profiles(args, settings, default=33):
    """--profiles when given, else the scenario's `profiles`, else default."""
    return _flag_or_key(args.profiles, settings, "profiles", default)


def _search_config(settings) -> SearchConfig:
    return SearchConfig(**{k: settings[k] for k in ("n_slots",) if k in settings})


def _tdma_config(settings) -> TdmaSearchConfig:
    keys = {"tdma_x_grid": "x_grid", "tdma_ti_grid": "ti_grid"}
    return TdmaSearchConfig(**{f: settings[k] for k, f in keys.items() if k in settings})


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(x):
    return format(float(x), ".12g")


def _point_row(point, mode):
    traj = getattr(point, "trajectory", None)
    x_star = getattr(point, "x_star", None)
    x_i = traj.x_I if traj else x_star
    x_f = traj.x_F if traj else x_star
    return {
        "alpha1": _fmt(point.profile.alpha1),
        "alpha2": _fmt(point.profile.alpha2),
        "r1": _fmt(point.rate_pair.r1),
        "r2": _fmt(point.rate_pair.r2),
        "x_I": _fmt(x_i) if x_i is not None else "",
        "x_F": _fmt(x_f) if x_f is not None else "",
        "t_I": _fmt(traj.t_I) if traj else "",
        "t_F": _fmt(traj.t_F) if traj else "",
        "mode": mode,
    }


REGION_COLUMNS = ["alpha1", "alpha2", "r1", "r2", "x_I", "x_F", "t_I", "t_F", "mode"]


def write_region_csv(path, boundary, extra_key=None):
    columns = (list(extra_key) if extra_key else []) + REGION_COLUMNS
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for point in boundary.points:
            row = _point_row(point, boundary.mode)
            if extra_key:
                row.update(extra_key)
            writer.writerow(row)


def _point_json(point, mode):
    data = {
        "mode": mode,
        "alpha1": point.profile.alpha1,
        "alpha2": point.profile.alpha2,
        "r1": point.rate_pair.r1,
        "r2": point.rate_pair.r2,
    }
    traj = getattr(point, "trajectory", None)
    if traj is not None:
        data["trajectory"] = {
            "x_I": traj.x_I, "x_F": traj.x_F, "t_I": traj.t_I, "t_F": traj.t_F
        }
    if isinstance(point, BoundarySolution):
        data["r"] = point.r
        data["mu"] = point.mu
    if isinstance(point, TdmaSolution):
        data["t1"] = point.t1
    if isinstance(point, (BoundarySolution, TdmaSolution)):
        data["diagnostics"] = {
            k: v for k, v in point.diagnostics.items() if _json_ok(v)
        }
    if hasattr(point, "x_star"):
        data["x_star"] = point.x_star
        data["p1"] = point.p1
        data["p2"] = point.p2
    extra = getattr(point, "extra", None)
    if extra:
        data["extra"] = {k: v for k, v in extra.items() if _json_ok(v)}
    return data


def _json_ok(v):
    return isinstance(v, (int, float, str, bool, type(None)))


def write_sidecar(csv_path, params, boundaries):
    path = os.path.splitext(csv_path)[0] + ".json"
    payload = {
        "params": asdict(params),
        "regions": [
            {
                "mode": b.mode,
                "metadata": {k: v for k, v in b.metadata.items() if _json_ok(v)},
                "points": [_point_json(p, b.mode) for p in b.points],
            }
            for b in boundaries
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _trace(params, mode, n_profiles, settings):
    if mode == "sc":
        return hfh_solver.trace_region(params, n_profiles, _search_config(settings))
    if mode == "tdma":
        return tdma_solver.tdma_trace_region(params, n_profiles, _tdma_config(settings))
    if mode == "tinf":
        return asymptotic.region_tinf(params, n_profiles)
    if mode == "high-snr":
        return asymptotic.region_high_snr(params, n_profiles)
    if mode == "v0":
        return trace("v0", n_profiles, lambda prof: asymptotic.solve_v0(params, prof))
    raise ConfigError(f"unknown mode {mode!r}")


def cmd_region(args):
    params, settings = build_scenario(parse_scenario_file(args.scenario))
    params = apply_overrides(params, args.override)
    boundary = _trace(params, args.mode, _n_profiles(args, settings), settings)
    write_region_csv(args.out, boundary)
    write_sidecar(args.out, params, [boundary])
    return EXIT_OK


def cmd_compare(args):
    params, settings = build_scenario(parse_scenario_file(args.scenario))
    n_profiles = _n_profiles(args, settings)
    variants = [params]
    for text in args.override or []:
        variants.append(apply_overrides(params, text))
    boundaries = [_trace(p, args.mode, n_profiles, settings) for p in variants]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["V", "T"] + REGION_COLUMNS)
        for p, boundary in zip(variants, boundaries):
            for point in boundary.points:
                row = _point_row(point, boundary.mode)
                writer.writerow(
                    [_fmt(p.V), _fmt(p.T)] + [row[c] for c in REGION_COLUMNS]
                )
    write_sidecar(args.out, params, boundaries)
    return EXIT_OK


def cmd_fixed(args):
    from .fixed_region import fixed_boundary

    params, settings = build_scenario(parse_scenario_file(args.scenario))
    params = apply_overrides(params, args.override)
    profiles = uniform_profiles(_n_profiles(args, settings))
    half = 0.5 * params.D
    xs = [float(v) for v in args.x]
    for x in xs:
        if not -half <= x <= half:
            raise ConfigError(f"fixed location x={x} outside [-D/2, D/2]")
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "alpha1", "alpha2", "r1", "r2", "p1", "p2"])
        for x in xs:
            for prof in profiles:
                bp = fixed_boundary(params, x, prof)
                writer.writerow(
                    [
                        _fmt(x),
                        _fmt(prof.alpha1),
                        _fmt(prof.alpha2),
                        _fmt(bp.rate_pair.r1),
                        _fmt(bp.rate_pair.r2),
                        _fmt(bp.p1),
                        _fmt(bp.p2),
                    ]
                )
    return EXIT_OK


def cmd_oracle_check(args):
    params, settings = build_scenario(parse_scenario_file(args.scenario))
    params = apply_overrides(params, args.override)
    profiles = uniform_profiles(_n_profiles(args, settings, 8))
    dp_cfg = oracle.DpConfig(
        n_slots=_flag_or_key(args.dp_slots, settings, "dp_slots", 64),
        n_positions=_flag_or_key(args.dp_positions, settings, "dp_positions", 51),
        mu_steps=settings.get("mu_steps", 11),
    )
    oracle.validate_dp_config(params, dp_cfg)
    tol = _flag_or_key(args.tol, settings, "oracle_tol", 0.03)
    cfg = _search_config(settings)
    spacing = params.D / (dp_cfg.n_positions - 1)

    def run(prof):
        sol = hfh_solver.solve_profile(params, prof, cfg)
        r_dp, path = oracle.dp_trajectory_oracle(params, prof, dp_cfg)
        top = max(sol.r, r_dp)
        gap = abs(sol.r - r_dp) / top if top > 0.0 else 0.0  # relative at any rate scale
        unidir, clusters = oracle.path_shape_stats(path, spacing * 1.5)
        return prof, sol, r_dp, gap, unidir, clusters

    results = [run(prof) for prof in profiles]
    worst = 0.0
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["alpha1", "alpha2", "r_solver", "r_dp", "rel_gap", "unidirectional", "hover_clusters"]
        )
        for prof, sol, r_dp, gap, unidir, clusters in results:
            worst = max(worst, gap)
            writer.writerow(
                [
                    _fmt(prof.alpha1),
                    _fmt(prof.alpha2),
                    _fmt(sol.r),
                    _fmt(r_dp),
                    _fmt(gap),
                    int(unidir),
                    clusters,
                ]
            )
    if worst > tol:
        print(f"oracle disagreement: worst relative gap {worst:.4g} > {tol}", file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uavbc",
        description="Capacity-region solver for a UAV-enabled two-user broadcast channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario file (key = value)")
        p.add_argument("--profiles", type=int, default=None, help="boundary profiles")
        p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("region", help="trace one region boundary")
    common(p)
    p.add_argument(
        "--mode",
        default="sc",
        choices=["sc", "tdma", "tinf", "v0", "high-snr"],
    )
    p.add_argument("--override", default="", help="e.g. 'V=30,T=60,P=30dBm'")
    p.set_defaults(fn=cmd_region)

    p = sub.add_parser("compare", help="trace the base region plus (V,T,P) overrides")
    common(p)
    p.add_argument("--mode", default="sc", choices=["sc", "tdma", "tinf", "v0", "high-snr"])
    p.add_argument(
        "--override",
        action="append",
        default=[],
        help="may repeat; each is one variant, e.g. 'V=0' or 'V=30,T=20'",
    )
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("fixed", help="fixed-hover capacity region samples")
    common(p)
    p.add_argument("--x", nargs="+", required=True, help="hover locations (m)")
    p.add_argument("--override", default="")
    p.set_defaults(fn=cmd_fixed)

    p = sub.add_parser("oracle-check", help="certify the solver against the DP oracle")
    common(p)
    p.add_argument("--override", default="")
    # Each flag wins over its scenario key (dp_slots, dp_positions,
    # oracle_tol), which wins over the default.
    p.add_argument("--dp-slots", type=int, default=None, help="DP slots (default 64)")
    p.add_argument("--dp-positions", type=int, default=None, help="DP positions (default 51)")
    p.add_argument("--tol", type=float, default=None, help="worst relative gap (default 0.03)")
    p.set_defaults(fn=cmd_oracle_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, GridTooCoarse, ValidityError, InvalidParams) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a grid size (n_slots, tdma_x_grid, ...) past memory
        print(f"configuration error: grid sizes too large: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UavbcError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
