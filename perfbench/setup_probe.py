"""Time one cold set-up of `uavbc` in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <scenario file>

Set-up is: import `uavbc`, build the scenario through
`cli.parse_scenario_file` and `cli.build_scenario`, and make one warm-up
call.  Prints {"setup_s": seconds} as JSON.
"""

import json
import sys
import time
from pathlib import Path


def main(scenario_file):
    t0 = time.perf_counter()
    import uavbc
    from uavbc import cli

    params, _ = cli.build_scenario(cli.parse_scenario_file(scenario_file))
    hover = uavbc.make_hfh(params, 0.0, 0.0, params.T)
    uavbc.solve_p5(params, uavbc.discretize(params, hover, 64), uavbc.RateProfile.of(0.5))
    return time.perf_counter() - t0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(json.dumps({"setup_s": main(sys.argv[1])}))
