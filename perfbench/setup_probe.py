"""Set-up of one workload in a fresh process: everything the CLI pays before
the first word of its main walk.

Imports the package, parses the workload config, builds the representation,
passes the ping-pong gate and, for ``direction: auto``, runs the dependence
probe.  Usage: ``python3 perfbench/setup_probe.py <config.json>`` with
``src`` on ``PYTHONPATH``.
"""

import json
import sys
from pathlib import Path


def main(config_path: str) -> int:
    from spectra_census import cli, reps

    config = json.loads(Path(config_path).read_text())
    rep = cli.parse_representation(config["representation"], Path(config_path).parent)
    cli.parse_grid(config["t_grid"])
    if not all(r.passed for r in reps.validate_representation(rep)):
        return 1
    if config.get("direction") == "auto":
        reps.detect_dependence(rep, int(config.get("L_probe", 8)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
