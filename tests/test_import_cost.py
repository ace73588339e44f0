"""Start-up cost: importing the package, the CLI and the suite leaves
scipy.stats unloaded; only criteria C12 and C13 import it, when they run."""

import os
import subprocess
import sys
from pathlib import Path

import rsd_market

SRC = Path(rsd_market.__file__).resolve().parents[1]

PROBE = """
import sys
import rsd_market, rsd_market.cli, rsd_market.suite
assert "scipy.stats" not in sys.modules
"""


def test_entry_points_do_not_import_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
