"""The runtime needs numpy only: a fresh interpreter that imports the
package and runs the exact filters, a nested filter and a CLI study
never loads scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
import numpy as np
import nsmc
from nsmc.cli import main

spec = nsmc.StssmSpec.chain(n_x=3, tau=1.0, lam=0.8, obs_var=0.5)
data = nsmc.simulate(spec, 3, seed=1)
rng = np.random.default_rng(2)
nsmc.kalman_run(spec, data)
nsmc.fapf_run(spec, data, 10, rng)
nsmc.nsmc_run(spec, data, 10, 3, "smc+bs", rng)
if main(["run", "--config", sys.argv[1], "--workers", "1", "--out", sys.argv[2]]) != 0:
    sys.exit("study failed")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_library_runs_without_loading_scipy(tmp_path):
    config = {
        "name": "deps",
        "model": {"kind": "stssm", "n_x": 2, "T": 2, "tau": 1.0, "lambda": 1.0,
                  "obs_var": 0.25},
        "data": {"seed": 3},
        "methods": [
            {"name": "kalman", "kind": "kalman"},
            {"name": "bpf", "kind": "bpf", "N": 20},
            {"name": "nsmc", "kind": "nsmc", "N": 10, "M": 3, "inner": "smc+bs"},
        ],
        "replicates": 1,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(path), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "results.csv").exists()
    assert json.loads(proc.stdout.splitlines()[-1]) == []
