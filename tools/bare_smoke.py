"""Smoke test of an installed ``nsmc`` with only its runtime dependencies.

Runs the CLI in-process (``nsmc.cli.main``) on small configs in a
temporary directory and checks what each command leaves behind:

* ``run`` on three configs: the chain model through bpf and every nested
  inner procedure under both stage proposals; the independent model,
  whose inner SMC never resamples and draws every stage in one pass;
  and a chain with lambda = 0, which reads Markov order 0 off its
  coefficients and takes the independent model's one-pass inner SMC.
  Self-nested runs at M = 20, the benchmark's candidate width, and at
  its smallest M = 1;
* ``simulate`` writes the smoke config's dataset and ``asymptotics`` a
  variance curve, also for an explosive model (``a_coef`` = 1e6), whose
  curve holds only finite values;
* a chain config rerun from its own ``config.echo.json`` writes the same
  ``results.csv`` byte for byte;
* five bad configs exit 2 and leave no output directory: a tau that
  overflows to inf (written as the JSON text ``1e400``, which takes
  another parser path than ``json.dumps(inf)``), a method key its kind
  does not read, a data path that is not a string, ``simulate`` on a
  config whose data block names only a dataset path, and ``asymptotics``
  on an ``a_coef`` whose square overflows;
* the library refuses five bad calls with ``nsmc.InvalidInputError``.

Usage, from any directory::

    python tools/bare_smoke.py                  # the installed package
    PYTHONPATH=src python tools/bare_smoke.py   # the checkout's package

Prints one line per check and exits 1 at the first that fails.
"""

from __future__ import annotations

import filecmp
import json
import os
import tempfile
from pathlib import Path

import numpy as np

import nsmc
from nsmc.cli import main

CHAIN = {"kind": "stssm", "n_x": 3, "T": 2, "tau": 1.0, "lambda": 1.0, "obs_var": 0.25}
BPF = {"name": "bpf", "kind": "bpf", "N": 50}


def _nested(name, inner, m, proposal=None):
    method = {"name": name, "kind": "nsmc", "N": 20, "M": m, "inner": inner}
    return method if proposal is None else {**method, "stage_proposal": proposal}


def _config(name, model, methods, data=None, replicates=2):
    return {
        "name": name,
        "model": model,
        "data": data or {"seed": 1},
        "replicates": replicates,
        "methods": methods,
    }


#: (name, config) of each ``run`` that must write a results.csv.
RUNS = [
    ("run-smoke", _config("run-smoke", CHAIN, [
        BPF,
        _nested("bs-prior", "smc+bs", 4),
        _nested("bs-optimal", "smc+bs", 4, "optimal"),
        _nested("emp-optimal", "smc+empirical", 4, "optimal"),
        _nested("is", "is", 4),
        _nested("self-nested", "self-nested", 20),
    ])),
    ("run-smoke-indep", _config(
        "run-smoke-indep",
        {"kind": "independent", "n_x": 3, "T": 2, "a_coef": 0.5, "obs_var": 1.0},
        [
            _nested("bs", "smc+bs", 4),
            _nested("emp", "smc+empirical", 4),
            _nested("bs-optimal", "smc+bs", 4, "optimal"),
            _nested("emp-optimal", "smc+empirical", 4, "optimal"),
            _nested("is", "is", 4),
            _nested("self-nested", "self-nested", 20),
        ],
    )),
    ("run-smoke-uncoupled", _config("run-smoke-uncoupled", {**CHAIN, "lambda": 0.0}, [
        _nested("bs-prior", "smc+bs", 4),
        _nested("emp-optimal", "smc+empirical", 4, "optimal"),
        _nested("self-nested-1", "self-nested", 1),
        _nested("self-nested-20", "self-nested", 20),
    ])),
]

ECHO = _config(
    "run-echo",
    {"kind": "stssm", "n_x": 4, "T": 3, "tau": 3.3, "lambda": 0.9, "obs_var": 0.25},
    [BPF, {"name": "bs", "kind": "nsmc", "N": 30, "M": 3, "inner": "smc+bs"}],
    data={"seed": 5},
)

#: (command, name, config text) of each call that must exit 2 and leave
#: no output directory.
REFUSED = [
    ("run", "run-bad-tau", json.dumps(_config("run-bad-tau", CHAIN, [BPF])).replace(
        '"tau": 1.0', '"tau": 1e400'
    )),
    ("run", "run-unread-key", json.dumps(_config(
        "run-unread-key", CHAIN, [{"name": "kalman", "kind": "kalman", "inner": "is"}]
    ))),
    ("run", "run-bad-path", json.dumps(_config("run-bad-path", CHAIN, [BPF], {"path": 5}))),
    ("simulate", "simulate-path-only", json.dumps(_config(
        "simulate-path-only", CHAIN, [BPF], {"path": "run-smoke-data/dataset.csv"}
    ))),
    ("asymptotics", "asymptotics-a_coef-overflows", json.dumps(
        {"asymptotics": {"t": 2, "a_coef": 1e200, "obs_var": 1.0, "m_grid": [2, 4]}}
    )),
]


def _calls():
    """(name, call) of each library call that must raise
    ``nsmc.InvalidInputError``."""
    spec = nsmc.StssmSpec(n_x=3, tau=1.0, lam=1.0, obs_var=0.25)
    data = nsmc.simulate(spec, 2, seed=1)
    rng = np.random.default_rng
    return [
        ("nsmc_run(N=2.5)", lambda: nsmc.nsmc_run(spec, data, 2.5, 3, "smc+bs", rng(0))),
        ("nsmc_run(M=True)", lambda: nsmc.nsmc_run(spec, data, 5, True, "smc+bs", rng(0))),
        ("nsmc_run(rng=None)", lambda: nsmc.nsmc_run(spec, data, 5, 3, "smc+bs", None)),
        (
            "nsmc_run(exact-transition)",
            lambda: nsmc.nsmc_run(spec, data, 5, 3, "exact-transition", rng(0)),
        ),
        (
            "general_nsmc_step(rng=None)",
            lambda: nsmc.general_nsmc_step(
                nsmc.nsmc_init(spec, 5), spec, nsmc.make_procedure("smc+bs", 3),
                "gamma-ratio", "tau", data.observations[0], None,
            ),
        ),
    ]


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def _written(path: str) -> bool:
    """True when ``path`` is a non-empty file."""
    return Path(path).is_file() and Path(path).stat().st_size > 0


def _write(name: str, config) -> str:
    path = f"{name}.json"
    Path(path).write_text(config if isinstance(config, str) else json.dumps(config))
    return path


def smoke() -> None:
    """Run every check in the current directory."""
    for name, config in RUNS:
        status = main(["run", "--config", _write(name, config), "--out", name])
        _check(status == 0 and _written(f"{name}/results.csv"), f"run {name}")
    status = main(["simulate", "--config", "run-smoke.json", "--out", "run-smoke-data"])
    _check(status == 0 and _written("run-smoke-data/dataset.csv"), "simulate run-smoke")
    asym = {"asymptotics": {"t": 2, "a_coef": 0.5, "obs_var": 1.0, "m_grid": [2, 4]}}
    status = main(["asymptotics", "--config", _write("asymptotics", asym), "--out", "asymptotics"])
    _check(status == 0 and _written("asymptotics/variance_curve.csv"), "asymptotics")
    explosive = {"asymptotics": {
        "t": 4, "a_coef": 1e6, "obs_var": 1.0, "m_grid": [2, 10], "ys": [-0.5, -0.2, 0.2, 0.5]
    }}
    out = "asymptotics-explosive"
    status = main(["asymptotics", "--config", _write(out, explosive), "--out", out])
    rows = np.empty((0, 3))
    if status == 0:
        rows = np.loadtxt(f"{out}/variance_curve.csv", delimiter=",", skiprows=1, ndmin=2)
    _check(
        status == 0 and rows.shape == (2, 3) and np.all(np.isfinite(rows)),
        "asymptotics on an explosive model writes finite values",
    )

    first = main(["run", "--config", _write("run-echo", ECHO), "--out", "run-echo"])
    again = main(["run", "--config", "run-echo/config.echo.json", "--out", "run-echo-again"])
    _check(
        first == again == 0
        and _written("run-echo/results.csv")
        and filecmp.cmp("run-echo/results.csv", "run-echo-again/results.csv", shallow=False),
        "rerun from config.echo.json gives the same results.csv",
    )

    for command, name, text in REFUSED:
        status = main([command, "--config", _write(name, text), "--out", name])
        _check(status == 2 and not os.path.exists(name), f"{command} {name} exits 2, writes nothing")

    for name, call in _calls():
        try:
            call()
            refused = False
        except nsmc.InvalidInputError:
            refused = True
        _check(refused, f"{name} refused")


if __name__ == "__main__":
    print(f"nsmc from {Path(nsmc.__file__).parent}")
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            smoke()
        finally:
            os.chdir(home)
