"""Bitwise-regression grid for the ``nsmc`` package.

Hashes (sha256) every array of the ``FilterOutput`` of each filter and
inner procedure over a fixed grid, and the CLI's ``results.csv`` and
``summary.csv`` for the benchmark's study configs, which it reads from
``perfbench/workloads.py``.  The grid:

* models: the chain at n_x in {3, 10, 100} with the benchmark's
  tau = lambda = 1, and the independent model at n_x in {5, 50};
* filters: Kalman, the fully adapted filter, the bootstrap filter
  (every step and ESS-triggered), and the nested filter with smc+bs and
  smc+empirical under both stage proposals and IS, each at N = 100 and
  M in {1, 5, 20}, and self-nested at (mo, mi) in {(1, 1), (2, 1),
  (20, 20), (3, 33)};
* seeds 1-3, T = 3;
* on the three chain models, seeds 1-3 and T = 40, a Kalman covariance
  memo longer than the benchmark's T: Kalman on a fresh spec, Kalman on
  a spec whose memo was first filled by a T = 5 prefix and then grows
  to T = 40, and the fully adapted filter at N = 100.

Usage::

    python tools/hashgrid.py                # "<row> <sha256>" lines for this checkout
    python tools/hashgrid.py --src DIR      # the same for the package under DIR
    python tools/hashgrid.py --against REV  # rows that differ from REV's

``--against`` reruns the grid on a temporary ``git worktree`` of
``REV``, removed afterwards, and exits 1 when a row differs.  No golden
hashes are kept: ``exp`` and ``log`` bits can differ across CPUs and
numpy versions, so the tool compares two trees on one machine.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
T = 3
T_LONG = 40
SEEDS = (1, 2, 3)
N = 100
M_GRID = (1, 5, 20)
SELF_NESTED = ((1, 1), (2, 1), (20, 20), (3, 33))
#: Model name -> (kind, n_x).
MODELS = {
    "chain-n3": ("chain", 3),
    "chain-n10": ("chain", 10),
    "chain-n100": ("chain", 100),
    "indep-n5": ("independent", 5),
    "indep-n50": ("independent", 50),
}
OUTPUT_FIELDS = ("method", "filter_means", "filter_vars", "logz_increments", "ess_trace")


@dataclass(frozen=True)
class Row:
    """One grid row: ``key`` names it, ``digest(nsmc, scratch)`` hashes
    its outputs, reading the package through the module ``nsmc``."""

    key: str
    digest: Callable


def _specs(nsmc, model: str):
    """``(spec, exact_spec)``: the model and the chain model the exact
    filters run on."""
    kind, n_x = MODELS[model]
    if kind == "chain":
        spec = nsmc.StssmSpec(n_x=n_x, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)
        return spec, spec
    spec = nsmc.IndependentSsmSpec(n_x=n_x, a_coef=0.5, obs_var=1.0)
    return spec, spec.to_stssm()


def hash_output(out) -> str:
    """sha256 over every field of a ``FilterOutput``: names, dtypes,
    shapes and bytes."""
    h = hashlib.sha256()
    for name in OUTPUT_FIELDS:
        value = getattr(out, name)
        h.update(name.encode())
        if value is None or isinstance(value, str):
            h.update(repr(value).encode())
            continue
        a = np.ascontiguousarray(value)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _filter_row(model: str, name: str, seed: int, run, steps: int = T) -> Row:
    """A row hashing ``run(nsmc, spec, exact_spec, data, rng)`` on the
    model's dataset of ``steps`` steps at ``seed``, with the filter's
    generator at ``seed``."""

    def digest(nsmc, scratch):
        spec, exact_spec = _specs(nsmc, model)
        data = nsmc.simulate(spec, steps, seed=seed)
        return hash_output(run(nsmc, spec, exact_spec, data, np.random.default_rng(seed)))

    return Row(f"{model}/{name}/seed{seed}", digest)


def _filters():
    """(name, run) of every filter on the grid."""
    yield "kalman", lambda nsmc, s, e, data, rng: nsmc.kalman_run(e, data)
    yield f"fapf-N{N}", lambda nsmc, s, e, data, rng: nsmc.fapf_run(e, data, N, rng)
    yield "bpf-N2000", lambda nsmc, s, e, data, rng: nsmc.bootstrap_pf(s, data, 20 * N, rng)
    yield f"bpf-N{N}-ess0.5", lambda nsmc, s, e, data, rng: nsmc.bootstrap_pf(
        s, data, N, rng, ess_threshold=0.5
    )
    for m in M_GRID:
        for inner in ("smc+bs", "smc+empirical"):
            for proposal in ("prior", "optimal"):
                yield f"{inner}-{proposal}-N{N}-M{m}", (
                    lambda nsmc, s, e, data, rng, inner=inner, m=m, proposal=proposal:
                    nsmc.nsmc_run(
                        s, data, N, m, nsmc.make_procedure(inner, m, stage_proposal=proposal), rng
                    )
                )
        yield f"is-N{N}-M{m}", lambda nsmc, s, e, data, rng, m=m: nsmc.nsmc_run(
            s, data, N, m, "is", rng
        )
    for mo, mi in SELF_NESTED:
        yield f"self-nested-N{N}-{mo}x{mi}", (
            lambda nsmc, s, e, data, rng, mo=mo, mi=mi:
            nsmc.nsmc_run(s, data, N, mo, nsmc.SelfNestedProcedure(mo, mi), rng)
        )


def _warm_kalman(nsmc, spec, data):
    """Kalman on ``data`` after a run over its first five steps."""
    nsmc.kalman_run(spec, nsmc.Dataset(5, data.observations[:5]))
    return nsmc.kalman_run(spec, data)


def _long_filters():
    """(name, run) of the filters run at ``T_LONG`` on the chain models."""
    yield f"kalman-T{T_LONG}", lambda nsmc, s, e, data, rng: nsmc.kalman_run(e, data)
    yield f"kalman-T{T_LONG}-warm", lambda nsmc, s, e, data, rng: _warm_kalman(nsmc, e, data)
    yield f"fapf-N{N}-T{T_LONG}", lambda nsmc, s, e, data, rng: nsmc.fapf_run(e, data, N, rng)


def _study_row(workload: str, seed: int, config: dict) -> Row:
    """A row hashing the exit status and the ``results.csv`` and
    ``summary.csv`` of one CLI ``run`` of ``config``."""

    def digest(nsmc, scratch):
        out = Path(scratch) / f"{workload}-seed{seed}"
        path = out.with_suffix(".json")
        path.write_text(json.dumps(config))
        cli = importlib.import_module(nsmc.__name__ + ".cli")
        status = cli.main(["run", "--config", str(path), "--out", str(out)])
        h = hashlib.sha256(f"exit={status}".encode())
        for name in ("results.csv", "summary.csv"):
            h.update(name.encode())
            h.update((out / name).read_bytes() if (out / name).exists() else b"missing")
        return h.hexdigest()

    return Row(f"study-{workload}/seed{seed}", digest)


def _workloads():
    """``perfbench/workloads.py`` of this checkout, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "_hashgrid_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def grid() -> list[Row]:
    """Every row of the grid, in a fixed order."""
    rows = [
        _filter_row(model, name, seed, run)
        for model in MODELS
        for seed in SEEDS
        for name, run in _filters()
    ]
    rows += [
        _filter_row(model, name, seed, run, T_LONG)
        for model, (kind, _) in MODELS.items() if kind == "chain"
        for seed in SEEDS
        for name, run in _long_filters()
    ]
    wl = _workloads()
    for workload in wl.WORKLOADS.values():
        for seed in SEEDS:
            rows.append(_study_row(workload.name, seed, wl.study_config(workload, seed)))
    return rows


def hash_rows(nsmc, rows: list[Row]) -> dict[str, str]:
    """Row key -> hash for ``rows``, computed with the package ``nsmc``."""
    with tempfile.TemporaryDirectory(prefix="hashgrid-") as scratch:
        return {row.key: row.digest(nsmc, scratch) for row in rows}


def differing(ours: dict[str, str], theirs: dict[str, str]) -> list[str]:
    """Keys whose hashes differ or that only one side has, in grid order
    (``ours`` first)."""
    keys = list(ours) + [k for k in theirs if k not in ours]
    return [k for k in keys if ours.get(k) != theirs.get(k)]


def _hashes_of(src: Path) -> dict[str, str]:
    """The grid's hashes for the package under ``src``, computed in a
    fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--src", str(src)],
        check=True, capture_output=True, text=True,
    )
    return dict(line.split(" ") for line in proc.stdout.splitlines())


def _against(rev: str) -> int:
    ours = _hashes_of(ROOT / "src")
    tmp = Path(tempfile.mkdtemp(prefix="hashgrid-"))
    tree = tmp / "tree"
    try:
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(tree), rev],
            check=True,
        )
        theirs = _hashes_of(tree / "src")
    finally:
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
            capture_output=True,
        )
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    diff = differing(ours, theirs)
    for key in diff:
        print(f"{key} {ours.get(key, '-')} {theirs.get(key, '-')}")
    print(f"{len(ours)} rows, {len(diff)} differ from {rev}")
    return 1 if diff else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--src", type=Path, help="source tree holding the nsmc package")
    group.add_argument("--against", metavar="REV", help="git revision to compare with")
    args = parser.parse_args(argv)
    if args.against is not None:
        return _against(args.against)
    src = (args.src or ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    nsmc = importlib.import_module("nsmc")
    if not Path(nsmc.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"nsmc was imported from {nsmc.__file__}, not from {src}")
    for key, digest in hash_rows(nsmc, grid()).items():
        print(key, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
