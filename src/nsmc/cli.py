"""Configuration-driven experiment runner.

Subcommands:

* ``simulate``  -- draw a dataset from the configured model at
  ``data.seed`` and write it (CSV plus JSON sidecar) into the output
  directory; a config that names ``data.path`` is refused.
* ``run``       -- run every configured method over replicated seeds,
  write raw per-replicate results and aggregated summaries.
* ``asymptotics`` -- emit the variance-versus-M curve of the
  independent-model analysis as CSV.
* ``selftest``  -- run the proper-weighting audit for every inner
  procedure, self-nested included, at M = 1, 5 and 20: one PASS/FAIL line each.

One experiment per JSON config file; a validated echo of the config is
written next to the results, and a run from that echo rewrites the same
``results.csv`` byte for byte, so every output directory is reproducible
from its own contents.  Exit codes: 0 success, 1 partial failure
(some replicate collapsed or a selftest check failed), 2 usage or
configuration errors.

Choosing ``stage_proposal`` for ``smc+bs`` and ``smc+empirical``:
``"prior"`` (the default) draws each component from its conditional law
under the transition; ``"optimal"`` also conditions it on its own
observation, at the same cost per step.  On the chain model at n_x = 100
(T = 3, N = 100, M = 20, 12 filter seeds), the median squared logZ error
against Kalman is 6.66 nats^2 with the prior and 1.02 with the optimal
proposal (0.0146 and 0.0024 at n_x = 10); the prior needs M = 80, at 2.8
times the cost, to reach 0.72.  On the independent model the optimal
proposal is exact.  ``"prior"`` stays the default so that existing
configs keep their results.

A method object may hold only the keys its kind reads (``METHOD_KEYS``);
any other key is refused, and the config echo omits the fields a method
does not read, so every echo parses back to the same experiment.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .asymptotics import variance_curve
from .exact import fapf_run, kalman_run
from .exceptions import InvalidInputError, NsmcError
from .model import (
    SPEC_KINDS,
    Dataset,
    IndependentSsmSpec,
    StssmSpec,
    load_dataset,
    save_dataset,
    simulate,
)
from .nested import (
    PROCEDURES,
    STAGE_PROPOSALS,
    make_procedure,
    nsmc_run,
    proper_weighting_check,
)
from .smc import FilterOutput, bootstrap_pf


class ConfigError(InvalidInputError):
    """Invalid experiment configuration; the message names the field."""


#: Method kind -> the keys of a method object it reads.  ``bpf`` reads
#: ``M`` for budget matching; ``nsmc`` also reads the config fields of its
#: inner procedure (:data:`~nsmc.nested.PROCEDURES`).
METHOD_KEYS = {
    "kalman": ("name", "kind"),
    "fapf": ("name", "kind", "N"),
    "bpf": ("name", "kind", "N", "M"),
    "nsmc": ("name", "kind", "N", "M", "inner"),
    "nsmc-general": ("name", "kind", "N"),
}


def _method_keys(kind: str, inner: str) -> tuple[str, ...]:
    """The keys a method of ``kind`` with procedure ``inner`` reads."""
    return METHOD_KEYS[kind] + (PROCEDURES[inner][1] if kind == "nsmc" else ())


@dataclass(frozen=True)
class MethodConfig:
    name: str
    kind: str
    N: int = 0
    M: int = 0
    inner: str = "smc+bs"
    stage_proposal: str = "prior"


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    model: StssmSpec | IndependentSsmSpec
    T: int
    data_seed: int
    data_path: str | None
    methods: tuple[MethodConfig, ...]
    replicates: int
    budget_matching: bool
    output_dir: str

    def echo_dict(self) -> dict:
        model = {**self.model.to_dict(), "T": self.T}
        data: dict[str, object] = {"seed": self.data_seed}
        if self.data_path is not None:
            data["path"] = self.data_path
        return {
            "name": self.name,
            "model": model,
            "data": data,
            "methods": [
                {k: v for k, v in asdict(m).items() if k in _method_keys(m.kind, m.inner)}
                for m in self.methods
            ],
            "replicates": self.replicates,
            "budget_matching": self.budget_matching,
            "output_dir": self.output_dir,
        }


def _require(block: dict, key: str, where: str | None = None):
    """``block[key]``; ``where`` names ``block`` in errors (``None`` for
    the top level of the document)."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where or 'top level'}: expected a JSON object")
    if key not in block:
        name = key if where is None else f"{where}.{key}"
        raise ConfigError(f"{name}: missing required field")
    return block[key]


def _as_int(value, field: str) -> int:
    """``int(value)``, with a :class:`ConfigError` naming ``field``.

    Booleans, strings and non-integral numbers are refused rather than
    parsed or truncated.
    """
    if isinstance(value, (bool, str)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(f"{field}: expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: expected an integer, got {value!r}") from None


def _as_str(value, field: str) -> str:
    """``value`` if it is a string, else a :class:`ConfigError` naming
    ``field``."""
    if not isinstance(value, str):
        raise ConfigError(f"{field}: expected a string, got {value!r}")
    return value


def _spec_from_block(cls, block: dict, where: str):
    """``cls.from_dict(block)`` with errors named after the config block."""
    if "n_x" in block:
        _as_int(block["n_x"], f"{where}.n_x")
    try:
        return cls.from_dict(block)
    except KeyError as err:
        raise ConfigError(f"{where}.{err.args[0]}: missing required field") from None
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from None


def parse_config(raw: dict, base_name: str = "experiment") -> ExperimentConfig:
    """Validate a parsed JSON document into an :class:`ExperimentConfig`."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    name = _as_str(raw.get("name", base_name), "name")
    mblock = _require(raw, "model")
    kind = _require(mblock, "kind", "model")
    T = _as_int(_require(mblock, "T", "model"), "model.T")
    if T < 1:
        raise ConfigError("model.T: must be >= 1")
    if not isinstance(kind, str) or kind not in SPEC_KINDS:
        raise ConfigError(f"model.kind: unknown kind {kind!r}")
    model = _spec_from_block(SPEC_KINDS[kind], mblock, "model")

    dblock = _require(raw, "data")
    if not isinstance(dblock, dict):
        raise ConfigError("data: expected a JSON object")
    data_path = dblock.get("path")
    if data_path is not None:
        _as_str(data_path, "data.path")
    data_seed = _as_int(dblock.get("seed", 0), "data.seed")
    if data_seed < 0:
        raise ConfigError("data.seed: must be >= 0")
    if data_path is None and "seed" not in dblock:
        raise ConfigError("data: needs either a seed or a path")

    methods = []
    raw_methods = _require(raw, "methods")
    if not isinstance(raw_methods, list):
        raise ConfigError("methods: expected a list of method objects")
    if not raw_methods:
        raise ConfigError("methods: at least one method is required")
    for i, m in enumerate(raw_methods):
        where = f"methods[{i}]"
        mk = _require(m, "kind", where)
        if mk not in METHOD_KEYS:
            raise ConfigError(f"{where}.kind: unknown kind {mk!r}")
        if mk in ("kalman", "fapf") and not isinstance(model, StssmSpec):
            raise ConfigError(f"{where}.kind: {mk} requires the stssm model")
        method_name = _as_str(m.get("name", f"{mk}-{i}"), f"{where}.name")
        n = _as_int(m.get("N", 0), f"{where}.N")
        mm = _as_int(m.get("M", 0), f"{where}.M")
        inner = m.get("inner", "smc+bs")
        stage_proposal = m.get("stage_proposal", "prior")
        if inner not in PROCEDURES:
            raise ConfigError(f"{where}.inner: unknown inner procedure {inner!r}")
        if stage_proposal not in STAGE_PROPOSALS:
            raise ConfigError(
                f"{where}.stage_proposal: must be one of {STAGE_PROPOSALS}"
            )
        for key in m:
            if key not in _method_keys(mk, inner):
                raise ConfigError(
                    f"{where}.{key}: not read by kind {mk!r}"
                    + (f" with inner procedure {inner!r}" if mk == "nsmc" else "")
                )
        if mk != "kalman" and n < 1:
            raise ConfigError(f"{where}.N: must be >= 1 for kind {mk!r}")
        if mk == "nsmc" and mm < 1:
            raise ConfigError(f"{where}.M: must be >= 1 for nested methods")
        methods.append(
            MethodConfig(
                name=method_name,
                kind=mk,
                N=n,
                M=mm,
                inner=inner,
                stage_proposal=stage_proposal,
            )
        )
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ConfigError("methods: method names must be unique")

    replicates = _as_int(raw.get("replicates", 1), "replicates")
    if replicates < 1:
        raise ConfigError("replicates: must be >= 1")
    budget_matching = raw.get("budget_matching", False)
    if not isinstance(budget_matching, bool):
        raise ConfigError(
            f"budget_matching: expected true or false, got {budget_matching!r}"
        )
    return ExperimentConfig(
        name=name,
        model=model,
        T=T,
        data_seed=data_seed,
        data_path=data_path,
        methods=tuple(methods),
        replicates=replicates,
        budget_matching=budget_matching,
        output_dir=_as_str(raw.get("output_dir", "out"), "output_dir"),
    )


def _read_json(path: str | Path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(
                f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: "
                f"{err.msg}"
            ) from None


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(_read_json(path), base_name=Path(path).stem)


# ---------------------------------------------------------------------------
# Running methods
# ---------------------------------------------------------------------------


def _method_rng(config: ExperimentConfig, replicate: int, method_idx: int):
    ss = np.random.SeedSequence([config.data_seed, replicate, method_idx])
    return np.random.default_rng(ss)


def _run_method(
    method: MethodConfig, config: ExperimentConfig, data: Dataset, rng
) -> FilterOutput:
    if method.kind == "kalman":
        return kalman_run(config.model, data)
    if method.kind == "fapf":
        return fapf_run(config.model, data, method.N, rng)
    if method.kind == "bpf":
        n = method.N
        if config.budget_matching and method.M >= 1:
            n = method.N * method.M
        return bootstrap_pf(config.model, data, n, rng)
    if method.kind == "nsmc":
        kwargs = {name: getattr(method, name) for name in PROCEDURES[method.inner][1]}
        proc = make_procedure(method.inner, method.M, **kwargs)
        return nsmc_run(config.model, data, method.N, method.M, proc, rng)
    # nsmc-general: the bootstrap-reduction configuration of the general
    # algorithm (transition proposal, unit multipliers, exact draws), which
    # is the bootstrap filter; richer configurations are library-level.
    return replace(bootstrap_pf(config.model, data, method.N, rng), ess_trace=None)


def _run_replicate(args) -> list[tuple]:
    """Worker: run every method for one replicate; returns result rows."""
    config, data, replicate = args
    rows = []
    for k, method in enumerate(config.methods):
        rng = _method_rng(config, replicate, k)
        try:
            out = _run_method(method, config, data, rng)
        except NsmcError as err:
            rows.append((replicate, method.name, "failed", "", "", str(err)))
            continue
        rows.append((replicate, method.name, "logZ", "", "", repr(out.logZ)))
        comps = sorted({1, out.n_x})
        for t in range(out.T):
            for d in comps:
                rows.append(
                    (
                        replicate,
                        method.name,
                        "mean",
                        t + 1,
                        d,
                        repr(float(out.filter_means[t, d - 1])),
                    )
                )
            if out.ess_trace is not None:
                rows.append(
                    (replicate, method.name, "ess", t + 1, "", repr(float(out.ess_trace[t])))
                )
    return rows


def _dataset(config: ExperimentConfig) -> Dataset:
    """The dataset at ``data.path``, else the draw at ``data.seed``."""
    if config.data_path is not None:
        try:
            data, _ = load_dataset(config.data_path)
        except ValueError as err:
            raise ConfigError(f"data.path: {err}") from None
        if data.T != config.T or data.n_x != config.model.n_x:
            raise ConfigError("data.path: dataset does not match the model block")
        return data
    try:
        return simulate(config.model, config.T, seed=config.data_seed)
    except InvalidInputError as err:
        raise ConfigError(f"model: {err}") from None


def run_experiment(config: ExperimentConfig, workers: int = 1) -> int:
    """Run all methods over all replicates; returns the exit status."""
    data = _dataset(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.echo.json", "w") as fh:
        json.dump(config.echo_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    jobs = [(config, data, r) for r in range(config.replicates)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_replicate, jobs))
    else:
        results = [_run_replicate(j) for j in jobs]

    rows = [row for rep_rows in results for row in rep_rows]
    rows.sort(key=lambda r: (r[0], r[1], r[2], str(r[3]), str(r[4])))
    with open(out_dir / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "method", "stat", "t", "component", "value"])
        writer.writerows(rows)

    failed = sum(1 for r in rows if r[2] == "failed")
    _write_summaries(config, data, rows, out_dir)
    return 1 if failed else 0


def _write_summaries(config, data, rows, out_dir):
    """Write the median, q25, q75, mean and stderr across replicates of
    each method's logZ and, against the exact filter where it applies, of
    its squared errors.  Quantiles interpolate linearly between closest
    ranks (type 7, recorded in the ``_meta`` row)."""
    try:
        kalman = kalman_run(config.model.to_stssm(), data)
        means = kalman.filter_means[-1]
        truth = {"logZ": kalman.logZ, "x_T_1": means[0], "x_T_n": means[-1]}
    except ValueError:
        # No equivalent chain model, or data the filters reject (the
        # replicates then carry ``failed`` rows).
        truth = {}

    # (method, quantity) -> its values across replicates, in replicate order.
    found: dict[tuple[str, str], list[float]] = {}
    for _, method, stat, t, comp, value in rows:
        if stat == "mean" and t == data.T and comp in (1, data.n_x):
            stat = "x_T_1" if comp == 1 else "x_T_n"
        elif stat != "logZ":
            continue
        found.setdefault((method, stat), []).append(float(value))

    estimators = {}
    for (method, stat), values in found.items():
        if stat == "logZ":
            estimators[f"{method}:logZ"] = np.array(values)
        if truth:
            estimators[f"{method}:se_{stat}"] = (np.array(values) - truth[stat]) ** 2

    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "estimator", "stat", "value"])
        writer.writerow([config.name, "_meta", "quantile_convention", "type-7"])
        for name in sorted(estimators):
            v = estimators[name]
            stats = {
                "median": np.quantile(v, 0.5),
                "q25": np.quantile(v, 0.25),
                "q75": np.quantile(v, 0.75),
                "mean": v.mean(),
                "stderr": v.std(ddof=1) / np.sqrt(v.size) if v.size > 1 else 0.0,
            }
            for stat, value in stats.items():
                writer.writerow([config.name, name, stat, repr(float(value))])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(config: ExperimentConfig, out_dir: Path, verbose: bool) -> int:
    if config.data_path is not None:
        raise ConfigError("data.path: simulate draws from data.seed and reads no dataset")
    data = _dataset(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "dataset.csv"
    save_dataset(data, config.model, path)
    if verbose:
        print(f"wrote {path} and {path.with_suffix('.meta.json')}")
    return 0


def _cmd_run(config: ExperimentConfig, workers: int, verbose: bool) -> int:
    status = run_experiment(config, workers=workers)
    if verbose:
        print(f"experiment {config.name}: exit status {status}")
    return status


def _cmd_asymptotics(raw: dict, out: str | None, verbose: bool) -> int:
    block = _require(raw, "asymptotics")
    t = _as_int(_require(block, "t", "asymptotics"), "asymptotics.t")
    spec = _spec_from_block(IndependentSsmSpec, {"n_x": 1, **block}, "asymptotics")
    raw_grid = _require(block, "m_grid", "asymptotics")
    if not isinstance(raw_grid, list):
        raise ConfigError("asymptotics.m_grid: expected a list of integers")
    m_grid = [_as_int(m, f"asymptotics.m_grid[{i}]") for i, m in enumerate(raw_grid)]
    if any(m < 2 for m in m_grid):
        raise ConfigError("asymptotics.m_grid: entries must be >= 2")
    ys = block.get("ys")
    if ys is not None and not isinstance(ys, list):
        raise ConfigError(f"asymptotics.ys: expected a list of numbers, got {ys!r}")
    for i, y in enumerate(ys or ()):
        if isinstance(y, bool) or not isinstance(y, (int, float)):
            raise ConfigError(f"asymptotics.ys[{i}]: expected a number, got {y!r}")
    ys_arr = None if ys is None else np.array(ys, dtype=float)
    try:
        curve = variance_curve(spec, t, spec.n_x, m_grid, ys=ys_arr)
    except ValueError as err:
        raise ConfigError(f"asymptotics: {err}") from None
    out_dir = Path(out or _as_str(raw.get("output_dir", "out"), "output_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "variance_curve.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["M", "sigma_nsmc", "sigma_fa"])
        for m, s_nsmc, s_fa in curve:
            writer.writerow([m, repr(float(s_nsmc)), repr(float(s_fa))])
    if verbose:
        print(f"wrote {path}")
    return 0


def _cmd_selftest(n_reps: int, verbose: bool) -> int:
    spec = StssmSpec(n_x=2, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5)
    x_prev = np.array([0.3, -0.8])
    y_t = np.array([0.7, 0.1])
    rng = np.random.default_rng(20_240_001)
    failures = 0
    for kind in PROCEDURES:
        for m in (1, 5, 20):
            proc = make_procedure(kind, m)
            checks = proper_weighting_check(proc, spec, x_prev, y_t, n_reps, rng)
            worst = max(abs(z) for _, _, z in checks.values())
            ok = worst <= 3.0
            failures += 0 if ok else 1
            print(
                f"proper-weighting {kind:15s} M={m:<3d} "
                f"max|z|={worst:5.2f}  {'PASS' if ok else 'FAIL'}"
            )
    return 1 if failures else 0


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--verbose", action="store_true")
    parser = argparse.ArgumentParser(
        prog="nsmc",
        description="Nested sequential Monte Carlo experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "run", "asymptotics"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", default=None, help="override the output directory")
        if name == "run":
            p.add_argument("--workers", type=int, default=1)
    p = sub.add_parser("selftest", parents=[common])
    p.add_argument("--reps", type=int, default=20000)

    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            return _cmd_selftest(args.reps, args.verbose)
        raw = _read_json(args.config)
        if args.command == "asymptotics":
            return _cmd_asymptotics(raw, args.out, args.verbose)
        config = parse_config(raw, base_name=Path(args.config).stem)
        if args.out is not None:
            config = replace(config, output_dir=args.out)
        if args.command == "simulate":
            return _cmd_simulate(config, Path(config.output_dir), args.verbose)
        return _cmd_run(config, getattr(args, "workers", 1), args.verbose)
    except (ConfigError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
