"""The nsmc benchmark: workloads, timed runs, output checks and metrics.

Imported by ``run.py`` after it has pinned the BLAS/OpenMP thread and
glibc malloc variables and put the checkout's ``src`` on ``sys.path``.  Every filter
is called through the package's public entry points, looked up on the
``nsmc`` module at call time so that a traced run goes through the
tracer's wrappers.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import nsmc
import nsmc.cli

import workloads as wl
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

# (filter, end-to-end metric, short name used in per-layer metric names)
FILTERS = (
    ("kalman", "kalman_step_ms", "kalman"),
    ("fapf", "fapf_step_ms", "fapf"),
    ("bpf", "bpf_step_ms", "bpf"),
    ("smc+bs", "smc_bs_step_ms", "smc_bs"),
    ("smc+empirical", "smc_emp_step_ms", "smc_emp"),
    ("is", "is_step_ms", "is"),
    ("self-nested", "self_nested_step_ms", "self_nested"),
)
SMC_BS = 3  # index of smc+bs in FILTERS

# The accuracy factor of smc_bs_err_x_s comes from a fixed panel (data
# seed and filter seeds independent of --seed).  The median squared
# logZ error of K runs spreads by about 3/sqrt(K) of itself from one
# panel to the next, wider than any usable regression bound; a fixed
# panel makes the factor a function of the code alone, exact for
# changes that keep the RNG stream and moved by changes to the estimator.
PANEL_SEED = 161209162
PANEL_RUNS = 5

# |fapf logZ - Kalman logZ| on chain-n10 (N=100, T=3).  Over 1000 fapf
# runs on 100 datasets (seeds 0-99) the median gap was 0.08 nats, the
# 99th percentile 0.34 and the largest 0.46.
FAPF_LOGZ_BOUND = 2.0

SETUP_PROBES = 5  # timed cold set-ups per run (after one warm-up)
STUDY_RUNS = 8  # timed CLI studies per run
SLOT_S = 0.2  # each filter repeats within a round for about this long
MAX_REPS = 50
WARM_T = 2  # warm-up runs use the first WARM_T steps of the dataset
TIME_LIMIT_S = 170.0  # whole-run guard for subprocess timeouts

# Per-layer metrics: name -> tracer key patterns (see tracer.Tracer).
LAYER_METRICS = {
    "nested.inner_smc": ["nested.inner_smc"],
    "nested.sample_stage": ["nested.*.sample_stage"],
    "nested.stage_weight": ["nested.*.log_p_increment", "nested.*.log_stage_proposal"],
    "nested.log_suffix_ratio": ["nested.*.log_suffix_ratio"],
    "nested.prepare": ["nested.*.prepare"],
    "nested.backward_simulate": ["nested.backward_simulate"],
    "nested.empirical_draw": ["nested.empirical_draw"],
    "nested.take": ["nested.*.take"],
    "smc.normalize_logweights": ["smc.normalize_logweights"],
    "smc.multinomial_resample": ["smc.multinomial_resample"],
    "smc.bootstrap_pf": ["smc.bootstrap_pf"],
    "exact.ffbs_forward": ["exact.ffbs_forward"],
    "exact.ffbs_backward": ["exact.ffbs_backward"],
    "exact.fapf_run": ["exact.fapf_run"],
    "exact.kalman_step": ["exact.kalman_step"],
    "model.chain_factorization": ["model.chain_factorization"],
    "model.sample_gmrf_chain": ["model.sample_gmrf_chain"],
    "model.covariance": ["model.*.covariance"],
    "model.log_obs": ["model.*.log_obs"],
    "model.log_transition": ["model.*.log_transition"],
}
CALL_METRICS = ("nested.inner_smc", "model.chain_factorization")
LAYERS = {
    "model": ("nsmc.model", None),
    "smc": ("nsmc.smc", None),
    "exact": ("nsmc.exact", None),
    "nested": ("nsmc.nested", None),
    # diagnostics runs only inside CLI summaries, so it stays in cli self time.
    "cli": ("nsmc.cli", ("main",)),
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (bad arguments, broken checkout)."""


class Tally:
    """Counts attempted and failed filter runs and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


class Bench:
    """One benchmark run on one workload."""

    def __init__(self, workload_name: str, seed: int, seconds: int):
        if workload_name not in wl.WORKLOADS:
            raise BenchError(
                f"unknown workload {workload_name!r}; choose from {sorted(wl.WORKLOADS)}"
            )
        if seed < 0:
            raise BenchError("--seed must be >= 0")
        if seconds < 1:
            raise BenchError("--seconds must be >= 1")
        self.t_start = perf_counter()
        self.workload = wl.WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = seconds
        self.tally = Tally()
        self.data_seed = int(np.random.SeedSequence([seed, 0]).generate_state(1)[0])
        self.spec, self.exact_spec = wl.make_spec(nsmc, self.workload)
        self.data = nsmc.simulate(self.spec, wl.T, seed=self.data_seed)
        self.kalman_logz = nsmc.kalman_run(self.exact_spec, self.data).logZ
        self.reps = {name: 1 for name, _, _ in FILTERS}
        self.study_config = TMP / "study.json"
        self.study_config.write_text(
            json.dumps(wl.study_config(self.workload, self.data_seed))
        )

    # -- filter runs ------------------------------------------------------

    def filter_rng(self, round_idx: int, rep: int, k: int, stream: int = 1):
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, stream, round_idx, rep, k])
        )

    def run_filter(self, name: str, data, rng):
        if name == "kalman":
            return nsmc.kalman_run(self.exact_spec, data)
        if name == "fapf":
            return nsmc.fapf_run(self.exact_spec, data, wl.N, rng)
        if name == "bpf":
            return nsmc.bootstrap_pf(self.spec, data, wl.BPF_N, rng)
        proc = nsmc.make_procedure(name, wl.M)
        return nsmc.nsmc_run(self.spec, data, wl.N, wl.M, proc, rng)

    def checked_run(self, name: str, data, rng):
        """Run one filter; returns ``(output, seconds)`` or ``(None, None)``
        when it raised or its output failed the check."""
        t0 = perf_counter()
        try:
            out = self.run_filter(name, data, rng)
        except Exception as err:  # a failing run is counted, not fatal
            self.tally.record(False, f"{name}: {type(err).__name__}: {err}")
            return None, None
        elapsed = perf_counter() - t0
        problems = output_problems(out, data.T, self.workload.n_x)
        if (
            not problems
            and name == "fapf"
            and self.workload.name == "chain-n10"
            and data is self.data
            and abs(out.logZ - self.kalman_logz) > FAPF_LOGZ_BOUND
        ):
            problems.append(
                f"|logZ - kalman| = {abs(out.logZ - self.kalman_logz):.3g} > "
                f"{FAPF_LOGZ_BOUND}"
            )
        if not self.tally.record(not problems, f"{name}: {'; '.join(problems)}"):
            return None, None
        return out, elapsed

    def warm_up(self) -> None:
        """One short run per filter (excluded from every metric); sizes
        each filter's repetitions so its slot in a round lasts ~SLOT_S."""
        short = nsmc.Dataset(T=WARM_T, observations=self.data.observations[:WARM_T])
        for k, (name, _, _) in enumerate(FILTERS):
            _, elapsed = self.checked_run(name, short, self.filter_rng(0, 0, k, stream=2))
            if elapsed:
                per_run = elapsed * wl.T / WARM_T
                self.reps[name] = int(min(MAX_REPS, max(1, SLOT_S // per_run)))

    def run_round(self, round_idx: int, tracer: Tracer | None = None) -> dict:
        """Every filter, ``reps`` times each; ``{filter: [(out, seconds)]}``."""
        results = {}
        for k, (name, _, _) in enumerate(FILTERS):
            if tracer is not None:
                tracer.label = name
            runs = []
            for rep in range(self.reps[name]):
                out, elapsed = self.checked_run(
                    name, self.data, self.filter_rng(round_idx, rep, k)
                )
                if out is not None:
                    runs.append((out, elapsed))
            results[name] = runs
        return results

    def timed_window(self, traced: Tracer | None = None, extras=()):
        """Rounds until the next one would overrun ``--seconds``.

        With ``traced``, each round runs twice with the same seeds, once
        untraced and once under the tracer.  ``extras`` are
        ``(count, sample)`` pairs: ``sample()`` returns one timing or
        None, and is called ``count`` times, spread over the window
        between rounds, so that every kind of sample meets the same mix
        of quiet and busy periods of a shared machine.  Returns the
        untraced rounds, the traced rounds and one list of samples per
        extra.
        """
        plain, traced_rounds = [], []
        samples = [[] for _ in extras]
        done = [0] * len(extras)

        def take(i, sample):
            value = sample()
            done[i] += 1
            if value is not None:
                samples[i].append(value)

        start = perf_counter()
        round_idx = 0
        while True:
            t0 = perf_counter()
            plain.append(self.run_round(round_idx))
            if traced is not None:
                with traced:
                    traced_rounds.append(self.run_round(round_idx, traced))
                traced.label = None
            round_idx += 1
            round_s = perf_counter() - t0
            share = (perf_counter() - start) / self.seconds
            for i, (count, sample) in enumerate(extras):
                if done[i] < count * share:
                    take(i, sample)
            if perf_counter() + round_s > start + self.seconds:
                break
        for i, (count, sample) in enumerate(extras):
            while done[i] < count:
                take(i, sample)
        return plain, traced_rounds, samples

    def remaining(self) -> float:
        return max(5.0, TIME_LIMIT_S - (perf_counter() - self.t_start))

    # -- untraced: end-to-end metrics --------------------------------------

    def accuracy_panel(self) -> float:
        """Median squared logZ error of smc+bs on the fixed panel."""
        data = nsmc.simulate(self.spec, wl.T, seed=PANEL_SEED)
        ref = nsmc.kalman_run(self.exact_spec, data).logZ
        errs = []
        for k in range(PANEL_RUNS):
            rng = np.random.default_rng(np.random.SeedSequence([PANEL_SEED, k]))
            out, _ = self.checked_run("smc+bs", data, rng)
            if out is not None:
                errs.append((out.logZ - ref) ** 2)
        return statistics.median(errs) if errs else float("nan")

    def setup_probe(self) -> float | None:
        """Seconds of one cold set-up in a fresh interpreter."""
        status, out, err = run_child(
            [sys.executable, str(HERE / "setup_probe.py"), self.workload.name,
             str(self.data_seed)],
            self.remaining(),
        )
        rec = {}
        if status == 0:
            try:
                rec = json.loads(out.strip().splitlines()[-1])
            except (ValueError, IndexError):
                pass
        # A cold process must reproduce the in-process Kalman bits.
        ok = rec.get("kalman_logZ") == self.kalman_logz
        self.tally.record(ok, f"setup probe: exit {status} {err[-300:]}")
        return rec["setup_s"] if ok else None

    def study(self) -> float | None:
        """Wall seconds of the CLI study in a fresh process."""
        out_dir = TMP / "study"
        shutil.rmtree(out_dir, ignore_errors=True)
        cmd = [
            sys.executable, "-m", "nsmc.cli", "run", "--config", str(self.study_config),
            "--workers", str(min(2, os.cpu_count() or 1)), "--out", str(out_dir),
        ]
        t0 = perf_counter()
        status, _, err = run_child(cmd, self.remaining())
        elapsed = perf_counter() - t0
        if status != 0:
            problems = [f"exit {status}: {err[-300:]}"]
        else:
            problems = study_problems(out_dir / "results.csv", self.workload)
        ok = self.tally.record(not problems, f"study: {'; '.join(problems)}")
        return elapsed if ok else None

    def run_untraced(self) -> tuple[dict, dict]:
        self.setup_probe()  # warm-up: compiles bytecode, fills the page cache
        err_factor = self.accuracy_panel()
        self.warm_up()
        rounds, _, (setups, studies) = self.timed_window(
            extras=((SETUP_PROBES, self.setup_probe), (STUDY_RUNS, self.study))
        )
        samples = step_samples(rounds)
        # Rerun the first smc+bs seed: the logZ must repeat bit for bit.
        first = rounds[0]["smc+bs"]
        if first:
            again, _ = self.checked_run("smc+bs", self.data, self.filter_rng(0, 0, SMC_BS))
            self.tally.record(
                again is not None and again.logZ == first[0][0].logZ,
                "smc+bs rerun gave a different logZ",
            )
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        metrics, stats = {}, {}
        for name, metric, _ in FILTERS:
            metrics[metric] = (fastest(samples[name]), "ms/step")
            stats[metric] = summarize(samples[name])
        bs_run_s = fastest(samples["smc+bs"]) * wl.T / 1000.0
        metrics["smc_bs_err_x_s"] = (err_factor * bs_run_s, "nat2.s")
        metrics["study_s"] = (fastest(studies), "s")
        metrics["setup_s"] = (median_or_nan(setups), "s")
        metrics["peak_rss_mb"] = (peak_rss_mib, "MiB")
        metrics["ok_frac"] = (1.0 - self.tally.failed / max(1, self.tally.attempted), "fraction")
        stats["study_s"] = summarize(studies)
        stats["setup_s"] = summarize(setups)
        details = {
            "stats": stats,
            "panel_median_sq_err": err_factor,
            "reps_per_round": self.reps,
            "rounds": len(rounds),
        }
        return metrics, details

    # -- traced: per-layer metrics -----------------------------------------

    def run_traced(self) -> tuple[dict, dict]:
        health = Health()
        tracer = Tracer(
            LAYERS,
            observers={"nested.inner_smc": health.inner_state, "nested.*.prepare": health.aux},
        )
        self.warm_up()
        plain, traced, _ = self.timed_window(traced=tracer)

        # Wrappers consume no randomness: every traced output must equal
        # the untraced output of the same seed bit for bit.
        for p_round, t_round in zip(plain, traced):
            for name, _, _ in FILTERS:
                for (p_out, _), (t_out, _) in zip(p_round[name], t_round[name]):
                    self.tally.record(
                        p_out.logZ == t_out.logZ
                        and np.array_equal(p_out.filter_means, t_out.filter_means),
                        f"{name}: traced output differs from untraced",
                    )

        metrics, per_filter = {}, {}
        plain_s, traced_s = step_samples(plain), step_samples(traced)
        steps = {name: len(traced_s[name]) * wl.T for name, _, _ in FILTERS}
        for metric, patterns in LAYER_METRICS.items():
            if not tracer.matching(patterns):
                tracer.warnings.append(f"{metric}: no public callable matches {patterns}; reads as 0")
            calls, self_ms = per_step(tracer, patterns, steps)
            metrics[f"{metric}.self_ms"] = (sum(self_ms.values()), "ms/step")
            per_filter[f"{metric}.self_ms"] = self_ms
            if metric in CALL_METRICS:
                metrics[f"{metric}.calls"] = (sum(calls.values()), "calls/step")
                per_filter[f"{metric}.calls"] = calls
        for layer in ("model", "smc", "exact", "nested"):
            _, self_ms = per_step(tracer, [f"{layer}.*"], steps)
            metrics[f"{layer}.self_ms"] = (sum(self_ms.values()), "ms/step")
            per_filter[f"{layer}.self_ms"] = self_ms

        metrics["nested.collapsed_frac"] = (health.collapsed_frac(), "fraction")
        metrics["nested.stage_ess_min_frac"] = (health.stage_ess_min_frac(), "fraction")
        metrics["smc.outer_ess_frac"] = (outer_ess_frac(plain[0]), "fraction")
        metrics["nested.inner_smc.peak_mb"] = (self.inner_peak_mib(), "MiB")

        overhead = {}
        for name, _, short in FILTERS:
            frac = fastest(traced_s[name]) / fastest(plain_s[name]) - 1.0
            overhead[name] = frac
            metrics[f"trace.overhead_frac.{short}"] = (frac, "fraction")
        total_plain = sum(fastest(plain_s[n]) for n, _, _ in FILTERS)
        total_traced = sum(fastest(traced_s[n]) for n, _, _ in FILTERS)
        metrics["trace.overhead_frac"] = (total_traced / total_plain - 1.0, "fraction")

        metrics.update(self.traced_study())
        details = {
            "per_filter": per_filter,
            "overhead_frac": overhead,
            "rounds": len(plain),
            "reps_per_round": self.reps,
            "tracer_warnings": tracer.warnings,
            "raw_self_ms": {
                f"{label}|{key}": 1000.0 * s
                for (label, key), s in sorted(tracer.self_s.items(), key=str)
            },
        }
        return metrics, details

    def inner_peak_mib(self) -> float:
        """tracemalloc peak inside ``inner_smc`` over one smc+bs run."""
        tracer = Tracer(LAYERS, peak_patterns=["nested.inner_smc"])
        with tracer:
            self.checked_run("smc+bs", self.data, self.filter_rng(0, 0, SMC_BS))
        return tracer.peak_bytes.get("nested.inner_smc", 0) / 2**20

    def traced_study(self) -> dict:
        """One in-process traced ``cli.main(["run", ...])`` with one worker."""
        out_dir = TMP / "study-traced"
        tracer = Tracer(LAYERS)
        tracer.label = "study"
        with tracer:
            status = nsmc.cli.main(
                ["run", "--config", str(self.study_config), "--workers", "1",
                 "--out", str(out_dir)]
            )
        problems = [f"exit {status}"] if status != 0 else []
        if not problems:
            problems = study_problems(out_dir / "results.csv", self.workload)
        self.tally.record(not problems, f"traced study: {'; '.join(problems)}")
        rows = 0
        if (out_dir / "results.csv").exists():
            with open(out_dir / "results.csv", newline="") as fh:
                rows = sum(1 for _ in fh) - 1
        calls, gen_s = tracer.totals("study", ["nested.general_nsmc_step"])
        _, main_s = tracer.totals("study", ["cli.main"])
        return {
            "cli.main.self_ms": (1000.0 * main_s, "ms"),
            "cli.results_rows": (float(rows), "count"),
            "nested.general_nsmc_step.self_ms": (1000.0 * gen_s / max(1, calls), "ms/step"),
        }


class Health:
    """Inner-layer health ratios gathered by tracer observers.

    Only the first run of each filter counts (its first ``T`` calls),
    which always has the seed of round 0, repetition 0; the ratios then
    repeat exactly for the same ``--seed`` however many rounds fit.
    """

    def __init__(self):
        self.collapsed = defaultdict(list)  # label -> [(collapsed, rows)]
        self.ess_min = defaultdict(list)  # label -> [(sum of min ESS/M, rows)]

    def aux(self, label, aux) -> None:
        log_tau = np.asarray(aux.log_tau)
        self.collapsed[label].append((int(np.sum(~np.isfinite(log_tau))), log_tau.size))

    def inner_state(self, label, state) -> None:
        lw = np.asarray(state.logw)  # (n_stages, *batch, M)
        top = np.max(lw, axis=-1, keepdims=True)
        w = np.exp(lw - np.where(np.isfinite(top), top, 0.0))
        s1, s2 = w.sum(axis=-1), (w * w).sum(axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            ess = np.where(s2 > 0.0, s1 * s1 / s2, 0.0) / lw.shape[-1]
        worst = ess.min(axis=0)
        self.ess_min[label].append((float(worst.sum()), worst.size))

    @staticmethod
    def _ratio(by_label) -> float:
        pairs = [p for calls in by_label.values() for p in calls[: wl.T]]
        rows = sum(n for _, n in pairs)
        return sum(x for x, _ in pairs) / rows if rows else 0.0

    def collapsed_frac(self) -> float:
        return self._ratio(self.collapsed)

    def stage_ess_min_frac(self) -> float:
        return self._ratio(self.ess_min)


# -- helpers ------------------------------------------------------------------


def run_child(cmd, timeout: float) -> tuple[int | None, str, str]:
    """Run ``cmd`` in ``TMP`` with ``nsmc`` importable from ``SRC`` and
    the environment ``run.py`` pinned; returns ``(exit status, stdout,
    stderr)``.

    The child gets its own process group, so a timeout kills it together
    with any workers it started; the status is then None.
    """
    proc = subprocess.Popen(
        cmd, cwd=TMP, env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, f"timed out after {timeout:.0f} s\n{err}"
    return proc.returncode, out, err


def output_problems(out, T: int, n_x: int) -> list[str]:
    problems = []
    if not np.isfinite(out.logZ):
        problems.append(f"logZ = {out.logZ}")
    for field in ("filter_means", "filter_vars"):
        arr = np.asarray(getattr(out, field))
        if arr.shape != (T, n_x):
            problems.append(f"{field} shape {arr.shape} != {(T, n_x)}")
        elif not np.all(np.isfinite(arr)):
            problems.append(f"{field} not finite")
    return problems


def study_problems(path: Path, workload) -> list[str]:
    """Each (replicate, method) has one logZ row, no failed row, and one
    mean row per step for components 1 and n_x."""
    if not path.exists():
        return [f"{path.name} missing"]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    config = wl.study_config(workload, 0)
    methods = [m["name"] for m in config["methods"]]
    counts = Counter((r["replicate"], r["method"], r["stat"]) for r in rows)
    comps = len({1, workload.n_x})
    problems = []
    for rep in range(config["replicates"]):
        for m in methods:
            for stat, want in (("logZ", 1), ("failed", 0), ("mean", wl.T * comps)):
                got = counts[(str(rep), m, stat)]
                if got != want:
                    problems.append(f"replicate {rep} {m}: {got} {stat} rows, want {want}")
    return problems


def step_samples(rounds) -> dict[str, list[float]]:
    """ms per outer step of every successful run, per filter."""
    samples = {name: [] for name, _, _ in FILTERS}
    for rnd in rounds:
        for name, runs in rnd.items():
            samples[name] += [1000.0 * s / wl.T for _, s in runs]
    return samples


def per_step(tracer: Tracer, patterns, steps) -> tuple[dict, dict]:
    """Per-filter calls and self ms per outer step of the traced rounds."""
    calls, self_ms = {}, {}
    for name, n_steps in steps.items():
        c, s = tracer.totals(name, patterns)
        calls[name] = c / n_steps if n_steps else 0.0
        self_ms[name] = 1000.0 * s / n_steps if n_steps else 0.0
    return calls, self_ms


def outer_ess_frac(first_round) -> float:
    """Mean ESS / N over the steps of the first run of every filter that
    reports an ESS trace."""
    fracs = []
    for runs in first_round.values():
        if runs and runs[0][0].ess_trace is not None:
            out = runs[0][0]
            n = wl.BPF_N if out.method == "bpf" else wl.N
            fracs.append(float(np.mean(out.ess_trace)) / n)
    return statistics.fmean(fracs) if fracs else 0.0


def median_or_nan(values) -> float:
    return statistics.median(values) if values else float("nan")


def fastest(values) -> float:
    """The least-disturbed sample: contention on a shared machine only
    ever adds time to CPU-bound work."""
    return min(values) if values else float("nan")


def summarize(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond
    it, and the sample count."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": median_or_nan(values)}
    if n:
        out["min"] = values[0]
        out["p10"] = float(np.percentile(values, 10))
        out["p25"] = float(np.percentile(values, 25))
        out["p75"] = float(np.percentile(values, 75))
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            out[f"p{pct:g}"] = float(np.percentile(values, pct))
            break
    return out


def environment() -> dict:
    sha = "unknown"
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nsmc": getattr(nsmc, "__version__", "unknown"),
        "nproc": os.cpu_count(),
        "pinned_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.endswith("_THREADS") or k.startswith("MALLOC_")
        },
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Returns ``(result, details)``; ``result`` is the benchmark's
    final JSON line, ``details`` the supporting record."""
    TMP.mkdir(exist_ok=True)
    try:
        bench = Bench(workload, seed, seconds)
        metrics, details = bench.run_traced() if trace else bench.run_untraced()
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    tally = bench.tally
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    details.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        why=bench.workload.why,
        environment=environment(),
        failures=tally.notes,
        wall_s=perf_counter() - bench.t_start,
    )
    return result, details
