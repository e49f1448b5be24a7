"""Workload definitions shared by the harness and the set-up probe.

Kept free of heavy imports: the set-up probe imports this module before
it starts its clock, and receives the ``nsmc`` module as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass

T = 3  # outer steps per filter run
N = 100  # outer particles of the nested filters and fapf
M = 20  # inner particles of the nested filters
BPF_N = N * M  # budget-matched bootstrap filter
STUDY_REPLICATES = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "chain" or "independent"
    n_x: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chain-n100",
            "chain",
            100,
            "chain GMRF at n_x=100: the full-prefix inner layer dominates, so "
            "inner-layer and Markov-window changes show here",
        ),
        Workload(
            "chain-n10",
            "chain",
            10,
            "same model at n_x=10: prefix work is ~100x smaller, so per-call "
            "overhead, outer resampling and the CLI carry the time",
        ),
        Workload(
            "indep-n50",
            "independent",
            50,
            "independent product model at n_x=50 (Markov order 0, t=1 "
            "initial-law branches): the same layers through a second target",
        ),
    )
}


def make_spec(nsmc, workload: Workload):
    """``(spec, exact_spec)``: the model and the chain model the exact
    filters (Kalman, fapf) run on."""
    if workload.kind == "chain":
        spec = nsmc.StssmSpec.chain(
            n_x=workload.n_x, tau=1.0, lam=1.0, obs_var=0.25, a_coef=0.5
        )
        return spec, spec
    spec = nsmc.IndependentSsmSpec(n_x=workload.n_x, a_coef=0.5, obs_var=1.0)
    return spec, spec.to_stssm()


def study_config(workload: Workload, data_seed: int) -> dict:
    """CLI ``run`` config of the workload's study.

    The CLI rejects ``kalman`` and ``fapf`` for the independent model
    (exit 2), so that study omits them.
    """
    if workload.kind == "chain":
        model = {
            "kind": "stssm",
            "n_x": workload.n_x,
            "T": T,
            "tau": 1.0,
            "lambda": 1.0,
            "obs_var": 0.25,
            "a_coef": 0.5,
        }
        methods = [
            {"name": "kalman", "kind": "kalman"},
            {"name": "fapf", "kind": "fapf", "N": N},
        ]
    else:
        model = {
            "kind": "independent",
            "n_x": workload.n_x,
            "T": T,
            "a_coef": 0.5,
            "obs_var": 1.0,
        }
        methods = []
    methods += [
        {"name": "bpf", "kind": "bpf", "N": BPF_N},
        {"name": "nsmc", "kind": "nsmc", "N": N, "M": M, "inner": "smc+bs"},
        {"name": "nsmc-general", "kind": "nsmc-general", "N": BPF_N},
    ]
    return {
        "name": f"perfbench-{workload.name}",
        "model": model,
        "data": {"seed": data_seed},
        "methods": methods,
        "replicates": STUDY_REPLICATES,
        "budget_matching": False,
    }
