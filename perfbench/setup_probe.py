"""Time one cold set-up of a workload in a fresh interpreter.

Usage: ``python setup_probe.py <workload> <data_seed>`` with ``nsmc``
importable (the harness sets ``PYTHONPATH``).  Prints one JSON object
``{"setup_s": ..., "kalman_logZ": ...}``.  The clock covers importing
``nsmc``, building the spec and model, simulating the dataset and
computing the Kalman reference.
"""

import json
import sys
from time import perf_counter

import workloads


def main(argv) -> int:
    workload = workloads.WORKLOADS[argv[1]]
    data_seed = int(argv[2])
    t0 = perf_counter()
    import nsmc

    spec, exact_spec = workloads.make_spec(nsmc, workload)
    nsmc.make_model(spec)
    data = nsmc.simulate(spec, workloads.T, seed=data_seed)
    ref = nsmc.kalman_run(exact_spec, data)
    elapsed = perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "kalman_logZ": ref.logZ}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
