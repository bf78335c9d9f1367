"""Import dickesim and make the first call of every request kind the benchmark times.

run.py times this script in fresh interpreters for `setup_s`, and calls
``warm_up()`` in its own process before the timed loop, so that first-call
costs (module imports, LAPACK initialisation) stay out of the request
timings.  It imports nothing but dickesim and its dependencies.

    python3 bench/warmup.py
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def warm_up():
    import dickesim as ds
    import dickesim.cli  # noqa: F401  (the figure and steady requests go through it)

    rho = ds.steady_state_numeric(ds.ModelParams(j=1, omega=1.0, gamma_a=0.8, nbar=0.3))
    ds.concurrence(ds.triplet_to_two_qubit(rho))
    rho = ds.steady_state_numeric(ds.ModelParams(j=2, omega=1.0, gamma_a=0.8, nbar=0.3))
    ds.concurrence(ds.pair_reduced_state(rho, 2))
    ds.concurrence(ds.pair_reduced_state(ds.steady_state_analytic(2, 0.5), 2))
    ds.stable_branch_summary(0.5)
    ds.bifurcation_scan([0.5, 1.5])
    ds.evolve(ds.dicke_projector(1, 1), ds.ModelParams(j=1, omega=1.0, gamma_a=1.0, nbar=0.5), [0.0, 0.01])
    ds.integrate_meanfield([0.0, 0.0, 1.0], 0.5, [0.0, 0.01])


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    warm_up()
