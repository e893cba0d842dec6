"""Epidemic ensemble study — the paper's motivating use case.

Section I of the paper opens with epidemic-spread simulation (STEM):
experts sweep transmission parameters and need actionable patterns
from the ensemble under a hard simulation budget.  This example plays
that scenario end to end on an SEIR model:

1. the "observed outbreak" is a reference trajectory at unknown (to
   the analyst) parameters;
2. a budget-limited ensemble is collected with partition-stitch
   sampling and decomposed with M2TD-SELECT;
3. the decomposition answers the decision maker's questions: which
   parameter settings match the outbreak best, and how does the match
   vary with the transmission rate beta (the intervention lever)?

Run:  python examples/epidemic_study.py
"""

import numpy as np

from repro import EnsembleStudy
from repro.runtime import session_runtime
from repro.experiments import format_table
from repro.sampling import RandomSampler
from repro.simulation import make_system

RESOLUTION = 8
RANKS = [3] * 5
SEED = 7


def main() -> None:
    system = make_system("epidemic_seir")
    print(f"Building the SEIR study (resolution {RESOLUTION}) ...")
    study = EnsembleStudy.create(
        system, resolution=RESOLUTION, runtime=session_runtime()
    )
    # Budget-limited ensemble + M2TD vs conventional sampling.  Its
    # first batch also integrates the observation read below.
    m2td = study.run_m2td(RANKS, variant="select", seed=SEED)
    print(
        "observed outbreak parameters (hidden from the analyst): "
        + ", ".join(
            f"{k}={v:.3f}" for k, v in study.observation.true_params.items()
        )
    )
    r0 = system.basic_reproduction_number(study.observation.true_params)
    print(f"observed R0 = {r0:.2f}\n")

    random_baseline = study.run_conventional(
        RandomSampler(SEED), m2td.cells, RANKS
    )
    print(
        format_table(
            ["scheme", "accuracy", "cells"],
            [
                [m2td.scheme, float(m2td.accuracy), m2td.cells],
                [
                    random_baseline.scheme,
                    float(random_baseline.accuracy),
                    random_baseline.cells,
                ],
            ],
        )
    )

    # Decision support: which simulated configurations track the
    # outbreak most closely (smallest mean distance over time)?
    reconstruction = m2td.m2td.reconstruct_original()
    mean_distance = reconstruction.mean(axis=-1)
    best = np.argsort(mean_distance.ravel())[:3]
    print("\nconfigurations closest to the observed outbreak (model-based):")
    rows = []
    param_shape = study.space.shape[: study.space.n_param_modes]
    for flat in best:
        indices = np.unravel_index(flat, param_shape)
        params = study.space.params_from_indices(indices)
        rows.append(
            [
                ", ".join(f"{k}={v:.3f}" for k, v in params.items()),
                float(mean_distance[indices]),
                system.basic_reproduction_number(params),
            ]
        )
    print(format_table(["configuration", "mean distance", "R0"], rows))

    # The intervention lever: how does the model-based match vary with
    # the transmission rate beta?
    beta_profile = mean_distance.mean(axis=(1, 2, 3))
    beta_grid = study.space.grid(0)
    print("\nmean distance per transmission rate beta:")
    print(
        format_table(
            ["beta", "mean distance"],
            [[f"{b:.2f}", float(d)] for b, d in zip(beta_grid, beta_profile)],
        )
    )
    closest = beta_grid[int(np.argmin(beta_profile))]
    print(
        f"\nThe ensemble's patterns place the outbreak's transmission "
        f"rate near beta = {closest:.2f} (true: "
        f"{study.observation.true_params['beta']:.2f}) — from "
        f"{m2td.cells} simulated cells instead of "
        f"{study.truth.size}."
    )


if __name__ == "__main__":
    main()
