"""Pivot-choice study on the double pendulum (paper Table VIII).

A decision maker rarely knows a priori which parameter to share
between the two PF-partitioned sub-systems.  This example sweeps all
five candidate pivots (time, both angles, both masses), keeping the
same-pendulum parameters grouped, and shows that *every* choice beats
conventional sampling by orders of magnitude — the paper's argument
that partitioning does not require precise system knowledge.

It also demonstrates the three M2TD variants side by side and the
ROW_SELECT diagnostic (which sub-system "won" each pivot-domain row).

Run:  python examples/pendulum_pivot_study.py
"""

import numpy as np

from repro import DoublePendulum, EnsembleStudy
from repro.runtime import session_runtime
from repro.core.row_select import row_select_source
from repro.experiments import format_table
from repro.experiments.table8 import pendulum_partition
from repro.sampling import RandomSampler, budget_for_fractions
from repro.tensor import truncated_svd

RESOLUTION = 8
RANKS = [3] * 5
SEED = 7


def pivot_sweep(study: EnsembleStudy) -> None:
    rows = []
    budget = None
    for pivot in ("t", "phi1", "phi2", "m1", "m2"):
        partition = pendulum_partition(study, pivot)
        accuracies = []
        for variant in ("avg", "concat", "select"):
            result = study.run_m2td(
                RANKS, variant=variant, pivot=pivot,
                partition=partition, seed=SEED,
            )
            accuracies.append(result.accuracy)
            budget = result.cells
        rows.append([pivot] + accuracies)
    random = study.run_conventional(RandomSampler(SEED), budget, RANKS)
    rows.append(["(Random)", random.accuracy, "-", "-"])
    print(format_table(["pivot", "AVG", "CONCAT", "SELECT"], rows))


def row_select_diagnostics(study: EnsembleStudy) -> None:
    """Which sub-system supplies each time-row of the pivot factor?"""
    partition = study.default_partition()
    budget = budget_for_fractions(partition, 1.0, 1.0)
    x1, x2, _cells, _runs = study.sample_sub_ensembles(
        partition, budget, seed=SEED
    )
    u1, s1, _ = truncated_svd(x1.unfold_csr(0), RANKS[0])
    u2, s2, _ = truncated_svd(x2.unfold_csr(0), RANKS[0])
    source = row_select_source(u1, u2, s1, s2)
    counts = {1: int((source == 1).sum()), 2: int((source == 2).sum())}
    print(
        f"\nROW_SELECT sources per time row: sub-system 1 -> "
        f"{counts[1]} rows, sub-system 2 -> {counts[2]} rows"
    )
    # SELECT's row energy is spectral: the row norm of U diag(s)
    energies = (
        np.linalg.norm(u1 * s1, axis=1), np.linalg.norm(u2 * s2, axis=1)
    )
    print(
        "spectral row energies (U1 diag(s1) vs U2 diag(s2)): "
        + ", ".join(
            f"t{i}:{a:.2f}/{b:.2f}" for i, (a, b) in
            enumerate(zip(*energies))
        )
    )


def main() -> None:
    print(f"Building the double-pendulum study (resolution {RESOLUTION}) ...")
    study = EnsembleStudy.create(
        DoublePendulum(), resolution=RESOLUTION, runtime=session_runtime()
    )
    print("\n-- Pivot sweep (paper Table VIII shape) --")
    pivot_sweep(study)
    row_select_diagnostics(study)


if __name__ == "__main__":
    main()
