"""Persisting ensembles in the block tensor store (TensorDB-style).

Simulation ensembles are expensive to produce; a study typically
samples once and analyses many times.  This example stores the two
PF-partitioned sub-ensembles in the on-disk block store, reloads them
in a "later session", runs M2TD from the stored tensors, and uses the
slice query to pull a single time-slice without touching most blocks.

Run:  python examples/ensemble_store.py
"""

import tempfile
from pathlib import Path

from repro import BlockTensorStore, DoublePendulum, EnsembleStudy
from repro.runtime import session_runtime
from repro.core import m2td_decompose
from repro.sampling import budget_for_fractions

RESOLUTION = 8
RANKS = [3] * 5
SEED = 7


def main() -> None:
    print(f"Building the double-pendulum study (resolution {RESOLUTION}) ...")
    study = EnsembleStudy.create(
        DoublePendulum(), resolution=RESOLUTION, runtime=session_runtime()
    )
    partition = study.default_partition()
    budget = budget_for_fractions(partition, 1.0, 1.0)
    x1, x2, cells, _runs = study.sample_sub_ensembles(
        partition, budget, seed=SEED
    )

    with tempfile.TemporaryDirectory() as tmp:
        store = BlockTensorStore(Path(tmp) / "ensembles")

        # --- session 1: simulate once, persist ---------------------
        entry1 = store.put("pendulum_sub1", x1, block_shape=(4, 4, 4))
        entry2 = store.put("pendulum_sub2", x2, block_shape=(4, 4, 4))
        print(
            f"stored {cells} cells as {entry1.n_blocks} + "
            f"{entry2.n_blocks} blocks under {store.directory}"
        )

        # --- session 2: reload and analyse --------------------------
        loaded1 = store.get("pendulum_sub1")
        loaded2 = store.get("pendulum_sub2")
        assert loaded1 == x1 and loaded2 == x2
        result = m2td_decompose(
            loaded1, loaded2, partition, RANKS, variant="select"
        )
        print(
            f"M2TD-SELECT from stored ensembles: accuracy "
            f"{result.accuracy(study.truth):.4f}"
        )

        # --- block-level access: one time slice ---------------------
        time_axis = 0  # sub-space mode order puts the pivot (t) first
        time_slice = store.slice_query("pendulum_sub1", time_axis, 3)
        layout = store.layout("pendulum_sub1")
        touched = sum(
            1 for _b in layout.blocks_touching_slice(time_axis, 3)
        )
        print(
            f"slice t=3 read {time_slice.nnz} cells touching "
            f"{touched}/{layout.n_blocks} blocks"
        )

        print(f"catalog: {store.names()}")


if __name__ == "__main__":
    main()
