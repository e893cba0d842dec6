"""M2TD: Multi-Task Tensor Decomposition for Sparse Ensemble
Simulations — a full reproduction of Li, Candan & Sapino, ICDE 2018.

Quick start
-----------
>>> from repro import EnsembleStudy, DoublePendulum
>>> study = EnsembleStudy.create(DoublePendulum(), resolution=8)
>>> result = study.run_m2td([3] * 5, variant="select")
>>> 0 < result.accuracy < 1
True

Package map
-----------
``repro.tensor``
    Tensor algebra substrate (dense/sparse, Tucker).
``repro.simulation``
    Dynamical systems, integrators, ensemble construction.
``repro.sampling``
    Conventional samplers and PF-partitioning.
``repro.core``
    JE-stitching, the M2TD variants, the study pipeline.
``repro.distributed``
    MapReduce engine, cluster model, D-M2TD.
``repro.runtime``
    Task-graph execution runtime: pluggable executors,
    content-addressed caching, retries.
``repro.observability``
    Tracing spans, metrics, and the Chrome-trace / flat-profile
    exporters every layer reports into.
``repro.storage``
    Block-based sparse tensor store.
``repro.experiments``
    Table/figure reproduction harness and CLI.
"""

from .core import (
    EnsembleStudy,
    M2TDResult,
    StudyResult,
    accuracy,
    join_tensor,
    m2td_decompose,
    zero_join_tensor,
)
from .distributed import ClusterModel, distributed_m2td
from .exceptions import ReproError
from .observability import (
    MetricsRegistry,
    Tracer,
    flat_profile,
    get_metrics,
    get_tracer,
    set_tracer,
    span,
    use_tracer,
    write_chrome_trace,
)
from .runtime import (
    ResultCache,
    RetryPolicy,
    Runtime,
    RuntimeReport,
    TaskGraph,
    session_runtime,
)
from .sampling import (
    GridSampler,
    PartitionBudget,
    PFPartition,
    RandomSampler,
    SampleSet,
    SliceSampler,
    budget_for_fractions,
    select_sub_ensembles,
)
from .simulation import (
    DoublePendulum,
    DynamicalSystem,
    Lorenz,
    Observation,
    ParameterSpace,
    TriplePendulum,
    full_space_tensor,
    make_observation,
    make_system,
)
from .storage import BlockTensorStore
from .tensor import (
    SparseTensor,
    TuckerTensor,
    em_tucker,
    hooi,
    hosvd,
    st_hosvd,
)

__version__ = "1.0.0"

__all__ = [
    "EnsembleStudy",
    "M2TDResult",
    "StudyResult",
    "accuracy",
    "join_tensor",
    "m2td_decompose",
    "zero_join_tensor",
    "ClusterModel",
    "distributed_m2td",
    "ReproError",
    "MetricsRegistry",
    "Tracer",
    "flat_profile",
    "get_metrics",
    "get_tracer",
    "set_tracer",
    "span",
    "use_tracer",
    "write_chrome_trace",
    "ResultCache",
    "RetryPolicy",
    "Runtime",
    "RuntimeReport",
    "TaskGraph",
    "session_runtime",
    "GridSampler",
    "PartitionBudget",
    "PFPartition",
    "RandomSampler",
    "SampleSet",
    "SliceSampler",
    "budget_for_fractions",
    "select_sub_ensembles",
    "DoublePendulum",
    "DynamicalSystem",
    "Lorenz",
    "Observation",
    "ParameterSpace",
    "TriplePendulum",
    "full_space_tensor",
    "make_observation",
    "make_system",
    "BlockTensorStore",
    "SparseTensor",
    "TuckerTensor",
    "em_tucker",
    "hooi",
    "hosvd",
    "st_hosvd",
    "__version__",
]
