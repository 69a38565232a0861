"""Federated linear regression over empirical graphs via GTVMin.

Simulates a network of data holders that jointly train per-node linear
models: local MSE losses coupled by a graph total-variation penalty (fedsgd)
or by server-side averaging (fedavg1/fedavg2), with dataset ingestion, graph
construction, grid search, and a reporting CLI.
"""
from ._version import __version__
from .data_pipeline import (
    CsvSchema,
    FEATURE_DIM,
    FEATURE_NAMES,
    LocalDataset,
    RawRecord,
    SyntheticSpec,
    dump_preprocessed,
    engineer_features,
    generate_synthetic,
    load_csv,
    load_preprocessed,
    normalize,
    split_dataset,
)
from .empirical_graph import (
    EmpiricalGraph,
    build_knn_graph,
    discrepancy_matrix,
    export_edge_list,
    graph_summary,
    is_connected,
    pretrain_local_weights,
)
from .errors import (
    ConfigError,
    ConstantFeatureError,
    DegenerateGraphError,
    DegenerateInputError,
    EmptyInputError,
    FedGTVError,
    NoFeasibleConfigError,
    ParameterError,
    SchemaError,
    ShapeError,
    SingularSystemError,
    SplitError,
)
from .fed_optimizers import (
    Algorithm,
    OptimizerConfig,
    TrainingTrace,
    fedavg_v1_round,
    fedavg_v2_round,
    fedsgd_round,
    gtv_objective,
    train,
    train_cells,
)
from .experiment_harness import (
    AlgorithmMetrics,
    ExperimentConfig,
    GridCell,
    GridSearchResult,
    GridSpec,
    MetricsReport,
    evaluate,
    load_experiment_config,
    load_synthetic_spec,
    run_experiment,
    run_grid_search,
    select_best,
)
from .model_core import (
    least_squares_fit,
    mse_gradient,
    mse_loss,
    predict,
    proximal_step,
    proximal_step_gram,
)

__all__ = [
    "__version__",
    # errors
    "FedGTVError",
    "ConfigError",
    "ConstantFeatureError",
    "DegenerateGraphError",
    "DegenerateInputError",
    "EmptyInputError",
    "NoFeasibleConfigError",
    "ParameterError",
    "SchemaError",
    "ShapeError",
    "SingularSystemError",
    "SplitError",
    # data pipeline
    "CsvSchema",
    "FEATURE_DIM",
    "FEATURE_NAMES",
    "LocalDataset",
    "RawRecord",
    "SyntheticSpec",
    "dump_preprocessed",
    "engineer_features",
    "generate_synthetic",
    "load_csv",
    "load_preprocessed",
    "normalize",
    "split_dataset",
    # model core
    "least_squares_fit",
    "mse_gradient",
    "mse_loss",
    "predict",
    "proximal_step",
    "proximal_step_gram",
    # empirical graph
    "EmpiricalGraph",
    "build_knn_graph",
    "discrepancy_matrix",
    "export_edge_list",
    "graph_summary",
    "is_connected",
    "pretrain_local_weights",
    # optimizers
    "Algorithm",
    "OptimizerConfig",
    "TrainingTrace",
    "fedavg_v1_round",
    "fedavg_v2_round",
    "fedsgd_round",
    "gtv_objective",
    "train",
    "train_cells",
    # harness
    "AlgorithmMetrics",
    "ExperimentConfig",
    "GridCell",
    "GridSearchResult",
    "GridSpec",
    "MetricsReport",
    "evaluate",
    "load_experiment_config",
    "load_synthetic_spec",
    "run_experiment",
    "run_grid_search",
    "select_best",
]
