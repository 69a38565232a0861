"""Federated linear regression over empirical graphs via GTVMin.

Simulates a network of data holders that jointly train per-node linear
models: local MSE losses coupled by a graph total-variation penalty (fedsgd)
or by server-side averaging (fedavg1/fedavg2), with dataset ingestion, graph
construction, grid search, and a reporting CLI. Each module lists its public
names in its own ``__all__``; the package exports them all.
"""
from . import data_pipeline, empirical_graph, errors, experiment_harness, fed_optimizers, model_core
from ._version import __version__
from .data_pipeline import *  # noqa: F403
from .empirical_graph import *  # noqa: F403
from .errors import *  # noqa: F403
from .experiment_harness import *  # noqa: F403
from .fed_optimizers import *  # noqa: F403
from .model_core import *  # noqa: F403

__all__ = [
    "__version__",
    *errors.__all__,
    *data_pipeline.__all__,
    *model_core.__all__,
    *empirical_graph.__all__,
    *fed_optimizers.__all__,
    *experiment_harness.__all__,
]
