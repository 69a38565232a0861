import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from fedgtv.data_pipeline import FEATURE_DIM, engineer_features
from fedgtv.empirical_graph import EmpiricalGraph

ROOT = Path(__file__).resolve().parent.parent


def graph_from_edges(n, edges, min_degree=1):
    A = np.zeros((n, n))
    for i, j in edges:
        A[i, j] = A[j, i] = 1.0
    return EmpiricalGraph(adjacency=A, min_degree=min_degree)


def load_perfbench_inputs():
    """The benchmark's input writers, ``perfbench/inputs.py``, as a module."""
    spec = importlib.util.spec_from_file_location("los_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up while they are built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="session")
def los_csvs(tmp_path_factory):
    """The benchmark's los_grid CSV (100k rows) at seeds 1 and 7, by seed; each has its ``los.ini`` beside it.

    Written once per session: the pin of the paper grid and the split-load
    tests read the same files.
    """
    los_inputs = load_perfbench_inputs()
    out = tmp_path_factory.mktemp("los")
    return {seed: los_inputs.write_los(seed, out / str(seed)).config.parent / "los.csv" for seed in (1, 7)}


@pytest.fixture
def public_design():
    """Factory of ``(X, y)`` in the public 19-column feature layout.

    The six one-hot rcount slots sum to the intercept column, so every such
    design has rank 18: ``X`` has a null direction that a gradient step can
    neither remove nor should add to.
    """

    def make(rng, m):
        block = np.column_stack(
            [
                rng.integers(0, 6, m),  # rcount slot
                rng.integers(0, 2, (m, 2)),  # gender, hemo
                rng.standard_normal((m, 9)),  # the numerics, already z-scored
                rng.integers(0, 6, m),  # n_conditions
                rng.gamma(2.0, 2.0, m),  # length of stay
            ]
        ).astype(float)
        X, y = engineer_features(block)
        assert X.shape[1] == FEATURE_DIM and np.linalg.matrix_rank(X) == FEATURE_DIM - 1
        return X, y

    return make
