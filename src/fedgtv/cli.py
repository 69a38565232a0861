"""Command-line interface: run experiments, grid searches, and graph exports.

Exit codes: 0 success, 2 configuration error (bad config file, bad
hyperparameters), 3 data error (missing/unreadable/degenerate input files),
4 training/numerics error (degenerate inputs, disconnected search space).
"""
from __future__ import annotations

import json
import sys

import click

from ._version import __version__
from .errors import (
    ConfigError,
    ConstantFeatureError,
    DegenerateGraphError,
    DegenerateInputError,
    EmptyInputError,
    NoFeasibleConfigError,
    ParameterError,
    SchemaError,
    ShapeError,
    SplitError,
)
from .experiment_harness import run_experiment

_CONFIG_ERRORS = (ConfigError, ParameterError)
_DATA_ERRORS = (
    SchemaError,
    EmptyInputError,
    SplitError,
    ConstantFeatureError,
    FileNotFoundError,
    IsADirectoryError,
    json.JSONDecodeError,
    UnicodeDecodeError,
)
_TRAINING_ERRORS = (
    DegenerateInputError,
    DegenerateGraphError,
    ShapeError,
    NoFeasibleConfigError,
)


def _execute(mode: str, **kwargs) -> None:
    try:
        result = run_experiment(mode=mode, **kwargs)
    except _CONFIG_ERRORS as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except _DATA_ERRORS as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(3)
    except _TRAINING_ERRORS as exc:
        click.echo(f"training error: {exc}", err=True)
        sys.exit(4)
    if result["report"] is not None:
        click.echo(result["report"].to_text(), nl=False)
    if "graph" in result["manifest"]:
        click.echo(f"graph: {result['manifest']['graph']}")
    click.echo(f"artifacts written to {result['out_dir']}")


def _common_options(fn):
    fn = click.option(
        "--config", "config_path", required=True, type=click.Path(), help="Experiment config file."
    )(fn)
    fn = click.option("--data", default=None, type=click.Path(), help="Override: input CSV.")(fn)
    fn = click.option(
        "--synthetic", default=None, type=click.Path(), help="Override: synthetic spec JSON."
    )(fn)
    fn = click.option("--seed", default=None, type=int, help="Override: split/minibatch seed.")(fn)
    fn = click.option(
        "--out", "out_dir", default="fedgtv_out", type=click.Path(), help="Output directory."
    )(fn)
    return fn


def _algorithm_option(fn):
    return click.option(
        "--algorithm",
        default=None,
        type=click.Choice(["fedsgd", "fedavg1", "fedavg2", "all"]),
        help="Override: which algorithm(s) to train.",
    )(fn)


def _dump_option(fn):
    return click.option(
        "--dump-data", is_flag=True, help="Also write per-node preprocessed split CSVs."
    )(fn)


@click.group()
@click.version_option(__version__, prog_name="fedgtv")
def main():
    """Federated linear regression over an empirical graph (GTVMin)."""


@main.command()
@_common_options
@_algorithm_option
@_dump_option
def run(config_path, data, synthetic, seed, out_dir, algorithm, dump_data):
    """Train at the fixed [optimizer] settings and report per-node MSE."""
    _execute(
        "run",
        config_path=config_path,
        out_dir=out_dir,
        data=data,
        synthetic=synthetic,
        seed=seed,
        algorithm=algorithm,
        dump_data=dump_data,
    )


@main.command()
@_common_options
@_algorithm_option
@_dump_option
def grid(config_path, data, synthetic, seed, out_dir, algorithm, dump_data):
    """Hyperparameter grid search; reports each winner as the search trained it."""
    _execute(
        "grid",
        config_path=config_path,
        out_dir=out_dir,
        data=data,
        synthetic=synthetic,
        seed=seed,
        algorithm=algorithm,
        dump_data=dump_data,
    )


@main.command()
@_common_options
def graph(config_path, data, synthetic, seed, out_dir):
    """Build the empirical graph and export its edge list, without training."""
    _execute(
        "graph",
        config_path=config_path,
        out_dir=out_dir,
        data=data,
        synthetic=synthetic,
        seed=seed,
    )


if __name__ == "__main__":
    main()
