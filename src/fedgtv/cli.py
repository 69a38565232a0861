"""Command-line interface: run experiments, grid searches, and graph exports.

Exit codes: 0 success, else the error's ``exit_code`` (see :mod:`fedgtv.errors`):
2 configuration error (bad config file, bad hyperparameters), 3 data error
(missing/unreadable/degenerate input files, an unwritable --out), 4 training
error (degenerate inputs, no finite validation MSE in any of an algorithm's cells).
"""
from __future__ import annotations

import json
import sys

import click

from ._version import __version__
from .errors import FedGTVError
from .experiment_harness import run_experiment
from .fed_optimizers import Algorithm

_PREFIX = {2: "config", 3: "data", 4: "training"}  # message prefix by exit code


def _exit(code: int, exc: Exception) -> None:
    click.echo(f"{_PREFIX[code]} error: {exc}", err=True)
    sys.exit(code)


def _execute(mode: str, **kwargs) -> None:
    try:
        result = run_experiment(mode=mode, **kwargs)
    except FedGTVError as exc:
        _exit(exc.exit_code, exc)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        _exit(3, exc)  # a missing or unreadable input file, or an --out the OS will not write
    if result["report"] is not None:
        click.echo(result["report"].to_text(), nl=False)
    if "graph" in result["manifest"]:
        click.echo(f"graph: {result['manifest']['graph']}")
    click.echo(f"artifacts written to {result['out_dir']}")


# The options of run and grid, in --help order; graph takes the first five.
_OPTIONS = [
    click.Option(
        ["--out", "out_dir"], default="fedgtv_out", type=click.Path(), help="Output directory."
    ),
    click.Option(["--seed"], default=None, type=int, help="Override: split/minibatch seed."),
    click.Option(
        ["--synthetic"], default=None, type=click.Path(), help="Override: synthetic spec JSON."
    ),
    click.Option(["--data"], default=None, type=click.Path(), help="Override: input CSV."),
    click.Option(
        ["--config", "config_path"],
        required=True,
        type=click.Path(),
        help="Experiment config file.",
    ),
    click.Option(
        ["--algorithm"],
        default=None,
        type=click.Choice([a.value for a in Algorithm] + ["all"]),
        help="Override: which algorithm(s) to train.",
    ),
    click.Option(
        ["--dump-data"], is_flag=True, help="Also write per-node preprocessed split CSVs."
    ),
]


@click.group()
@click.version_option(__version__, prog_name="fedgtv")
def main():
    """Federated linear regression over an empirical graph (GTVMin)."""


def _command(mode: str, doc: str, options: list[click.Option]) -> None:
    main.command(mode, help=doc, params=list(options))(lambda **kwargs: _execute(mode, **kwargs))


_command("run", "Train at the fixed [optimizer] settings and report per-node MSE.", _OPTIONS)
_command(
    "grid", "Hyperparameter grid search; reports each winner as the search trained it.", _OPTIONS
)
_command(
    "graph", "Build the empirical graph and export its edge list, without training.", _OPTIONS[:5]
)


if __name__ == "__main__":
    main()
