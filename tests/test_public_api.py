"""Guards for the package's single declarations: each module's ``__all__`` and imports, and each error's ``exit_code``."""
import ast
import inspect
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

import fedgtv
from fedgtv import cli, data_pipeline, empirical_graph, errors, experiment_harness, fed_optimizers, model_core
from fedgtv.errors import (
    ConfigError,
    ConstantFeatureError,
    DegenerateGraphError,
    DegenerateInputError,
    DivergenceError,
    EmptyInputError,
    FedGTVError,
    NoFeasibleConfigError,
    ParameterError,
    SchemaError,
    ShapeError,
    SplitError,
)

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# In the order the package exports them.
MODULES = [errors, data_pipeline, model_core, empirical_graph, fed_optimizers, experiment_harness]

EXIT_CODES = {
    ConfigError: 2,
    ParameterError: 2,
    SchemaError: 3,
    EmptyInputError: 3,
    SplitError: 3,
    ConstantFeatureError: 3,
    ShapeError: 4,
    DegenerateInputError: 4,
    DegenerateGraphError: 4,
    DivergenceError: 4,
    NoFeasibleConfigError: 4,
}


def defined_names(module) -> set[str]:
    """Names a module's own top-level statements bind: classes, functions and assignments, not imports."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_package_exports_each_module_all_once():
    expected = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert fedgtv.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in MODULES:
        missing = set(module.__all__) - defined_names(module)
        assert not missing, f"{module.__name__} lists names it does not define: {sorted(missing)}"
        for name in module.__all__:
            assert getattr(fedgtv, name) is getattr(module, name)
    namespace: dict = {}
    exec("from fedgtv import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(expected)


def unused_imports(source: str) -> set[str]:
    """Names a module's imports bind that none of its code reads and its ``__all__`` does not list."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return imported - exported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def tracer_hooks() -> dict[str, set[str]]:
    """``perfbench/tracing.py``'s ``WRAPPED``, read from its source: the attributes the tracer wraps, by module."""
    body = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8")).body
    (wrapped,) = [
        ast.literal_eval(node.value) for node in body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)
    ]
    hooks: dict[str, set[str]] = {}
    for module, attr in wrapped:
        hooks.setdefault(module, set()).add(attr)
    return hooks


def test_unused_imports_finds_what_no_code_reads():
    source = (
        "from __future__ import annotations\nimport os, numpy as np\nimport a.b\nfrom .c import d, e, f as g\n"
        "__all__ = ['e']\n\ndef h(x: d) -> None:\n    return np.zeros(a.b)\n"
    )
    assert unused_imports(source) == {"os", "g"}


@pytest.mark.parametrize(
    "path", sorted(p for p in (ROOT / "src" / "fedgtv").glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem
)
def test_every_unused_import_is_a_tracer_hook(path):
    # a module may import a name it never uses only so that the tracer can wrap it there
    unused = unused_imports(path.read_text(encoding="utf-8"))
    hooks = tracer_hooks().get(f"fedgtv.{path.stem}", set())
    assert unused <= hooks, f"fedgtv.{path.stem} imports names it never uses: {sorted(unused - hooks)}"


def readme_exit_codes() -> dict[str, int]:
    """Error class name -> exit code, from the README's exit-code table."""
    codes = {}
    for code, names in re.findall(r"^\| (\d) \| `\w+ error:` \| (.*) \|$", README.read_text(encoding="utf-8"), re.M):
        codes.update((name, int(code)) for name in re.findall(r"`(\w+Error)`", names))
    return codes


def test_every_error_declares_its_exit_code():
    concrete = {
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, FedGTVError) and obj is not FedGTVError
    }
    assert concrete == set(EXIT_CODES)
    assert set(errors.__all__) == {cls.__name__ for cls in concrete} | {"FedGTVError"}
    assert {cls: cls.exit_code for cls in concrete} == EXIT_CODES
    assert readme_exit_codes() == {cls.__name__: code for cls, code in EXIT_CODES.items()}


@pytest.mark.parametrize(
    "exc, code, prefix",
    [(cls("boom"), code, {2: "config", 3: "data", 4: "training"}[code]) for cls, code in EXIT_CODES.items()]
    + [
        (FileNotFoundError("boom"), 3, "data"),
        (IsADirectoryError("boom"), 3, "data"),
        (json.JSONDecodeError("boom", "{", 0), 3, "data"),
        (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "boom"), 3, "data"),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
)
def test_cli_exits_with_the_error_code(monkeypatch, exc, code, prefix):
    def failing_run(**kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_experiment", failing_run)
    result = CliRunner().invoke(cli.main, ["run", "--config", "exp.ini"])
    assert result.exit_code == code
    assert result.stderr == f"{prefix} error: {exc}\n"
