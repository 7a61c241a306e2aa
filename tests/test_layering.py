"""The package's import layering, read from the source: no module imports one above it."""

import ast
import re
from pathlib import Path

import pytest

import stepnm

PACKAGE = Path(stepnm.__file__).parent


def stepnm_imports(module: str) -> set[str]:
    """The stepnm modules that ``module``'s source imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if not node.level:
                if source != "stepnm" and not source.startswith("stepnm."):
                    continue
                source = source[len("stepnm."):]
            found.update([source.split(".")[0]] if source else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("stepnm."))
    return found


@pytest.mark.parametrize("module", ["models", "masks", "theory", "autoswitch"])
def test_lower_modules_import_only_errors(module):
    assert stepnm_imports(module) <= {"errors"}


def test_optim_imports_neither_harness_nor_cli():
    assert stepnm_imports("optim").isdisjoint({"harness", "cli"})
    # the reader sees imports at all, so the empty sets above are not vacuous
    assert stepnm_imports("harness") >= {"autoswitch", "models", "masks", "optim", "errors"}


def test_cli_writes_no_file_and_edits_no_loaded_config():
    """harness writes every file and reads the flags into the config, so cli opens no file,
    imports no json and rebuilds no loaded config with ``dataclasses.replace``."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    called = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
              for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, (ast.Name, ast.Attribute))}
    assert "json" not in imported and not called & {"open", "replace"}
    assert {"load_config", "write_json", "echo"} <= called  # the reader sees calls at all


def test_only_optim_reads_the_recipe_table():
    """RECIPE_KINDS says what each recipe kind does; a Recipe checks itself against it, so
    no other module names it, as a name, an attribute or an import."""
    def names(module: str) -> set[str]:
        found = set()
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update(alias.name.split(".")[-1] for alias in node.names)
        return found

    readers = {path.stem for path in PACKAGE.glob("*.py") if "RECIPE_KINDS" in names(path.stem)}
    assert readers == {"optim"}


def test_cli_checks_no_value_itself():
    """The library checks every flag value, once: cli.py raises nothing, raises no click
    BadParameter, and asks click for no Choice and no path that must exist."""
    nodes = list(ast.walk(ast.parse((PACKAGE / "cli.py").read_text())))
    assert not any(isinstance(node, ast.Raise) for node in nodes)
    names = ({node.id for node in nodes if isinstance(node, ast.Name)}
             | {node.attr for node in nodes if isinstance(node, ast.Attribute)})
    assert not names & {"BadParameter", "Choice"}
    keywords = {node.arg for node in nodes if isinstance(node, ast.keyword)}
    assert "exists" not in keywords
    assert {"Path", "option"} <= names and "help" in keywords  # the reader sees names at all


def test_only_check_kind_raises_an_unknown_kind():
    """errors.check_kind is the one place in src/ that raises "unknown <what> kind": a config
    section, a flag and a driver's own table of kinds all hand their kind to it."""
    raisers = set()
    for path in PACKAGE.glob("*.py"):
        source = path.read_text()
        for function in ast.walk(ast.parse(source)):
            if isinstance(function, ast.FunctionDef):
                raisers.update(f"{path.stem}.{function.name}" for node in ast.walk(function)
                               if isinstance(node, ast.Raise)
                               and re.search(r"unknown\b.*\bkind\b", ast.get_source_segment(source, node)))
    assert raisers == {"errors.check_kind"}
