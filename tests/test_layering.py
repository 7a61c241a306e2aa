"""The package's import layering, read from the source: no module imports one above it."""

import ast
import json
import os
import re
import subprocess
import sys
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


def test_the_package_file_imports_nothing():
    """``stepnm/__init__.py`` holds its docstring and ``__version__`` and no import statement,
    so that importing one module loads only what that module imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(tree))
    assert ast.get_docstring(tree) and "__version__" in {
        target.id for node in tree.body if isinstance(node, ast.Assign) for target in node.targets}


@pytest.mark.parametrize("statement, modules", [
    ("import stepnm", set()),
    ("from stepnm import theory", {"errors", "theory"}),
], ids=["package", "theory"])
def test_an_import_loads_only_what_it_names(statement, modules):
    """In a fresh process, the package loads no module of its own, and ``theory`` loads
    ``errors`` alone: neither ``harness`` nor PyYAML."""
    code = f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert {name[len("stepnm."):] for name in loaded if name.startswith("stepnm.")} == modules
    assert "stepnm" in loaded and "yaml" not in loaded


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


def test_only_the_bad_input_table_calls_the_cli_entry():
    """A newly refused input is a row of ``TestEveryBadInputExits2``: in tests/, only its
    checker and the two tests refused once work has started call ``stepnm.cli.entry``, by
    its imported name or as an attribute of the ``cli`` module."""
    callers = set()
    for path in Path(__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        names, modules = set(), {"stepnm.cli"}  # what entry, and the cli module, are bound to
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    full = (f"{node.module}.{alias.name}" if isinstance(node, ast.ImportFrom)
                            else alias.name)
                    if full == "stepnm.cli.entry":
                        names.add(alias.asname or alias.name)
                    elif full == "stepnm.cli":
                        modules.add(alias.asname or alias.name)
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(node, ast.Call) and (
                        isinstance(node.func, ast.Name) and node.func.id in names
                        or isinstance(node.func, ast.Attribute) and node.func.attr == "entry"
                        and ast.unparse(node.func.value) in modules)
                    for node in ast.walk(function)):
                callers.add(function.name)
    assert callers == {"test_exits_2_before_any_work", "test_huge_classifier_features_stop_naming_v_l2",
                       "test_config_too_large_to_allocate_exits_2"}


# the config layer's calls: a refusal of what they read is a row of BAD_INPUTS
CONFIG_CALLS = {"load_config", "config_from_dict", "run", "compare_switch", "ablation",
                "check_output_dir"}
# the tests that may refuse a config by hand, since no config file or flag can carry the input
CONFIG_REFUSED_BY_HAND = {
    "test_harness.py::TestOptimizerNumbers::test_an_int_too_long_to_print_is_named_by_its_size":
        "PyYAML can neither write nor read an int of over 4300 digits",
    "test_harness.py::TestOptimizerNumbers::test_a_key_too_long_to_print_is_named_by_its_size":
        "PyYAML can neither write nor read a key of over 4300 digits",
    "test_harness.py::test_huge_classifier_features_stop_naming_v_l2":
        "the run is refused once work has started, and a row must refuse before any",
}


def test_config_refusals_are_bad_input_rows():
    """A refused config is a row of ``BAD_INPUTS``: outside ``TestEveryBadInputExits2``, no
    ``with pytest.raises(...)`` block in a test file calls ``load_config``,
    ``config_from_dict``, a driver or ``check_output_dir``, as an attribute of ``harness`` or
    by the name it is imported under from ``stepnm.harness``, except the tests listed in
    ``CONFIG_REFUSED_BY_HAND``.  Other calls of the same names, such as ``subprocess.run``,
    are not the config layer."""
    def raises(item: ast.withitem) -> bool:
        call = item.context_expr
        return isinstance(call, ast.Call) and ast.unparse(call.func) == "pytest.raises"

    found = set()
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        tree = ast.parse(path.read_text())
        bare = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "stepnm.harness"
                for alias in node.names if alias.name in CONFIG_CALLS}

        def config_call(node: ast.AST) -> bool:
            return isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id in bare
                or isinstance(node.func, ast.Attribute) and node.func.attr in CONFIG_CALLS
                and ast.unparse(node.func.value) == "harness")

        def visit(node: ast.AST, scope: tuple) -> None:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                if node.name == "TestEveryBadInputExits2":
                    return
                scope = (*scope, node.name)
            if isinstance(node, ast.With) and any(map(raises, node.items)) and any(
                    config_call(inner) for statement in node.body for inner in ast.walk(statement)):
                found.add("::".join((path.name, *scope)))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, ())
    assert found == set(CONFIG_REFUSED_BY_HAND)
