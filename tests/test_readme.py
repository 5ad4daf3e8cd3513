"""The documented public surface: the README example, the package exports
and the scenario keys of the format document."""

import ast
import glob
import os
import re

import numpy as np

import stripflow
from stripflow.scenario import FIELDS

HERE = os.path.dirname(__file__)
README = os.path.join(HERE, os.pardir, "README.md")
FORMAT_DOC = os.path.join(HERE, os.pardir, "docs", "scenario-format.md")


def readme_python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"```python\n(.*?)```", fh.read(), re.S)


def test_readme_example_runs(capsys):
    blocks = readme_python_blocks()
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = float(capsys.readouterr().out)
    assert np.isfinite(printed) and printed > 0


def test_every_export_resolves():
    missing = [name for name in stripflow.__all__
               if not hasattr(stripflow, name)]
    assert missing == []
    assert len(set(stripflow.__all__)) == len(stripflow.__all__)


def referenced_names(source):
    """Every identifier a module mentions: names, attribute names and the
    last part of each imported name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_export_has_a_caller():
    """Each exported name is used by the package itself (outside
    __init__.py), by the acceptance suite or by the README example; an
    export that only unit tests call is not part of the public surface."""
    package = os.path.dirname(stripflow.__file__)
    sources = [path for path in glob.glob(os.path.join(package, "*.py"))
               if os.path.basename(path) != "__init__.py"]
    sources.append(os.path.join(HERE, "test_acceptance.py"))
    used = set()
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            used |= referenced_names(fh.read())
    for block in readme_python_blocks():
        used |= referenced_names(block)
    unused = [name for name in stripflow.__all__ if name not in used]
    assert unused == [], f"exports without a caller: {', '.join(unused)}"


def test_no_package_import_inside_a_function():
    """Every module imports the package's own modules at module level: an
    import inside a function hides a cycle between modules."""
    package = os.path.dirname(stripflow.__file__)
    late = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = ["stripflow" if node.level else node.module]
                else:
                    continue
                if any(mod.split(".")[0] == "stripflow" for mod in modules):
                    late.append(f"{os.path.basename(path)}:{node.lineno}")
    assert late == [], f"imports inside functions: {', '.join(late)}"


def test_every_scenario_key_is_documented():
    """Each FIELDS key has a row in its section's table of the format
    document."""
    with open(FORMAT_DOC, encoding="utf-8") as fh:
        doc = fh.read()
    tables = dict(re.findall(r"### `\[(\w+)\]`.*?\n(.*?)(?=\n#|\Z)", doc,
                             re.S))
    missing = [f"[{section}] {key}" for section, key in FIELDS
               if f"| `{key}` |" not in tables.get(section, "")]
    assert missing == []
