"""The documented public surface: the README example, the package exports
and the scenario keys of the format document."""

import ast
import glob
import os
import re
from collections import Counter

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


def mentions(tree):
    """How often a syntax tree mentions each identifier: names, attribute
    names and the last part of each imported name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
    return names


def callers():
    """The package's modules as syntax trees keyed by file name
    (__init__.py, whose re-exports call nothing, aside), and the mentions
    of each identifier in them, the acceptance suite and the README
    example."""
    package = os.path.dirname(stripflow.__file__)
    modules = {}
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        if os.path.basename(path) != "__init__.py":
            with open(path, encoding="utf-8") as fh:
                modules[os.path.basename(path)] = ast.parse(fh.read())
    acceptance = os.path.join(HERE, "test_acceptance.py")
    with open(acceptance, encoding="utf-8") as fh:
        outside = [ast.parse(fh.read())]
    outside += [ast.parse(block) for block in readme_python_blocks()]
    return modules, sum(map(mentions, [*modules.values(), *outside]),
                        Counter())


def test_every_export_has_a_caller():
    """Each exported name is used by the package itself (outside
    __init__.py), by the acceptance suite or by the README example; an
    export that only unit tests call is not part of the public surface."""
    _, used = callers()
    unused = [name for name in stripflow.__all__ if name not in used]
    assert unused == [], f"exports without a caller: {', '.join(unused)}"


def test_every_definition_has_a_caller():
    """Each function, class and method the package defines is mentioned
    outside its own definition, by the same callers as an export.  Dunder
    methods are called by Python itself."""
    modules, used = callers()
    uncalled = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("__")
                    and used[node.name] == mentions(node)[node.name]):
                uncalled.append(f"{module}:{node.name}")
    assert uncalled == [], f"definitions without a caller: {uncalled}"


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
