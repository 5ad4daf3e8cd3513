"""The documented public surface: the README example and the package
exports."""

import os
import re

import numpy as np

import stripflow

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_example_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = float(capsys.readouterr().out)
    assert np.isfinite(printed) and printed > 0


def test_every_export_resolves():
    missing = [name for name in stripflow.__all__
               if not hasattr(stripflow, name)]
    assert missing == []
    assert len(set(stripflow.__all__)) == len(stripflow.__all__)
