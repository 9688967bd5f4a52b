"""The README's library quick start and the package's public names stay in
step with the API."""

import re
from pathlib import Path

import koopseed

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["x_forecast"].shape == (6,)


def test_all_names_resolve():
    assert [name for name in koopseed.__all__ if not hasattr(koopseed, name)] == []
