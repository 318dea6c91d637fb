"""The README's library example runs against the package as it is."""

from __future__ import annotations

import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, f"{README.name} (Library quick start)", "exec"), namespace)
    # The values its comments promise.
    assert namespace["report"].linear_rank >= 4 * 4 * 3  # 4d(d-1) at d = 4
    assert abs(namespace["value"] - 2.0 * math.sqrt(2.0)) < 1e-9
