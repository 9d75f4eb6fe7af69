"""The tutorial's code blocks run as written.

Every ```python block of docs/TUTORIAL.md is executed in order in one
shared namespace, the way a reader pastes them into one session. A
stale import or a broken example fails here, naming its block.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

TUTORIAL = Path(__file__).resolve().parents[1] / "docs" / "TUTORIAL.md"


def test_tutorial_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", TUTORIAL.read_text(), re.M | re.S)
    assert blocks, "no python blocks found in the tutorial"
    monkeypatch.chdir(tmp_path)  # a block writes figure2.dot
    namespace: dict[str, object] = {}
    for index, block in enumerate(blocks):
        first = block.splitlines()[0]
        try:
            exec(compile(block, f"TUTORIAL.md block {index}", "exec"), namespace)
        except Exception as exc:
            pytest.fail(
                f"TUTORIAL.md python block {index} ({first!r}) raised "
                f"{type(exc).__name__}: {exc}"
            )
