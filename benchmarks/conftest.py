"""Benchmark-suite configuration.

Run with::

    pytest benchmarks/ --benchmark-only

Each benchmark executes its pipeline once per measurement (pedantic
mode) because a single run takes seconds; LOCAL round counts — the
quantity the paper's theorems are about — are attached as
``extra_info`` and printed as tables.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The seed-engine oracle lives in ``tests/legacy_engine.py``.  ``python -m
# pytest`` already puts the working directory on sys.path; bare ``pytest``
# only adds ``benchmarks/``, so put the repository root there too.
_REPO_ROOT = str(Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)


def run_once(benchmark, func, *args, **kwargs):
    """Measure one invocation and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
