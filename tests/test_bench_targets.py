"""The traced benchmark run wraps wellqc functions by name; every name must resolve.

``perfbench/tracing.py`` replaces ``vars(owner)[attr]`` for each target, so
renaming or deleting one of those functions breaks the traced benchmark.
This test catches that in the ordinary test suite.
"""

import importlib
from pathlib import Path

from wellqc.nn.arch import default_architecture

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = tracing.wellqc_targets(tracing.layer_table(default_architecture()))
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert missing == []
