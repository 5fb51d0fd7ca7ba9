"""The benchmark's traced run wraps entry points that exist.

Claim:
    - every ``(owner, attribute)`` that ``perfbench/layers.py`` lists for
      tracing resolves to a callable, so renaming or deleting a wrapped
      name (``ScopeLayout.masses``, ``raking._rake``) fails here instead of
      in ``perfbench/run.py --trace 1``
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = layers.targets()
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing, missing
