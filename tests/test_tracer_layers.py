"""The benchmark tracer wraps package functions by name, so each must exist.

``perfbench/tracer.py`` looks every ``LAYERS`` name up with ``getattr`` on
``youngwalls.<layer>``; a layer function deleted or moved without updating
that table breaks traced benchmark runs.  The table is read from the
tracer's source, which is neither imported nor changed.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_layers() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER.name}")


def test_every_traced_name_resolves():
    layers = tracer_layers()
    assert layers
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"youngwalls.{layer}"),
                                name, None))
    ]
    assert missing == []
