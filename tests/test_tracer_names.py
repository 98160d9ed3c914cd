"""The benchmark tracer wraps kljn functions by name: each of those names must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_layers() -> dict:
    """``LAYERS`` of ``perfbench/tracer.py``, read from the file without running a benchmark."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_every_traced_name_resolves():
    names = [target for targets in load_layers().values() for target in targets]
    assert names
    missing = []
    for module_name, attr in names:
        owner = importlib.import_module(f"kljn.{module_name}")
        # the tracer reads a method from the class's own __dict__ and a function from its module
        *cls_name, name = attr.split(".")
        if cls_name:
            owner = getattr(owner, cls_name[0], None)
            found = owner is not None and name in vars(owner)
        else:
            found = callable(getattr(owner, name, None))
        if not found:
            missing.append(f"kljn.{module_name}.{attr}")
    assert missing == []
