"""The benchmark tracer, ``perfbench/tracer.py``, read from its file: the tests that check the names it wraps."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    """The module ``perfbench/tracer.py``, read from the file without running a benchmark."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer
