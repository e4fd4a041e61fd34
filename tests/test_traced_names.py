"""The traced benchmark run wraps names in the library by string.

perfbench/tracer.py lists every liebider function and method it wraps in
ENTRY_POINTS.  Deleting or renaming one of them in src/ breaks the traced
benchmark run; installing a Recorder here fails the test suite instead.
"""

import importlib.util
import os

import liebider
import liebider.cli  # noqa: F401  (the recorder wraps cli.main too)

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_resolves_and_is_restored():
    tracer = load_tracer()
    original = (liebider.upper_triangular, liebider.SparseMatrix.__init__)
    with tracer.Recorder():
        assert liebider.upper_triangular is not original[0]
    assert (liebider.upper_triangular, liebider.SparseMatrix.__init__) == original
