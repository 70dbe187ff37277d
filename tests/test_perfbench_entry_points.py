"""The benchmark traces the layers by wrapping named entry points of the
program; each must still exist, as an attribute of its own owner."""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_entry_point_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.ENTRY_POINTS
    for owner, attr, name in tracing.ENTRY_POINTS:
        assert attr in vars(owner), name
