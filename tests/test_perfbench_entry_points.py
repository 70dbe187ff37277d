"""The benchmark traces the layers by wrapping named entry points of the
program; each must still exist, as an attribute of its own owner, and a solve
under each strategy must reach the spans the benchmark requires of it."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from support import PI1_DEFERRED_TEXT

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_traced_entry_point_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.ENTRY_POINTS
    for owner, attr, name in tracing.ENTRY_POINTS:
        assert attr in vars(owner), name


# Run in a subprocess: installing the tracer patches module attributes.
TRACED_SCRIPT = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from microasp import benchgen, parser, strategies

tracer = tracing.Tracer()
tracer.install()
kinds = ("full", "lazy", "eager", "post")
for kind in kinds:
    strategies.solve(parser.parse_program(sys.argv[2]), kind, seed=1)
tracing.check_required(tracer.summary(), kinds)

check = "strategies.ground_deferred_violations"
before = tracer.summary()[check]["calls"]
program = benchgen.gen_packing(4, 3, (2, 2))
result = strategies.solve(program, "lazy", seed=1)
print(json.dumps({
    "required_checked": kinds,
    "deferred": len(program.deferred),
    "status": result.status,
    "invalidations": result.stats.invalidations,
    "checks": tracer.summary()[check]["calls"] - before,
}))
"""


@pytest.fixture(scope="module")
def traced():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", TRACED_SCRIPT, str(TRACING), PI1_DEFERRED_TEXT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_traced_solves_reach_every_required_span(traced):
    assert traced["required_checked"] == ["full", "lazy", "eager", "post"]


def test_lazy_checks_once_per_total_candidate(traced):
    assert traced["deferred"] == 4
    assert traced["checks"] == traced["invalidations"] + (traced["status"] == "SAT")
