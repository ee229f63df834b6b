"""A point's result depends only on its spec, not on what ran before it.

Each case runs one point in a fresh interpreter, then in this process right
after a different point, and requires the same :class:`PointResult`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runner import PointSpec, execute_point

SRC = Path(__file__).resolve().parents[2] / "src"

_FRESH = """
import json, sys
from repro.runner import PointSpec, execute_point
r = execute_point(PointSpec(**json.loads(sys.argv[1])))
print(json.dumps([r.metrics, r.series, r.counters, r.event_count]))
"""

CASES = [
    # the qcow2 snapshot file name decides where PVFS places its metadata
    (dict(kind="snapshot", profile="quick", approach="qcow2-pvfs", n=4, seed=1),
     dict(kind="snapshot", profile="quick", approach="qcow2-pvfs", n=1, seed=1)),
    (dict(kind="snapshot", profile="quick", approach="mirror", n=4, seed=1),
     dict(kind="deploy", profile="quick", approach="mirror", n=1, seed=1)),
]


def _in_fresh_process(spec: dict) -> list:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", _FRESH, json.dumps(spec)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("spec, before", CASES, ids=["qcow2-pvfs-snapshot", "mirror-snapshot"])
def test_point_result_independent_of_earlier_points(spec, before):
    fresh = _in_fresh_process(spec)
    execute_point(PointSpec(**before))
    r = execute_point(PointSpec(**spec))
    # JSON round trip so tuples and int keys compare like the fresh copy
    assert json.loads(json.dumps([r.metrics, r.series, r.counters, r.event_count])) == fresh
