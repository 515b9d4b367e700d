"""The benchmark worker's answers at seed 77, pinned by their digests.

perfbench/worker.py hashes the repr of the result of every timed operation
of a pass.  These are the digests of one shift-sweep and one large-m pass at
seed 77, so a change to any answer those operations return (an interval, a
witness shift, a cover report, a periodicity class) fails here.  Each pass
runs in a fresh interpreter, as perfbench/run.py runs it, on the seeded
input files that run.py writes, here written to a temporary directory;
nothing under perfbench/ is written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import inputs  # noqa: E402
import run  # noqa: E402

SEED = 77
DIGESTS = {
    "shift-sweep": "4ca748b6c72ad4a2fc07e8c13d47ec6d06c246495c723f2665d622159c9d3de0",
    "large-m": "c076a1effe258a02c3bd38996e439d8c0265a294ef1bc87665f1459d5508bee1",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_worker_digest_at_seed_77(workload, tmp_path):
    for name in run.WORKLOAD_FILES[workload]:
        rows, _ = run.FILES[name]
        (tmp_path / f"{name}.json").write_text(inputs.arrangement_file(name, rows(SEED)))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), workload, str(tmp_path), str(SEED)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    failed = [row for row in result["ops"] + result["checks"] if row["error"]]
    assert not failed
    assert result["digest"] == DIGESTS[workload]
