"""The seed-0 transcript digest of every benchmark workload equals the one
recorded in perfbench/README.md: a change that asks any other query, gets
any other answer or asks in any other order anywhere in the benchmark
fails here. Each workload's digest pass runs in its own interpreter, as
`python3 perfbench/sweep.py digest <workload> 0`; the four start at once."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def recorded_digests() -> dict[str, str]:
    """The README's seed-0 digest table, workload -> sha256."""
    section = (ROOT / "perfbench" / "README.md").read_text().split("### Transcript digest", 1)[1]
    return dict(re.findall(r"^\| `([\w-]+)` \| `([0-9a-f]{64})` \|$", section, re.M))


@pytest.fixture(scope="module")
def digest_passes():
    """One running `sweep.py digest <workload> 0` process per workload, all
    started at once; any still running at teardown is killed and reaped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    procs = {
        workload: subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "sweep.py"), "digest", workload, "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        )
        for workload in WORKLOADS
    }
    try:
        yield procs
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.communicate()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed0_digest_matches_the_readme(workload, digest_passes):
    expected = recorded_digests()[workload]
    proc = digest_passes[workload]
    stdout, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 0, stderr
    result = json.loads(stdout.splitlines()[-1])
    assert result["failures"] == []
    assert result["digest"] == expected
