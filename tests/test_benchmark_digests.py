"""The seed-0 transcript digest of every benchmark workload equals the one
recorded in perfbench/README.md: a change that asks any other query, gets
any other answer or asks in any other order anywhere in the benchmark
fails here. Each workload's digest pass runs in its own interpreter, as
`python3 perfbench/sweep.py digest <workload> 0`."""
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


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed0_digest_matches_the_readme(workload):
    expected = recorded_digests()[workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "sweep.py"), "digest", workload, "0"],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    assert result["digest"] == expected
