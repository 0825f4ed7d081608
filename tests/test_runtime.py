"""``cosmix.runtime`` imports on every platform and counts the CPUs it
may use."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pool_workers_without_sched_getaffinity():
    # macOS and Windows have no os.sched_getaffinity: count every CPU there
    code = ("import os\n"
            "if hasattr(os, 'sched_getaffinity'):\n"
            "    del os.sched_getaffinity\n"
            "import cosmix\n"
            "print(cosmix.runtime.POOL_WORKERS, os.cpu_count())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    workers, cpus = map(int, proc.stdout.split())
    assert workers == min(2, cpus) - 1
