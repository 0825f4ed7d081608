"""Byte-identity of training outputs against a checked-in record.

``tools/output_digests.py`` trains baseline, mixup and cosmix on a small
synthetic corpus under an injected clock and prints the sha256 of the 24
files those runs write (``metrics.jsonl``, both checkpoints and the
export CSV, for two models and three modes). This test runs it at one
BLAS thread and compares every line with ``tests/data/output_digests.txt``,
so a silent change to any number training writes fails tier 1.

The digests depend on numpy, its BLAS and the CPU as well as on the code.
The record starts with that environment key; where the key differs, the
test skips and names the differing fields. CI's ``ubuntu-latest`` runners
will likely skip it.

Protocol for the record:

- a change that keeps every output bit leaves the file alone;
- a change to the numerics on purpose rewrites it with
  ``OPENBLAS_NUM_THREADS=1 python3 tools/output_digests.py >
  tests/data/output_digests.txt`` and lists every moved line, and why it
  moved, in CHANGES.md;
- any other edit of the file loosens this check.
"""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digests.py"
RECORD = ROOT / "tests" / "data" / "output_digests.txt"
N_DIGESTS = 24


def environment_key():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.environment_key()


def recorded_key(lines):
    return dict(line[2:].split(": ", 1) for line in lines
                if line.startswith("# ") and ": " in line)


def test_outputs_match_record():
    record = RECORD.read_text(encoding="utf-8").splitlines()
    want, have = recorded_key(record), environment_key()
    differ = [f"{field}: recorded {want.get(field)!r}, here {have[field]!r}"
              for field in have if want.get(field) != have[field]]
    if differ:
        pytest.skip("digests recorded in another environment: " + "; ".join(differ))
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), timeout=600)
    assert out.returncode == 0, out.stderr
    got = out.stdout.splitlines()
    assert len([line for line in record if not line.startswith("#")]) == N_DIGESTS
    moved = [f"{a}\n  now {b.split()[-1]}" for a, b in zip(record, got) if a != b]
    assert len(got) == len(record) and not moved, \
        "training outputs differ from tests/data/output_digests.txt:\n" + "\n".join(moved)
