"""Run the quick demos end to end; demo 05 trains and is left out."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_features_walkthrough.py",
                                  "02_mixup_and_augment.py",
                                  "03_autodiff_gradcheck.py",
                                  "04_low_resource_trimming.py"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    temp_dir = tmp_path / "tmp"  # demo 04's corpus goes here and must be gone after
    temp_dir.mkdir()
    env["TMPDIR"] = str(temp_dir)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(temp_dir.iterdir()) == []
