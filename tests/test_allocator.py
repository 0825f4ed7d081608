"""Importing cosmix makes glibc's malloc keep a training step's freed
scratch for the next step, unless the caller tuned malloc itself."""
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# three default-encoder forward and backward passes at batch 64; prints the
# minor page faults of the third and the GLIBC_TUNABLES that cosmix saw
STEPS = """
import json, os, resource
import numpy as np
import cosmix
from cosmix import autodiff as ad, model as md
params = md.init_params(md.ModelConfig())
feats = np.random.default_rng(0).normal(size=(64, 98, 64)).astype(np.float32)
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    params.zero_grad()
    with ad.Tape():
        ad.backward(ad.sum_all(md.encoder_forward(feats, params)))
print(json.dumps({"faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before,
                  "tunables": os.environ.get("GLIBC_TUNABLES")}))
"""

pytestmark = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the policy applies to glibc's malloc only")


def third_step(**settings):
    env = {name: value for name, value in os.environ.items()
           if name != "GLIBC_TUNABLES" and not name.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env.update(settings)
    proc = subprocess.run([sys.executable, "-c", STEPS], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_third_step_reuses_freed_memory():
    # glibc's defaults re-fault about 10,000 pages (40 MB) in every step
    assert third_step()["faults"] < 1000


@pytest.mark.parametrize("settings", [
    {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"},
    {"MALLOC_MMAP_THRESHOLD_": "131072"}], ids=["GLIBC_TUNABLES", "MALLOC_"])
def test_callers_malloc_setting_wins(settings):
    # a fixed 128 KiB mmap threshold maps and faults every large array afresh
    step = third_step(**settings)
    assert step["faults"] >= 1000
    assert step["tunables"] == settings.get("GLIBC_TUNABLES")
