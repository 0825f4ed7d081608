"""Benchmark for cosmix: one workload, one seed, one run.

    python3 bench/run.py --workload cosmix-b32 --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the run repeats rounds of the workload for about
``--seconds`` seconds with nothing wrapped, and reports the end-to-end
metrics. With ``--trace 1`` it runs the same round plain, with every
layer wrapped (see tracing.py), and plain again; checks that all three
computed the same numbers bit for bit; and reports the per-layer
metrics. Human-readable lines (environment, sample counts, check
failures) come first; the last line of standard output is the JSON
result. See bench/README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"  # per-run scratch, and the reference checkpoint cache


# ---------------------------------------------------------------------------
# environment

def _blas_threads():
    """OpenBLAS's own thread count, or None when it cannot be asked."""
    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_revision(root):
    """HEAD's commit read from .git without running git; None outside a clone."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _steal_s():
    """CPU time the hypervisor gave to other guests, summed over CPUs
    since boot (the steal column of /proc/stat); None where unavailable."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment():
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "git_revision": _git_revision(ROOT),
            "loadavg_before": os.getloadavg(), "steal_s_before": _steal_s()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cosmix" / "__init__.py").is_file():
        print(f"cosmix sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import measure
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    env = environment()
    workdir = WORK / f"{wl.name}-{os.getpid()}"
    try:
        if args.trace:
            run, values, info = measure.measure_traced(wl, args.seed, workdir, WORK)
            units = measure.PER_LAYER
        else:
            run, values, info = measure.measure(wl, args.seed, args.seconds, workdir, WORK)
            units = measure.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    before, after = env.pop("steal_s_before"), _steal_s()
    env["steal_s_during"] = None if None in (before, after) else after - before

    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps({"workload": wl.name, "seed": args.seed, **info},
                               sort_keys=True))
    for note in run.notes:
        print("FAILED " + note)
    for name, unit in units.items():
        if name in values:
            value, n = values[name]
            print(f"{name} {value:.6g} {unit} (n={n})")
    if not values:
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                          "failed": max(run.failed, 1), "metrics": {}}))
        return 1
    metrics = {name: {"value": float(values[name][0]), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # one BLAS thread, set before numpy loads: a single busy thread can move
    # off a CPU the hypervisor is taking time from, while two threads that
    # meet at every GEMM both wait for the slower CPU, which made rates on
    # a shared 2-core machine swing more than a regression bound allows
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # a terminated run unwinds like an exception, so its clean-up and the
    # reference trainer's kill-and-wait (measure.py) still happen
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
