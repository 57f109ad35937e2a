"""fgn benchmark: one workload per run, end-to-end or traced per layer.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 50 --trace 0

The program is imported from the checkout's ``src/``. The last line of
standard output is the result object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it, prefixed ``perfbench``, repeats the result
with the environment, the workload-specific readings and any failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-small", "ingest-stride1")


def pin_blas_threads() -> int:
    """Pin BLAS/OpenMP to one thread, within the CPUs this process may use.

    On a shared 2-CPU machine a second BLAS thread made the train-small rates
    and the paper-shape forecast rates about twice as noisy from run to run,
    because it waits on a CPU that other tenants also use. Must run before
    NumPy is imported."""
    n = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, to tell commits apart without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(pinned: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "blas_threads_pinned": pinned,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT / "src" / "fgn"),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "fgn" / "__init__.py").is_file():
        print(f"error: no fgn sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    pinned = pin_blas_threads()
    sys.path.insert(0, str(src))
    import fgn
    if Path(fgn.__file__).resolve().parent != (src / "fgn").resolve():
        print(f"error: imported fgn from {fgn.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    env = environment(pinned)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run(fgn, args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for failure in result["failures"]:
        print(failure, file=sys.stderr)
    for name, m in {**result["readings"], **result["metrics"]}.items():
        print(f"{name:<32} {m['value']:>16.6g} {m['unit']}")
    print("perfbench " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, **result}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
