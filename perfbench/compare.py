"""Run and judge parent/change pairs of the fgn benchmark.

    python3 perfbench/compare.py pairs --parent ../fgn-parent --change . \\
        --workload train-small --seconds 30 --logs pair-logs
    python3 perfbench/compare.py report pair-logs

``pairs`` runs ten pairs of the benchmark in two source checkouts that hold
the same ``perfbench/`` files, alternating which side runs first; pair ``i``
uses seed ``i`` on both sides. Each run's standard output is kept as
``<logs>/<workload>.<pair>.<side>.txt``.

``report`` reads those logs and prints, per workload and end-to-end metric,
each side's median and quartiles, the share of pairs the change won, and a
verdict:

  gain        the change won at least 9 of 10 pairs (ties count for neither)
              and the medians differ by more than the parent's quartile spread
  regression  the change's median is worse than the parent's by more than the
              metric's bound in BENCHMARK.json
  unresolved  the parent's quartile spread exceeds the bound, unless every
              change run beat every parent run
  same        none of the above

A pair whose two runs recorded different environments (numpy, BLAS, BLAS
threads, CPU count, Python) is flagged and left out of the verdicts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import source_digest

HERE = Path(__file__).resolve().parent
PAIRS = 10
ENV_KEYS = ("numpy", "blas", "blas_threads", "cpu_count", "cpu_affinity", "python")


def run_pairs(args) -> int:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    digests = {source_digest(path / "perfbench") for path in sides.values()}
    if len(digests) != 1:
        print("error: the two checkouts hold different perfbench/ files", file=sys.stderr)
        return 2
    logs = Path(args.logs)
    logs.mkdir(parents=True, exist_ok=True)
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(pair), "--seconds", str(args.seconds),
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True,
                                 timeout=600)
            (logs / f"{args.workload}.{pair}.{side}.txt").write_text(out.stdout)
            status = "ok" if out.returncode == 0 else f"exit {out.returncode}"
            print(f"pair {pair} {side}: {status}", flush=True)
    return 0


def load_result(path: Path) -> dict | None:
    for line in reversed(path.read_text().splitlines()):
        if line.startswith("perfbench "):
            return json.loads(line[len("perfbench "):])
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], wins: int, pairs: int,
            bound: float, higher_better: bool) -> str:
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    worse = (pm - cm) if higher_better else (cm - pm)
    if worse > bound * pm:
        return "regression"
    if wins >= 0.9 * pairs and abs(cm - pm) > p3 - p1:
        return "gain"
    all_better = (min(change) > max(parent)) if higher_better else (max(change) < min(parent))
    if (p3 - p1) > bound * pm and not all_better:
        return "unresolved"
    return "same"


def report(args) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs: dict[tuple[str, int], dict[str, dict]] = {}
    for path in sorted(Path(args.logs).glob("*.txt")):
        workload, pair, side = path.stem.rsplit(".", 2)
        result = load_result(path)
        if result is not None:
            runs.setdefault((workload, int(pair)), {})[side] = result
    for workload in sorted({w for w, _ in runs}):
        pairs = [r for (w, _), r in sorted(runs.items()) if w == workload
                 and {"parent", "change"} <= set(r)]
        usable = []
        for r in pairs:
            env_p = {k: r["parent"]["env"].get(k) for k in ENV_KEYS}
            env_c = {k: r["change"]["env"].get(k) for k in ENV_KEYS}
            if env_p != env_c:
                print(f"{workload} seed {r['parent']['seed']}: environments differ "
                      f"({env_p} vs {env_c}); pair left out")
            else:
                usable.append(r)
        failed = sum(r[s]["failed"] for r in usable for s in ("parent", "change"))
        print(f"\n{workload}: {len(usable)} pairs, {failed} failed operations")
        if len(usable) < PAIRS:
            print("  fewer than ten pairs: run more before claiming anything")
        for name, m in metrics.items():
            higher = m["better"] == "higher"
            par = [r["parent"]["metrics"][name]["value"] for r in usable]
            chg = [r["change"]["metrics"][name]["value"] for r in usable]
            if not par:
                continue
            wins = sum((c > p) if higher else (c < p) for p, c in zip(par, chg))
            p1, pm, p3 = quartiles(par)
            c1, cm, c3 = quartiles(chg)
            v = verdict(par, chg, wins, len(usable), m["bound"], higher)
            print(f"  {name:<18} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                  f"change {cm:.6g} [{c1:.6g}, {c3:.6g}] {m['unit']}  "
                  f"change won {wins}/{len(usable)}  {v}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    s = sub.add_parser("pairs", help="run alternating parent/change pairs")
    s.add_argument("--parent", required=True)
    s.add_argument("--change", required=True)
    s.add_argument("--workload", required=True)
    s.add_argument("--seconds", type=float, required=True)
    s.add_argument("--logs", required=True)
    s.set_defaults(func=run_pairs)
    r = sub.add_parser("report", help="judge the pairs kept under a log directory")
    r.add_argument("logs")
    r.set_defaults(func=report)
    args = p.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
