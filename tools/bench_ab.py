"""A/B runs of the benchmark: a git revision against the working tree.

    python3 tools/bench_ab.py --rev HEAD --workload train_epoch --seed 1 --seed 2 --pairs 10

The revision is unpacked with ``git archive`` into a temporary directory. For
every workload and seed given, each pair runs ``perfbench/run.py --workload W
--seed S --seconds T --trace 0`` once in that checkout and once in the working
tree, one process at a time, alternating which side runs first. For every
end-to-end metric declared in the working tree's BENCHMARK.json it prints, per
workload and seed, each side's median [quartiles], the relative change of the
medians, the pairs the working tree wins (ties count for neither side),
whether a gain is shown (at least nine tenths of the pairs won and medians
further apart than the revision's quartile spread) and a no-regression
verdict against the metric's bound, a fraction of the revision's median:
``worse`` when the working tree's median is worse by more than the bound,
``unresolved`` when the revision's quartile spread is wider than the bound
and not every working-tree run beats every revision run, else ``ok``. It
ends with each side's correct runs and failed operations.

It exits with status 1 when the working tree fails the no-regression rule on
any workload and seed: a working-tree run is not correct, an operation
failed, or a metric's verdict is ``worse``; each ``FAIL`` line names the
workload and seed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unpack(rev: str, dest: str) -> str:
    """Extract ``rev`` into ``dest``; returns its short SHA."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", rev], stdout=subprocess.PIPE,
                         text=True, check=True).stdout.strip()
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return sha


def run(checkout: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run, untraced unless ``trace`` is 1; its final JSON line,
    or a failed run if it printed none."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(metric: dict, old: list[dict], new: list[dict]) -> str:
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [(o["metrics"][name]["value"], n["metrics"][name]["value"]) for o, n in zip(old, new)
             if name in o["metrics"] and name in n["metrics"]]
    if not pairs:
        return f"{name:12s} (missing)"
    olds, news = [o for o, _ in pairs], [n for _, n in pairs]
    (oq1, om, oq3), (nq1, nm, nq3) = quartiles(olds), quartiles(news)
    wins = sum((n < o) if lower else (n > o) for o, n in pairs)
    change = (nm - om) / om if om else float("nan")
    gain = wins >= 0.9 * len(pairs) and abs(nm - om) > oq3 - oq1
    bound = metric["bound"] * abs(om)
    if (nm - om if lower else om - nm) > bound:
        verdict = "worse"
    elif oq3 - oq1 > bound and not (max(news) < min(olds) if lower else min(news) > max(olds)):
        verdict = "unresolved"
    else:
        verdict = "ok"
    old_cell, new_cell = f"{om:.4g} [{oq1:.4g}, {oq3:.4g}]", f"{nm:.4g} [{nq1:.4g}, {nq3:.4g}]"
    return (f"{name:12s} {metric['unit']:5s} {old_cell:>30s}   {new_cell:>30s}   {change:+7.1%}"
            f"   {wins:>2d}/{len(pairs):<2d}  {'yes' if gain else 'no':4s}   {verdict}")


def summarize(bench: dict, runs: dict[str, list[dict]]) -> tuple[list[str], list[str]]:
    """One workload's summary lines (a line per end-to-end metric, then one
    per side), and why the working tree fails the no-regression rule: empty
    when it passes."""
    lines = [compare(metric, runs["rev"], runs["tree"]) for metric in bench["end_to_end"]]
    reasons = [f"{line.split()[0]} is worse" for line in lines if line.split()[-1] == "worse"]
    for side in ("rev", "tree"):
        correct = sum(r["correct"] for r in runs[side])
        failed, attempted = (sum(r[k] for r in runs[side]) for k in ("failed", "attempted"))
        lines.append(f"{side:4s}: {correct}/{len(runs[side])} runs correct, {failed}/{attempted} operations failed")
    # the loop ends on the working tree's counts
    if correct < len(runs["tree"]):
        reasons.append(f"{len(runs['tree']) - correct} of {len(runs['tree'])} working-tree runs not correct")
    if failed:
        reasons.append(f"{failed} working-tree operations failed")
    return lines, reasons


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="the git revision to compare the working tree against")
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]],
                        help="repeat for several (default: every workload)")
    parser.add_argument("--seed", type=int, action="append",
                        help="repeat for several, e.g. the primary and hold-out seeds (default: 1)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workdir", default=None, help="where to unpack the revision (default: the system temp)")
    args = parser.parse_args(argv)
    failures = []
    with tempfile.TemporaryDirectory(dir=args.workdir) as checkout:
        sha = unpack(args.rev, checkout)
        for workload in args.workload or [w["name"] for w in bench["workloads"]]:
            for seed in args.seed or [1]:
                runs: dict[str, list[dict]] = {"rev": [], "tree": []}
                for i in range(args.pairs):
                    order = ("rev", "tree") if i % 2 == 0 else ("tree", "rev")
                    for side in order:
                        result = run(checkout if side == "rev" else ROOT, workload, seed, args.seconds)
                        runs[side].append(result)
                        rtf = result["metrics"].get("rtf", {}).get("value", float("nan"))
                        print(f"# {workload} seed={seed} pair {i + 1} {side:4s} rtf={rtf:.5g} "
                              f"correct={result['correct']}", file=sys.stderr)
                print(f"\n{workload} seed={seed} pairs={args.pairs} seconds={args.seconds:g}: "
                      f"rev {args.rev} ({sha}) against the working tree")
                print(f"{'metric':12s} {'unit':5s} {'rev median [q1, q3]':>30s}   {'tree median [q1, q3]':>30s}"
                      f"   {'change':>7s}   wins   gain   verdict")
                lines, reasons = summarize(bench, runs)
                print("\n".join(lines))
                failures += [f"{workload} seed={seed}: {reason}" for reason in reasons]
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
