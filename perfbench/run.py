"""The silstream benchmark.

    python3 perfbench/run.py --workload stream_long --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                  # every workload, untraced then traced

With ``--workload`` it runs one workload in this process: it sets up the
inputs at least five times and for at least one second (``setup_s`` is the
median), repeats whole passes over
them for ``--seconds``, checks every output, prints each metric by name with
its unit and sample count, and ends with one JSON line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
traced run alternates untraced and traced passes, so it can also report the
tracing overhead. Untraced timings are scaled to the reference host speed
by the kernel in ``calibration.py``; wall-clock values are saved beside
them. Full results, machine info and (traced) spans go to
``.perfbench_out/`` at the root of the checkout.

Without ``--workload`` it runs every workload, each in its own process,
untraced and traced, and prints a summary.

The library is imported from ``src/`` of the checkout this file sits in,
and BLAS is pinned to one thread before numpy loads.
"""
from __future__ import annotations

import os
import sys

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("stream_long", "stream_neural", "train_epoch")


def _import_library():
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import silstream

    if not os.path.abspath(silstream.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"silstream was imported from {silstream.__file__}, not from {SRC}")


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def medians(samples) -> dict:
    """Median time of each operation position over the passes of a run.

    Every pass repeats the same operations, so each position (a stream's
    n-th push, a stream's offline decode, the epoch) has one time per pass.
    Its median keeps the spread of the workload across positions and drops
    one-off stalls of the machine.
    """
    times: dict = {}
    for position, seconds in samples:
        times.setdefault(position, []).append(seconds)
    return {position: statistics.median(v) for position, v in times.items()}


@dataclass
class Timings:
    ops: list[float]  # per-position median of the workload's operation
    finals: list[float]  # the same for each stream's last push
    samples: int  # operations timed, over all passes
    rtf: float
    offline_rtf: float
    offline_samples: int


def timings(rec, calibrated: bool = True) -> Timings:
    """A stream workload's operation is one ``StreamSession.push`` and its
    whole-input path is ``decode_offline``. On ``train_epoch`` the operation
    is one ``train`` epoch, which is also its whole-input path.

    ``calibrated`` scales each pass's times by its speed factor, giving
    seconds at the reference speed (``calibration.py``); otherwise, or for a
    run without factors, they are wall seconds."""
    speed = rec.speed if calibrated and rec.speed else [1.0] * rec.passes
    if not rec.streams:
        epoch = statistics.median(t * speed[p] for p, t in rec.epoch_s)
        n = len(rec.epoch_s)
        return Timings([epoch], [epoch], n, epoch / rec.epoch_audio_s, epoch / rec.epoch_audio_s, n)
    audio = sum({s.stream_id: s.seconds for s in rec.streams}.values())
    pushes = medians(((s.stream_id, i), t * speed[s.pass_no]) for s in rec.streams
                     for i, t in enumerate(s.push_s))
    last = {s.stream_id: len(s.push_s) - 1 for s in rec.streams}
    offline = medians((sid, t * speed[p]) for sid, p, t in rec.offline_s)
    return Timings(
        ops=list(pushes.values()),
        finals=[pushes[sid, i] for sid, i in last.items()],
        samples=sum(len(s.push_s) for s in rec.streams),
        rtf=sum(pushes.values()) / audio,
        offline_rtf=sum(offline.values()) / audio,
        offline_samples=len(rec.offline_s),
    )


def end_to_end(rec, setup_s: list[float], calibrated: bool = True) -> dict[str, tuple[float, str, int]]:
    """(value, unit, sample count) of every end-to-end metric; timings in
    seconds at the reference speed, or in wall seconds if not ``calibrated``."""
    t = timings(rec, calibrated)
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "rtf": (t.rtf, "s/s", t.samples),
        "offline_rtf": (t.offline_rtf, "s/s", t.offline_samples),
        "op_ms_p50": (statistics.median(t.ops) * 1e3, "ms", t.samples),
        "op_ms_p95": (percentile(t.ops, 95) * 1e3, "ms", t.samples),
        "peak_rss_mb": (rec.peak_rss_mb, "MB", 1),
    }


def quality(rec) -> dict[str, tuple[float, str, int]]:
    """Metrics printed but not gated: quality and failures are checked
    outputs, on the random neural model the final push swings several
    fold from seed to seed, and ``host_speed`` is the median speed factor."""
    out = {"failed_frac": (rec.failed / rec.attempted, "frac", rec.attempted)}
    if rec.speed:
        out["host_speed"] = (statistics.median(rec.speed), "x", len(rec.speed))
    if rec.streams:
        out["final_ms_p50"] = (statistics.median(timings(rec).finals) * 1e3, "ms", len(rec.streams))
    if rec.cer:
        cpls = [c for _, c in rec.outputs.values() if c is not None]
        out["cer"] = (statistics.mean(rec.cer.values()), "frac", len(rec.cer))
        out["cpl_ms"] = (statistics.mean(cpls) if cpls else float("nan"), "ms", len(cpls))
    if rec.epoch_s:
        out["train_utt_per_s"] = (rec.epoch_utts / timings(rec).ops[0], "1/s", len(rec.epoch_s))
    return out


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in PINNED},
        "git_sha": git_sha(),
    }


def thread_count() -> int:
    """Threads of this process, native ones included where /proc shows them."""
    try:
        with open("/proc/self/status", encoding="utf-8") as f:
            return next(int(line.split()[1]) for line in f if line.startswith("Threads:"))
    except (OSError, StopIteration):
        import threading

        return threading.active_count()


def git_sha() -> str | None:
    """HEAD of the checkout; None outside a git repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import workloads

    spec = workloads.load_spec()
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "params": spec["workloads"][name], "stream": spec["stream"], "machine": machine_info()}

    if not traced:
        import calibration

        clock = calibration.Clock(spec["calibration"]["reference_s"])
        setup_s, setup_wall = [], []
        while len(setup_s) < spec["setup_repeats"] or sum(setup_wall) < spec["setup_min_s"]:
            started = time.perf_counter()
            inputs = workloads.setup(name, seed, spec)
            setup_wall.append(time.perf_counter() - started)
            setup_s.append(setup_wall[-1] * clock.factor(setup_wall[-1]))
        rec = workloads.run(inputs, seconds, seed)
        metrics = end_to_end(rec, setup_s)
        wall = {f"{k}_wall": v for k, v in end_to_end(rec, setup_wall, calibrated=False).items()
                if k != "peak_rss_mb"}
        result.update(passes=rec.passes, quality={**quality(rec), **wall}, errors=rec.errors,
                      threads_after_run=thread_count())
        attempted, failed = rec.attempted, rec.failed
    else:
        import tracing

        probe = tracing.Probe()
        untraced, rec = workloads.Record(), workloads.Record()
        recorded = workloads.recorded_outputs(name, seed)
        probe.install()
        try:
            with probe.tracer.span("bench.setup"):
                inputs = workloads.setup(name, seed, spec)
        finally:
            probe.uninstall()
        # untraced and traced passes alternate, so drift of the machine's
        # speed cancels out of the overhead
        deadline = time.perf_counter() + seconds
        while rec.passes == 0 or time.perf_counter() < deadline:
            workloads.run_pass(inputs, untraced, recorded)
            probe.install()
            try:
                workloads.run_pass(inputs, rec, recorded, observer=probe)
            finally:
                probe.uninstall()
        workloads.finish(inputs, untraced)
        workloads.finish(inputs, rec)
        layers = probe.layer_metrics(rec, setups=1)
        overhead = busy_per_audio_s(rec) / busy_per_audio_s(untraced) - 1.0
        metrics = {k: (v, tracing.unit_of(k), rec.passes) for k, v in layers.items()}
        metrics["trace.overhead_frac"] = (overhead, "frac", rec.passes)
        os.makedirs(OUT, exist_ok=True)
        probe.tracer.write(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"))
        result.update(passes=rec.passes, quality=quality(rec), errors=untraced.errors + rec.errors,
                      absent_layers=sorted(probe.absent), hook_problems=probe.problems,
                      spans_kept=len(probe.tracer.span_name), spans_dropped=probe.tracer.dropped)
        attempted, failed = untraced.attempted + rec.attempted, untraced.failed + rec.failed
    result.update(metrics={k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
                  attempted=attempted, failed=failed)
    return result


def busy_per_audio_s(rec) -> float:
    """All timed work per audio second: the base of the tracing overhead."""
    t = timings(rec, calibrated=False)
    return t.rtf + t.offline_rtf if rec.streams else t.rtf


def report(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} passes={result['passes']}")
    print("# machine " + json.dumps(result["machine"], sort_keys=True))
    rows = dict(result["metrics"])
    rows.update({k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in result["quality"].items()})
    for key, m in rows.items():
        print(f"{key:32s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
    for problem in result.get("hook_problems", []):
        print(f"# hook skipped: {problem}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced then traced."""
    summary = {}
    status = 0
    for name in WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                status = proc.returncode
                continue
            summary[f"{name}/trace{traced}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("\n# summary (end-to-end from untraced runs; overhead from traced runs)")
    for name in WORKLOADS:
        plain, traced = summary.get(f"{name}/trace0"), summary.get(f"{name}/trace1")
        if plain:
            cells = " ".join(f"{k}={m['value']:.4g}{m['unit']}" for k, m in plain["metrics"].items())
            print(f"{name:14s} correct={plain['correct']} failed={plain['failed']}/{plain['attempted']} {cells}")
        if traced:
            print(f"{'':14s} tracing overhead {traced['metrics']['trace.overhead_frac']['value']:+.1%}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"summary-seed{seed}.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_library()
    import workloads

    seed = workloads.load_spec()["seeds"]["primary"] if args.seed is None else args.seed
    if args.workload is None:
        return run_all(seed, args.seconds)

    result = run_one(args.workload, seed, args.seconds, bool(args.trace))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()},
    }))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
