"""A benchmark snapshot: the perfbench workloads, untraced and traced, the
per-token cost of streamed oracle decodes and the time of demo 04's sweep,
written as one JSON file.

    python3 tools/bench_snapshot.py --out BENCH_18.json
    python3 tools/bench_snapshot.py --compare BENCH_17.json BENCH_18.json

For every workload and seed given (default: every workload of BENCHMARK.json
on seeds 1 and 2) it runs ``perfbench/run.py`` in this checkout through
``bench_ab.run``, one process at a time: once untraced, for the end-to-end
metrics, and once traced, for the per-layer split. Each run keeps its final
JSON line and the host-speed factor of its results file under
``.perfbench_out/``. The per-layer metrics that the tracing hooks are known to
misread are listed under ``misread``, each with the reason.

Then, in this process, it streams silence-aware oracle streams laid out like
``stream_long``'s (10, 50 and 200 s of audio by default) at beam 1 and beam 8,
with ``perfbench/workloads.json``'s stream settings. For each it records the
decode time per committed token, the median over ``--repeats`` decodes, in
wall milliseconds and scaled to the reference host speed by the kernel of
``perfbench/calibration.py``, and for each beam the growth: the cost per token
on the longest stream over that on the shortest.

Last, in this process, it loads ``demos/04_latency_accuracy_tradeoff.py``
with ``runpy``, which builds the demo's corpus (seed 5, 12 utterances)
outside the timing, and runs the demo's ``run_sweep`` (its oracle and its
grid of four buffer settings) ``--repeats`` times. It records the median
time of one sweep in wall seconds and scaled to the reference host speed,
and the SHA-256 of the sweep's CSV, which the demo prints.

The file also holds the git SHA (and whether the tree had changes), the
machine (``perfbench/run.py``'s ``machine_info``) and the calibration factor
of the in-process timings (reference slice time over measured slice time).

``--compare OLD NEW`` prints, for every run and per-token row the two
snapshots share, each value in both and the relative change. Single runs are
indicative only: a performance claim needs ``tools/bench_ab.py``'s pairs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import runpy
import statistics
import subprocess
import sys
import time

import bench_ab

ROOT = bench_ab.ROOT
PERFBENCH = os.path.join(ROOT, "perfbench")
SCHEMA = 2
# per-layer metrics the tracing hooks misread, and why
MISREAD = {
    "attention.calls": "the mocha_infer_step hook counts only the rows that first_selections leaves undecided "
                       "(a window the buffer end cuts, or no energy >= 0 in the first window), not one call per "
                       "hypothesis step: 32 calls against 10,144 hypothesis steps on a stream_neural seed-1 pass",
    "attention.key_rows": "the mocha_infer_step hook counts the whole tail after prev_index per call, not the "
                          "rows the early-exit scan scores, and sees only the rows first_selections leaves "
                          "undecided (a cut first window or one without a crossing), not the stacked first "
                          "windows that decide nearly every row",
    "attention.key_rows_per_call": "attention.key_rows over the mocha_infer_step calls: both count only the "
                                   "undecided rows, and the rows as the whole tail",
    "attention.busy_s": "the mocha_infer_step hook times only the scans of the rows that first_selections leaves "
                        "undecided; the stacked first windows and their crossing decision (first_selections) "
                        "and the chunk stage (chunk_attend) run once per beam step outside it, so nearly all "
                        "of stream_neural's selection energies and all of its chunk energies, softmax and "
                        "context products are left out",
    "streamer.step_yield": "a retry that reuses a voided step counts as a computed step",
    "decoder.steps": "a retry that reuses a voided step counts as a decoder step, though neither the "
                     "model nor the ranking runs",
    "decoder.hyps_per_step": "a reused step's live hypotheses count as stepped",
    **dict.fromkeys(("model.calls", "model.busy_s", "model.stalled_frac"),
                    "ModelProxy times decode_step, but a decode calls decode_steps, which the proxy passes "
                    "through untimed, so it reads 0 on every traced run"),
    **dict.fromkeys(("nn.gru_calls", "nn.gru_busy_s"),
                    "the nn.gru_step hook sees only the trainer's one-row step, not the nn.gru_steps that "
                    "the encoder and a NeuralModel decode run, so it reads 0 on stream_neural and leaves "
                    "the encoder out on train_epoch"),
}


def _perfbench():
    """perfbench's run (machine info; importing it pins BLAS to one thread
    before numpy loads), calibration and workloads modules, with the library
    from this checkout's src/."""
    sys.path[:0] = [PERFBENCH, os.path.join(ROOT, "src")]
    import run as perfbench_run
    import calibration
    import workloads

    return perfbench_run, calibration, workloads


def git_state() -> dict:
    def git(*args):
        try:
            proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, check=False)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def benchmark_runs(workload_names, seeds, seconds) -> list[dict]:
    runs = []
    for workload in workload_names:
        for seed in seeds:
            for trace in (0, 1):
                result = bench_ab.run(ROOT, workload, seed, seconds, trace=trace)
                saved = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed{seed}-trace{trace}.json")
                try:
                    with open(saved, encoding="utf-8") as f:
                        quality = json.load(f)["quality"]
                except (OSError, ValueError, KeyError):
                    quality = {}
                host_speed = quality.get("host_speed", [None])[0]
                runs.append({"workload": workload, "seed": seed, "trace": trace, "host_speed": host_speed,
                             **result})
                print(f"# {workload} seed={seed} trace={trace} correct={result['correct']}", file=sys.stderr)
    return runs


def per_token(workloads, calibration, audio_seconds, beams, repeats, seed) -> tuple[list[dict], float]:
    """Per-token cost of oracle streams, and the mean calibration factor."""
    import silstream as ss

    spec = workloads.load_spec()
    params = spec["workloads"]["stream_long"]
    vocab = ss.make_vocab([f"t{i}" for i in range(params["vocab_size"])])
    synth_cfg, corpus_spec = workloads._synth_config(vocab, params), workloads._corpus_spec(params)
    oracle, stream = params["oracle"], spec["stream"]
    stream_cfg = ss.StreamConfig(batch_ms=stream["batch_ms"], min_buffer_ms=stream["min_buffer_ms"],
                                 sil_buffer_ms=stream["sil_buffer_ms"])
    clock = calibration.Clock(spec["calibration"]["reference_s"])
    rows, factors = [], []
    for audio_s in audio_seconds:
        frames = int(round(audio_s * 1000 / synth_cfg.frame_shift_ms))
        utt = workloads.build_stream(synth_cfg, corpus_spec, seed, frames, f"stream{audio_s:g}")
        model = ss.OracleModel(ss.OracleMode("silence_aware", oracle["sil_duration_encoded"],
                                             oracle["min_silence_encoded"]),
                               vocab, utt.alignment, total_reduction=oracle["total_reduction"])
        for beam in beams:
            beam_cfg = ss.BeamConfig(beam_size=beam, eos_policy=stream["eos_policy"])
            wall, scaled = [], []
            for _ in range(repeats):
                started = time.perf_counter()
                result, _ = ss.stream_decode(model, utt.features, stream_cfg, beam_cfg)
                wall.append(time.perf_counter() - started)
                factors.append(clock.factor(wall[-1]))
                scaled.append(wall[-1] * factors[-1])
            tokens = len(result.tokens) - 1
            rows.append({"beam": beam, "audio_s": audio_s, "tokens": tokens,
                         "ms_per_token": statistics.median(scaled) * 1e3 / tokens,
                         "ms_per_token_wall": statistics.median(wall) * 1e3 / tokens})
            print(f"# per-token beam={beam} audio_s={audio_s:g} {rows[-1]['ms_per_token']:.4g} ms", file=sys.stderr)
    return rows, statistics.mean(factors)


def demo_sweep(workloads, calibration, repeats) -> dict:
    """Demo 04's ``run_sweep``, timed over ``repeats`` runs; loading the demo
    builds its corpus, outside the timing."""
    demo = runpy.run_path(os.path.join(ROOT, "demos", "04_latency_accuracy_tradeoff.py"))
    clock = calibration.Clock(workloads.load_spec()["calibration"]["reference_s"])
    wall, scaled = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        rows = demo["run_sweep"]()
        wall.append(time.perf_counter() - started)
        scaled.append(wall[-1] * clock.factor(wall[-1]))
    print(f"# demo 04 sweep {statistics.median(scaled):.4g} s", file=sys.stderr)
    csv = demo["sweep_csv"](rows)
    return {"utterances": len(demo["corpus"]), "points": len(rows), "s": statistics.median(scaled),
            "wall_s": statistics.median(wall), "csv_sha256": hashlib.sha256(csv.encode()).hexdigest()}


def growth(rows: list[dict]) -> dict[str, float]:
    """Per beam: cost per token on the longest stream over that on the shortest."""
    out = {}
    for beam in sorted({r["beam"] for r in rows}):
        mine = sorted((r for r in rows if r["beam"] == beam), key=lambda r: r["audio_s"])
        out[str(beam)] = mine[-1]["ms_per_token"] / mine[0]["ms_per_token"]
    return out


def snapshot(args) -> dict:
    perfbench_run, calibration, workloads = _perfbench()
    runs = benchmark_runs(args.workload, args.seed, args.seconds)
    rows, factor = per_token(workloads, calibration, args.audio_s, args.beam, args.repeats, args.seed[0])
    return {
        "schema": SCHEMA,
        **git_state(),
        "machine": perfbench_run.machine_info(),
        "calibration": {"reference_s": workloads.load_spec()["calibration"]["reference_s"], "factor": factor},
        "settings": {"workloads": args.workload, "seeds": args.seed, "seconds": args.seconds,
                     "audio_s": args.audio_s, "beams": args.beam, "repeats": args.repeats},
        "runs": runs,
        "misread": MISREAD,
        "per_token": rows,
        "per_token_growth": growth(rows),
        "demo_sweep": demo_sweep(workloads, calibration, args.repeats),
    }


def values(snap: dict) -> dict[tuple, float]:
    """Every value of a snapshot, keyed by its run or per-token row and its name."""
    out = {}
    for r in snap["runs"]:
        for name, m in r["metrics"].items():
            out[r["workload"], f"seed{r['seed']}", f"trace{r['trace']}", name] = m["value"]
    for r in snap["per_token"]:
        out["per_token", f"beam{r['beam']}", f"{r['audio_s']:g}s", "ms_per_token"] = r["ms_per_token"]
    if "demo_sweep" in snap:  # from schema 2
        out["demo_sweep", "s"] = snap["demo_sweep"]["s"]
    return out


def compare(old: dict, new: dict) -> list[str]:
    """One line per value both snapshots hold: the old value, the new one and the change."""
    before = values(old)
    lines = []
    for key, value in values(new).items():
        if key in before:
            was = before[key]
            change = (value - was) / was if was else float("nan")
            lines.append(f"{' '.join(key):60s} {was:12.5g} {value:12.5g} {change:+8.1%}")
    return lines


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="the snapshot file to write, e.g. BENCH_18.json")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="print the changes between two snapshots")
    parser.add_argument("--workload", action="append", choices=names, help="repeat for several (default: all)")
    parser.add_argument("--seed", type=int, action="append", help="repeat for several (default: 1 and 2)")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"], help="seconds per benchmark run")
    parser.add_argument("--audio-s", type=float, action="append",
                        help="oracle stream seconds, repeat for several (default: 10, 50, 200)")
    parser.add_argument("--beam", type=int, action="append", help="repeat for several (default: 1 and 8)")
    parser.add_argument("--repeats", type=int, default=5, help="decodes per per-token row, and demo 04 sweeps")
    args = parser.parse_args(argv)
    if args.compare:
        snapshots = []
        for path in args.compare:
            with open(path, encoding="utf-8") as f:
                snapshots.append(json.load(f))
        print("\n".join(compare(*snapshots)))
        return 0
    if not args.out:
        parser.error("--out or --compare is required")
    args.workload = args.workload or names
    args.seed = args.seed or [1, 2]
    args.audio_s = args.audio_s or [10.0, 50.0, 200.0]
    args.beam = args.beam or [1, 8]
    snap = snapshot(args)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(snap, f, indent=1)
        f.write("\n")
    failed = [f"{r['workload']} seed={r['seed']} trace={r['trace']}" for r in snap["runs"] if not r["correct"]]
    for run in failed:
        print(f"FAIL {run} not correct")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
