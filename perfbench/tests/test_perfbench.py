"""Self-tests of the benchmark on tiny instances of each workload."""
from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), BENCH) if p not in sys.path]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

STREAMS = ("stream_long", "stream_neural")
ALL = STREAMS + ("train_epoch",)
SEED = 7


def tiny_spec() -> dict:
    spec = copy.deepcopy(workloads.load_spec())
    w = spec["workloads"]
    w["stream_long"]["stream_seconds"] = [3, 12]
    w["stream_neural"]["stream_seconds"] = [1, 4]
    w["train_epoch"]["corpus"]["num_utterances"] = 6
    return spec


def traced_run(name: str, hooks=tracing.HOOKS):
    probe = tracing.Probe(hooks=hooks)
    probe.install()
    try:
        with probe.tracer.span("bench.setup"):
            inputs = workloads.setup(name, SEED, tiny_spec())
        rec = workloads.run(inputs, 0, SEED, observer=probe, expected={})
    finally:
        probe.uninstall()
    return probe, rec


@pytest.mark.parametrize("name", ALL)
def test_spans_nest_and_self_times_add_up(name):
    probe, rec = traced_run(name)
    assert rec.failed == 0 and not probe.absent, (rec.errors, probe.problems)
    spans = probe.tracer.spans()
    assert spans and probe.tracer.dropped == 0 and not probe.tracer.stack
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        assert s["start"] <= s["end"]
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert s["parent"] < i
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            child_time[s["parent"]] += s["end"] - s["start"]
    own = [s["end"] - s["start"] - child_time[i] for i, s in enumerate(spans)]
    assert min(own) >= -1e-9
    root_of = []
    for s in spans:
        root_of.append(len(root_of) if s["parent"] < 0 else root_of[s["parent"]])
    for r, s in enumerate(spans):
        if s["parent"] < 0:
            subtree = sum(o for o, root in zip(own, root_of) if root == r)
            assert subtree == pytest.approx(s["end"] - s["start"], rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", STREAMS)
def test_steps_computed_are_kept_plus_voided(name):
    probe, rec = traced_run(name)
    m = probe.layer_metrics(rec, setups=1)
    assert m["streamer.steps_computed"] > 0 and m["streamer.steps_voided"] > 0
    assert m["streamer.steps_computed"] == m["streamer.steps_kept"] + m["streamer.steps_voided"]
    assert m["streamer.decisions.backtrack"] > 0


def test_layers_a_workload_bypasses_read_zero():
    probe, rec = traced_run("stream_long")
    long_metrics = probe.layer_metrics(rec, setups=1)
    assert all(v == 0 for k, v in long_metrics.items() if k.startswith(("attention.", "nn.", "trainer.")))
    probe, rec = traced_run("train_epoch")
    train_metrics = probe.layer_metrics(rec, setups=1)
    assert all(v == 0 for k, v in train_metrics.items() if k.startswith(("streamer.", "decoder.", "model.")))
    assert train_metrics["trainer.utts"] == 6 and train_metrics["attention.key_rows"] > 0


def test_missing_or_changed_hook_marks_only_its_layer_absent():
    hooks = tracing.HOOKS + (
        tracing.Hook("decoder.gone", "decoder", "silstream.decoder", "no_such_function", ("x",)),
        tracing.Hook("nn.changed", "nn", "silstream.nn", "softmax", ("params", "prefix")),
    )
    probe, rec = traced_run("stream_neural", hooks)
    assert rec.failed == 0
    assert probe.absent == {"decoder", "nn"}
    m = probe.layer_metrics(rec, setups=1)
    assert not any(k.startswith(("decoder.", "nn.")) for k in m)
    assert m["attention.key_rows"] > 0 and m["streamer.pushes"] > 0
    assert workloads.ss.decoder.decode_step is not None  # uninstall restored the originals
    assert not hasattr(workloads.ss.decoder.decode_step, "__wrapped__")


@pytest.mark.parametrize("name", ALL)
def test_same_seed_gives_identical_outputs(name):
    outputs = []
    for _ in range(2):
        rec = workloads.run(workloads.setup(name, SEED, tiny_spec()), 0, SEED, expected={})
        assert rec.failed == 0, rec.errors
        outputs.append((
            rec.digests,
            repr(rec.cer),
            repr([cpl for _, cpl in rec.outputs.values()]),
            repr(rec.losses),
        ))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", ("stream_long", "train_epoch"))
def test_calibrated_timings_scale_each_pass_by_its_factor(name):
    rec = workloads.run(workloads.setup(name, SEED, tiny_spec()), 0, SEED, expected={})
    assert rec.passes == len(rec.speed) == 1 and rec.speed[0] > 0
    rec.speed = [3.0]
    wall, calibrated = run.timings(rec, calibrated=False), run.timings(rec)
    assert calibrated.rtf == pytest.approx(3 * wall.rtf)
    assert calibrated.offline_rtf == pytest.approx(3 * wall.offline_rtf)
    assert calibrated.ops == pytest.approx([3 * t for t in wall.ops])


def test_recorded_output_mismatch_counts_as_failure():
    inputs = workloads.setup("train_epoch", SEED, tiny_spec())
    rec = workloads.run(inputs, 0, SEED, expected={"train_epoch": {str(SEED): {"loss": 1.0}}})
    assert rec.attempted == 1 and rec.failed == 1


def _cli(*args):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", os.path.join(BENCH, "run.py"), *args],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def test_result_line_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    common = ("--workload", "train_epoch", "--seed", "1", "--seconds", "0")
    plain, imports = _cli(*common, "--trace", "0")
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    # the untraced run never imports the hooks
    assert " tracing" not in imports and " silstream" in imports
    traced, _ = _cli(*common, "--trace", "1")
    assert traced["correct"]
    assert list(traced["metrics"]) == [m["name"] for m in bench["per_layer"]]


def test_counter_that_no_longer_fits_marks_its_layer_absent():
    def broken(args, kwargs, out, ctx):
        raise AttributeError("result changed shape")

    probe = tracing.Probe()
    wrapped = tracing.timed(probe.tracer, "nn.gru_step", lambda x: x + 1, after=broken,
                            on_error=lambda exc: probe._counter_failed("nn", "nn.gru_step", exc))
    assert wrapped(1) == 2
    assert probe.absent == {"nn"} and probe.tracer.stat("nn.gru_step")[0] == 1
