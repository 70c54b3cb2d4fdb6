"""Inputs and closed-loop drivers for the silstream benchmark workloads.

Every workload is built from the parameters in ``workloads.json`` and a
seed; the library sees only the generated features, references and models.
Streams are pushed closed-loop: the next batch goes in as soon as the
previous ``StreamSession.push`` returns, one stream at a time.

Nothing here installs tracing. A traced run passes an observer whose
callbacks open one root span per operation and wrap the model; the untraced
run uses ``NullObserver``.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import calibration
import silstream as ss
from silstream import synth, trainer

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.json")
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
LOSS_RTOL = 1e-9


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def load_expected() -> dict:
    """Recorded outputs per workload and seed (see ``record.py``)."""
    if not os.path.exists(EXPECTED_PATH):
        return {}
    with open(EXPECTED_PATH, encoding="utf-8") as f:
        return json.load(f)


class NullObserver:
    """Observer of the untraced run: no spans, no model wrapping."""

    def wrap_model(self, model):
        return model

    def op(self, kind: str, stream_id: int):
        """Context around one operation: a streamed decode, an offline decode or an epoch."""
        return contextlib.nullcontext()

    def stream_done(self, stream_id: int, session, result) -> None:
        pass


@dataclass
class Stream:
    stream_id: int
    seconds: float
    utt: ss.Utterance
    model: object


@dataclass
class Inputs:
    """Everything a workload needs, generated from its parameters and a seed."""

    name: str
    vocab: ss.Vocab
    streams: list[Stream] = field(default_factory=list)
    beam_cfg: ss.BeamConfig | None = None
    stream_cfg: ss.StreamConfig | None = None
    exact: bool = False  # the oracle's output must match the reference exactly
    model_cfg: ss.ModelConfig | None = None
    params0: dict | None = None
    examples: list = field(default_factory=list)
    train_cfg: ss.TrainConfig | None = None

    @property
    def audio_s(self) -> float:
        """Audio seconds one pass of the workload processes."""
        if self.streams:
            return sum(s.utt.features.duration_ms for s in self.streams) / 1000.0
        return sum(f.duration_ms for f, _ in self.examples) / 1000.0


def _synth_config(vocab: ss.Vocab, params: dict) -> ss.SynthConfig:
    return ss.SynthConfig(vocab=vocab, **params["synth"])


def _corpus_spec(params: dict) -> ss.CorpusSpec:
    c = dict(params["corpus"])
    for key in ("mid_silence_frames", "trail_silence_frames"):
        c[key] = tuple(c[key])
    return ss.CorpusSpec(**c)


def build_stream(cfg: ss.SynthConfig, spec: ss.CorpusSpec, seed: int, target_frames: int,
                 utt_id: str) -> ss.Utterance:
    """One long utterance of exactly ``target_frames`` frames.

    Corpus utterances are laid end to end (each one's trailing silence
    becomes a mid-stream pause) until the next would overrun the target;
    the remainder becomes trailing silence. The features are synthesized
    once for the whole stream, so the alignment is exact.
    """
    rng = np.random.default_rng(seed)
    tokens: list[int] = []
    layout: list[tuple[int, int]] = []
    total = 0
    pending = 0
    full = False
    while not full:
        corpus = synth.gen_corpus(cfg, spec, seed=int(rng.integers(2**31)))
        for utt in corpus.values():
            if total + utt.features.num_frames > target_frames:
                full = True
                break
            total += utt.features.num_frames
            for seg in utt.alignment.segments:
                if seg.is_silence:
                    pending += seg.length
                    continue
                if pending:
                    layout.append((len(tokens), pending))
                    pending = 0
                tokens.append(cfg.vocab.id_of(seg.label))
    pending += target_frames - total
    if pending:
        layout.append((len(tokens), pending))
    return synth.gen_utterance(cfg, seed=int(rng.integers(2**31)), tokens=tokens,
                               silence_layout=layout, utt_id=utt_id)


def setup(name: str, seed: int, spec: dict | None = None) -> Inputs:
    """Generate one workload's inputs and build or init its models."""
    spec = load_spec() if spec is None else spec
    params = spec["workloads"][name]
    vocab = ss.make_vocab([f"t{i}" for i in range(params["vocab_size"])])
    cfg = _synth_config(vocab, params)
    corpus_spec = _corpus_spec(params)
    if params["model"] == "train":
        # corpus utterances in order until the audio budget is spent, so every
        # seed trains on the same amount of audio
        budget = params["corpus_seconds"] * 1000
        examples = []
        for u in synth.gen_corpus(cfg, corpus_spec, seed=seed).values():
            budget -= u.features.duration_ms
            if budget < 0:
                break
            examples.append((u.features, [vocab.bos_id] + u.tokens + [vocab.eos_id]))
        model_cfg = ss.ModelConfig()
        return Inputs(
            name=name, vocab=vocab, model_cfg=model_cfg,
            params0=ss.init_params(model_cfg, vocab.size, seed=params["model_seed"]),
            examples=examples, train_cfg=ss.TrainConfig(**params["train"]),
        )

    neural = None
    if params["model"] == "neural":
        model_cfg = ss.ModelConfig()
        weights = ss.init_params(model_cfg, vocab.size, seed=params["model_seed"])
        weights["att.sel.r"][0] = params["selection_bias"]
        neural = ss.NeuralModel(model_cfg, weights, vocab, silence_aware=True)
    rng = np.random.default_rng(seed)
    streams = []
    for sid, seconds in enumerate(params["stream_seconds"]):
        frames = int(round(seconds * 1000 / cfg.frame_shift_ms))
        utt = build_stream(cfg, corpus_spec, int(rng.integers(2**31)), frames, f"stream{sid}")
        if neural is None:
            o = params["oracle"]
            model = synth.OracleModel(
                ss.OracleMode("silence_aware", sil_duration_encoded=o["sil_duration_encoded"],
                              min_silence_encoded=o["min_silence_encoded"]),
                vocab, utt.alignment, total_reduction=o["total_reduction"],
            )
        else:
            model = neural
        streams.append(Stream(sid, seconds, utt, model))
    s = spec["stream"]
    return Inputs(
        name=name, vocab=vocab, streams=streams,
        beam_cfg=ss.BeamConfig(beam_size=params["beam"], eos_policy=s["eos_policy"]),
        stream_cfg=ss.StreamConfig(batch_ms=s["batch_ms"], min_buffer_ms=s["min_buffer_ms"],
                                   sil_buffer_ms=s["sil_buffer_ms"]),
        exact=neural is None,
    )


def token_digest(tokens) -> str:
    return hashlib.sha256(",".join(str(int(t)) for t in tokens).encode("ascii")).hexdigest()[:16]


@dataclass
class StreamRecord:
    """One streamed decode: per-push wall times and what it produced."""

    stream_id: int
    seconds: float
    push_s: list[float]
    n_tokens: int
    pass_no: int


@dataclass
class Record:
    """Everything one measured run produced, across all its passes."""

    passes: int = 0
    attempted: int = 0
    failed: int = 0
    streams: list[StreamRecord] = field(default_factory=list)
    offline_s: list[tuple[int, int, float]] = field(default_factory=list)  # (stream id, pass, wall s)
    epoch_s: list[tuple[int, float]] = field(default_factory=list)  # (pass, wall s)
    speed: list[float] = field(default_factory=list)  # calibration factor of each pass, if calibrated
    epoch_audio_s: float = 0.0  # audio seconds in one epoch
    epoch_utts: int = 0
    losses: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    # first-pass tokens and CPL per stream, scored after the measured loop
    outputs: dict[int, tuple[list[int], float | None]] = field(default_factory=dict)
    cer: dict[int, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def _check_repeatable(rec: Record, key: str, value, recorded, problems: list[str]) -> None:
    """``value`` must match the output recorded for this seed, if any, and
    the same output from every earlier pass of this run."""
    if recorded is not None and value != recorded:
        problems.append(f"{key} {value} != recorded {recorded}")
    if rec.digests.setdefault(key, value) != value:
        problems.append(f"{key} {value} differs from an earlier pass of this run")


def _stream_pass(inputs: Inputs, rec: Record, observer, recorded: dict | None) -> None:
    vocab = inputs.vocab
    for stream in inputs.streams:
        sid = stream.stream_id
        feats = stream.utt.features
        batch = int(inputs.stream_cfg.batch_ms // feats.frame_shift_ms)
        n = feats.num_frames
        model = observer.wrap_model(stream.model)
        rec.attempted += 1
        try:
            with observer.op("stream", sid):
                session = ss.StreamSession(model, inputs.stream_cfg, inputs.beam_cfg,
                                           frame_shift_ms=feats.frame_shift_ms)
                push_s = []
                for lo in range(0, n, batch):
                    chunk = feats.frames[lo : lo + batch]
                    started = time.perf_counter()
                    session.push(chunk, is_last=lo + batch >= n)
                    push_s.append(time.perf_counter() - started)
                result = session.result()
            observer.stream_done(sid, session, result)
        except Exception:  # noqa: BLE001 - a failing operation is counted, not fatal
            rec.fail(f"stream {sid} raised:\n{traceback.format_exc()}")
            continue
        tokens = list(result.tokens)
        rec.streams.append(StreamRecord(sid, stream.seconds, push_s, len(tokens), rec.passes))
        if sid not in rec.outputs:
            latency = ss.cpl(result.display_log, stream.utt.alignment, feats.frame_shift_ms)
            rec.outputs[sid] = (tokens, latency.cpl_ms if latency.defined else None)
        problems = []
        if not tokens or tokens[0] != vocab.bos_id or tokens[-1] != vocab.eos_id:
            problems.append("streamed output is not framed by BOS ... EOS")
        _check_repeatable(rec, f"streamed[{sid}]", token_digest(tokens),
                          recorded and recorded["streamed"][sid], problems)
        if problems:
            rec.fail(f"stream {sid}: " + "; ".join(problems))

        rec.attempted += 1
        try:
            with observer.op("offline", sid):
                started = time.perf_counter()
                offline = ss.decode_offline(model, feats, inputs.beam_cfg)
                rec.offline_s.append((sid, rec.passes, time.perf_counter() - started))
        except Exception:  # noqa: BLE001
            rec.fail(f"offline {sid} raised:\n{traceback.format_exc()}")
            continue
        problems = []
        _check_repeatable(rec, f"offline[{sid}]", token_digest(offline.tokens),
                          recorded and recorded["offline"][sid], problems)
        # the paper's claim: with silence modeling and buffering the streamed
        # output equals the offline output
        if inputs.exact and list(offline.tokens) != tokens:
            problems.append("streamed tokens differ from decode_offline tokens")
        if problems:
            rec.fail(f"offline {sid}: " + "; ".join(problems))


def _epoch(inputs: Inputs, rec: Record, observer, recorded: dict | None) -> None:
    rec.attempted += 1
    try:
        with observer.op("epoch", 0):
            started = time.perf_counter()
            params, history = trainer.train(inputs.model_cfg, inputs.params0, inputs.vocab,
                                            inputs.examples, inputs.train_cfg)
            rec.epoch_s.append((rec.passes, time.perf_counter() - started))
    except Exception:  # noqa: BLE001
        rec.fail(f"epoch raised:\n{traceback.format_exc()}")
        return
    rec.epoch_audio_s = inputs.audio_s
    rec.epoch_utts = len(inputs.examples)
    problems = []
    loss = math.nan if history["diverged"] or not history["train_loss"] else history["train_loss"][-1]
    if math.isnan(loss):
        problems.append("training diverged")
    rec.losses.append(loss)
    for name, reference in (("recorded", recorded and recorded["loss"]), ("first pass", rec.losses[0])):
        if reference is not None and not abs(loss - reference) <= LOSS_RTOL * abs(reference):
            problems.append(f"final loss {loss!r} != {name} loss {reference!r}")
    if not all(np.all(np.isfinite(v)) for v in params.values()):
        problems.append("non-finite parameters")
    if problems:
        rec.fail("epoch: " + "; ".join(problems))


def _score(inputs: Inputs, rec: Record) -> None:
    """CER of each stream's first-pass output; later passes produced the same
    tokens, or the digest checks already failed them. The oracle is exact."""
    for sid, (tokens, _) in rec.outputs.items():
        report = ss.cer(inputs.streams[sid].utt.tokens, tokens, inputs.vocab)
        rec.cer[sid] = report.cer
        if inputs.exact and report.edits != 0:
            rec.fail(f"stream {sid}: CER {report.cer} is not 0")


def recorded_outputs(name: str, seed: int, expected: dict | None = None) -> dict | None:
    """The outputs recorded for this workload and seed, or None."""
    expected = load_expected() if expected is None else expected
    return expected.get(name, {}).get(str(seed))


def run_pass(inputs: Inputs, rec: Record, recorded: dict | None, observer=None) -> None:
    """One pass over every stream, or one epoch, with its output checks."""
    observer = NullObserver() if observer is None else observer
    if inputs.streams:
        _stream_pass(inputs, rec, observer, recorded)
    else:
        _epoch(inputs, rec, observer, recorded)
    rec.passes += 1


def finish(inputs: Inputs, rec: Record) -> None:
    """Read the peak RSS, then score the outputs and report failed checks."""
    # read before scoring: the CER alignment is the benchmark's work, not the workload's
    rec.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _score(inputs, rec)
    for message in rec.errors:
        print(f"CHECK FAILED {inputs.name}: {message}", file=sys.stderr)


def run(inputs: Inputs, seconds: float, seed: int, observer=None, expected: dict | None = None) -> Record:
    """Repeat whole passes over the workload until ``seconds`` have elapsed.

    Whole passes keep the mix of short and long streams the same in every
    run. ``expected`` holds recorded outputs keyed by workload and seed;
    seeds without a record are checked for determinism across passes. The
    calibration kernel runs before the first pass and after each one, so
    every pass has a speed factor (``calibration.py``).
    """
    recorded = recorded_outputs(inputs.name, seed, expected)
    rec = Record()
    clock = calibration.Clock(load_spec()["calibration"]["reference_s"])
    deadline = time.perf_counter() + seconds
    while rec.passes == 0 or time.perf_counter() < deadline:
        started = time.perf_counter()
        run_pass(inputs, rec, recorded, observer)
        rec.speed.append(clock.factor(time.perf_counter() - started))
    finish(inputs, rec)
    return rec
