"""Asynchronous beam-search decoding over a (possibly partial) encoded buffer.

Decoding is asynchronous: it terminates by emitting the end symbol, not by
exhausting input, so online operation needs explicit policies for end
symbols that arrive while audio is still streaming:

* ``accept``: take the end symbol at face value (the failure-prone baseline);
  when every hypothesis stalls for lack of selectable frames, the baseline
  still takes one forced step per batch at the buffer edge.
* ``restart``: accept it, log a restart, and begin a fresh hypothesis once
  the next batch arrives; segment outputs are concatenated. The restarted
  hypothesis attaches at the live edge of the stream, so audio arriving
  within the one-batch restart window is never decoded.
* ``defer``: while a silence-aware model still has audio ahead, the end
  symbol may not finish a hypothesis at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .attention import AttentionState, AttentionStepResult
from .data import FeatureSequence, ms_to_encoded_frames, ms_to_frames
from .model import StepOutput
from .vocab import Vocab, strip_nonscoring

EOS_POLICIES = ("defer", "restart", "accept")


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int = 8
    cap_base: int = 8
    cap_per_frame: int = 2
    eos_policy: str = "defer"

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.cap_base < 1 or self.cap_per_frame < 0:
            raise ValueError("token cap must be positive")
        if self.eos_policy not in EOS_POLICIES:
            raise ValueError(f"eos_policy must be one of {EOS_POLICIES}")

    def max_tokens(self, encoded_frames: int) -> int:
        return self.cap_base + self.cap_per_frame * encoded_frames


def _reserve(store: np.ndarray, used: int, rows: int, width: int) -> np.ndarray:
    """``store`` if it has room for ``rows`` rows, else a copy of its first
    ``used`` rows with room for twice as many, so appends copy amortised O(1)."""
    if store.shape[0] >= rows:
        return store
    grown = np.empty((2 * rows, width))
    if used:
        grown[:used] = store[:used]
    return grown


class EncodedBuffer:
    """Append-only store of encoded frames shared by all hypotheses.

    Frames live in a preallocated array that doubles when full. The attention
    key terms of each frame are computed once, the first time the model
    decoding over the buffer asks for them, and kept the same way.
    """

    def __init__(self):
        self._rows = np.zeros((0, 0))
        self._n = 0
        self._keys = (np.zeros((0, 0)), np.zeros((0, 0)))
        self._projected = 0

    def append(self, encoded: np.ndarray) -> None:
        if encoded.size == 0:
            return
        n = self._n + encoded.shape[0]
        self._rows = _reserve(self._rows, self._n, n, encoded.shape[1])
        self._rows[self._n : n] = encoded
        self._n = n

    def __len__(self) -> int:
        return self._n

    @property
    def array(self) -> np.ndarray:
        return self._rows[: self._n]

    def keys(self, project) -> tuple[np.ndarray, np.ndarray]:
        """Key terms of every frame; ``project`` maps frame rows to the pair of
        key-term rows and runs only on frames not projected before."""
        done, n = self._projected, self._n
        if done < n:
            fresh = project(self._rows[done:n])
            self._keys = tuple(
                _reserve(store, done, n, part.shape[1]) for store, part in zip(self._keys, fresh)
            )
            for store, part in zip(self._keys, fresh):
                store[done:n] = part
            self._projected = n
        return tuple(store[:n] for store in self._keys)


@dataclass(frozen=True)
class Emission:
    token: int
    selected_index: int
    peak_index: int
    clock_ms: float
    log_prob: float
    forced: bool = False


@dataclass(frozen=True, eq=False, slots=True)
class History:
    """A hypothesis' token history as a parent-pointer chain.

    Expansions share their parent's chain instead of copying it, so one
    step costs O(1) per hypothesis whatever the history length. Nodes hold
    no decoder state: voided steps keep older beams alive, and their states
    must not be kept with them.
    """

    token: int
    emission: Emission | None  # None for BOS and for an EOS appended without a step
    parent: History | None
    length: int  # tokens from BOS through this one

    def extend(self, token: int, emission: Emission | None = None) -> History:
        return History(token, emission, self, self.length + 1)

    def nodes_after(self, ancestor: History | None) -> list[History]:
        """The nodes after ``ancestor`` (exclusive) through this one, oldest first.

        Raises ValueError if ``ancestor`` is not on this chain.
        """
        depth = 0 if ancestor is None else ancestor.length
        out = []
        node = self
        while node is not None and node.length > depth:
            out.append(node)
            node = node.parent
        if node is not ancestor:
            raise ValueError("not an ancestor of this history")
        out.reverse()
        return out


@dataclass(frozen=True)
class Hypothesis:
    history: History
    log_score: float
    dec_state: object
    att_state: AttentionState
    finished: bool = False
    runaway: bool = False

    @property
    def tokens(self) -> tuple[int, ...]:
        return tuple(node.token for node in self.history.nodes_after(None))

    @property
    def timeline(self) -> tuple[Emission, ...]:
        return tuple(node.emission for node in self.history.nodes_after(None) if node.emission is not None)

    @property
    def emitted(self) -> int:
        return self.history.length - 1

    def with_eos(self, eos_id: int) -> Hypothesis:
        """This hypothesis closed by an end symbol that no decoding step produced."""
        return replace(self, history=self.history.extend(eos_id), finished=True)


def initial_hypothesis(model, prev_index: int = -1) -> Hypothesis:
    return Hypothesis(
        history=History(model.vocab.bos_id, None, None, 1),
        log_score=0.0,
        dec_state=model.decode_start(),
        att_state=AttentionState(prev_index=prev_index),
    )


def _finish_runaway(hyp: Hypothesis, eos_id: int, clock_ms: float) -> Hypothesis:
    em = Emission(eos_id, hyp.att_state.prev_index, hyp.att_state.prev_index, clock_ms, 0.0, forced=True)
    return replace(hyp, history=hyp.history.extend(eos_id, em), finished=True, runaway=True)


def _expand(hyp: Hypothesis, out: StepOutput, token: int, score: float, log_prob: float,
            clock_ms: float, eos_id: int) -> Hypothesis:
    att = out.att
    em = Emission(token, att.selected_index, att.peak_index, clock_ms, log_prob, forced=att.forced)
    return Hypothesis(
        history=hyp.history.extend(token, em),
        log_score=score,
        dec_state=out.dec_state,
        att_state=AttentionState(prev_index=att.selected_index),
        finished=token == eos_id,
        runaway=hyp.runaway,
    )


def decode_step(
    model,
    beam: list[Hypothesis],
    buffer: EncodedBuffer,
    buffer_complete: bool,
    cfg: BeamConfig,
    clock_ms: float = 0.0,
    force: bool = False,
    block_eos: bool = False,
) -> tuple[list[Hypothesis], list[AttentionStepResult | None]]:
    """Expand every live hypothesis by one token.

    Hypotheses whose attention cannot select a frame yet are kept as-is
    (stalled, signalled through the returned attention results) rather than
    dropped. ``force`` converts such stalls into a forced selection of the
    last frame so decoding can always make progress at finalization.
    """
    if not beam:
        raise ValueError("empty beam")
    eos_id = model.vocab.eos_id
    cap = cfg.max_tokens(len(buffer))
    live = [hyp for hyp in beam if not hyp.finished and hyp.emitted < cap]
    outs: list[StepOutput] = []
    if live:
        outs = model.decode_steps(
            [h.dec_state for h in live], [h.history.token for h in live], buffer,
            [h.att_state for h in live], buffer_complete, force=force,
        )
    steps = iter(outs)
    kept: list[tuple[Hypothesis, AttentionStepResult | None]] = []
    # every candidate expansion as (score, hypothesis, step, token, log prob),
    # in beam order then token order; only the survivors become hypotheses
    ranked: list[tuple[float, Hypothesis, StepOutput, int, float]] = []
    for hyp in beam:
        if hyp.finished:
            kept.append((hyp, None))
            continue
        if hyp.emitted >= cap:
            kept.append((_finish_runaway(hyp, eos_id, clock_ms), None))
            continue
        out = next(steps)
        if out.stalled:
            kept.append((hyp, out.att))
            continue
        log_probs = out.log_probs.tolist()
        taken = 0
        for token in np.argsort(-out.log_probs, kind="stable")[: cfg.beam_size + 1].tolist():
            if block_eos and token == eos_id:
                continue
            ranked.append((hyp.log_score + log_probs[token], hyp, out, token, log_probs[token]))
            taken += 1
            if taken >= cfg.beam_size:
                break
    ranked.sort(key=lambda c: -c[0])
    merged = kept + [
        (_expand(hyp, out, token, score, log_prob, clock_ms, eos_id), out.att)
        for score, hyp, out, token, log_prob in ranked[: max(0, cfg.beam_size - len(kept))]
    ]
    new_beam = [h for h, _ in merged]
    att_results = [a for _, a in merged]
    return new_beam, att_results


def best_hypothesis(beam: list[Hypothesis]) -> Hypothesis:
    return max(beam, key=lambda h: h.log_score)


@dataclass
class DecodeResult:
    tokens: list[int]
    hypothesis: Hypothesis | None
    emissions: list[Emission] = field(default_factory=list)
    restarts: list[float] = field(default_factory=list)
    display_log: list[tuple[float, tuple[int, ...]]] = field(default_factory=list)
    forced_steps: int = 0

    def trace_records(self, vocab: Vocab) -> list[dict]:
        return [
            {
                "token": em.token,
                "label": vocab.token_of(em.token),
                "selected_index": em.selected_index,
                "peak_index": em.peak_index,
                "clock_ms": em.clock_ms,
                "log_prob": em.log_prob,
                "forced": em.forced,
            }
            for em in self.emissions
        ]


def _bos_eos_only(model, clock_ms: float) -> DecodeResult:
    hyp = initial_hypothesis(model).with_eos(model.vocab.eos_id)
    return DecodeResult(tokens=list(hyp.tokens), hypothesis=hyp,
                        display_log=[(clock_ms, ())])


def decode_offline(model, features: FeatureSequence, cfg: BeamConfig) -> DecodeResult:
    """Encode the whole utterance, then decode to completion."""
    buffer = EncodedBuffer()
    enc_state = model.encoder_reset()
    buffer.append(model.encoder_push(enc_state, features.frames))
    buffer.append(model.encoder_finish(enc_state))
    clock = float(features.duration_ms)
    if len(buffer) == 0:
        return _bos_eos_only(model, clock)
    beam = [initial_hypothesis(model)]
    guard = 0
    while not best_hypothesis(beam).finished:
        beam, _ = decode_step(model, beam, buffer, buffer_complete=True, cfg=cfg,
                              clock_ms=clock, force=True)
        guard += 1
        if guard > cfg.max_tokens(len(buffer)) + cfg.beam_size + 8:
            raise RuntimeError("offline decode failed to terminate")
    best = best_hypothesis(beam)
    return DecodeResult(tokens=list(best.tokens), hypothesis=best, emissions=list(best.timeline))


def split_batches(frames: np.ndarray, batch_frames: int) -> list[np.ndarray]:
    if batch_frames < 1:
        raise ValueError("batch_frames must be >= 1")
    total = frames.shape[0]
    if total == 0:
        return [frames]
    return [frames[i : i + batch_frames] for i in range(0, total, batch_frames)]


def decode_online(
    model,
    features: FeatureSequence,
    cfg: BeamConfig,
    batch_ms: int = 320,
    min_buffer_ms: float = 480.0,
) -> DecodeResult:
    """Batch-by-batch decoding with a minimum-buffer gate but no backtracking.

    This is the plain online baseline: decoding may run whenever the buffer
    extends at least ``min_buffer_ms`` past the best hypothesis' attention
    position. End-symbol handling follows ``cfg.eos_policy``.
    """
    vocab = model.vocab
    buffer = EncodedBuffer()
    enc_state = model.encoder_reset()
    batches = split_batches(features.frames, ms_to_frames(batch_ms, features.frame_shift_ms))
    gate = (
        math.inf
        if math.isinf(min_buffer_ms)
        else ms_to_encoded_frames(min_buffer_ms, features.frame_shift_ms, model.total_reduction)
    )

    result = DecodeResult(tokens=[], hypothesis=None)
    segments: list[tuple[int, ...]] = []
    beam = [initial_hypothesis(model)]
    clock = 0.0
    restart_pending = False
    done = False

    for index, batch in enumerate(batches):
        is_last = index == len(batches) - 1
        buffer.append(model.encoder_push(enc_state, batch))
        clock += batch.shape[0] * features.frame_shift_ms
        if is_last:
            buffer.append(model.encoder_finish(enc_state))
        if done:
            continue
        if restart_pending:
            beam = [initial_hypothesis(model, prev_index=len(buffer) - 1)]
            restart_pending = False

        if len(buffer) == 0:
            if is_last:
                result.hypothesis = beam[0].with_eos(vocab.eos_id)
                beam = [result.hypothesis]
            result.display_log.append((clock, ()))
            continue

        forced_left = 1 if cfg.eos_policy in ("accept", "restart") and not is_last else 0
        guard = 0
        while True:
            best = best_hypothesis(beam)
            if best.finished:
                if is_last or cfg.eos_policy == "accept":
                    done = done or not is_last
                    break
                if cfg.eos_policy == "restart":
                    segments.append(best.tokens[1:-1])
                    result.restarts.append(clock)
                    restart_pending = True
                    # placeholder; the restart attaches at the next batch's live edge
                    beam = [initial_hypothesis(model, prev_index=len(buffer) - 1)]
                    break
                break
            tail = len(buffer) - 1 - best.att_state.prev_index
            if not is_last and (math.isinf(gate) or tail < gate):
                break
            force = is_last
            block_eos = cfg.eos_policy == "defer" and model.silence_aware and not is_last
            new_beam, atts = decode_step(model, beam, buffer, buffer_complete=is_last, cfg=cfg,
                                         clock_ms=clock, force=force, block_eos=block_eos)
            progressed = any(a is not None and a.status == "selected" for a in atts)
            if not progressed:
                if not is_last and forced_left > 0:
                    forced_left -= 1
                    result.forced_steps += 1
                    new_beam, atts = decode_step(model, beam, buffer, buffer_complete=False,
                                                 cfg=cfg, clock_ms=clock, force=True,
                                                 block_eos=block_eos)
                    if not any(a is not None and a.status == "selected" for a in atts):
                        break
                else:
                    break
            beam = new_beam
            guard += 1
            if guard > cfg.max_tokens(len(buffer)) + cfg.beam_size + 8:
                raise RuntimeError("online decode failed to terminate within the token cap")

        best = best_hypothesis(beam)
        display = tuple(strip_nonscoring(list(best.tokens), vocab))
        if cfg.eos_policy == "restart":
            display = tuple(t for seg in segments for t in strip_nonscoring(list(seg), vocab)) + display
        result.display_log.append((clock, display))

    best = best_hypothesis(beam)
    if not best.finished:  # zero-audio stream never entered the decode loop
        best = best.with_eos(vocab.eos_id)
    result.hypothesis = best
    result.emissions = list(best.timeline)
    if cfg.eos_policy == "restart":
        tokens = (vocab.bos_id,)
        for seg in segments:
            tokens += seg
        tokens += best.tokens[1:]
        result.tokens = list(tokens)
    else:
        result.tokens = list(best.tokens)
    return result
