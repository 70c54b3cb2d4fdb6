"""Buffered online decoding: batch ingestion, minimum-buffer gating,
restricted-region voiding, and end-of-stream flushing.

Audio arrives in fixed-size batches. A batch is decoded only once the
encoded buffer extends far enough past the last committed attention
position; every completed step whose attention peak stays clear of the
restricted region at the buffer tail is committed, while a step whose peak
lands inside it (or whose attention cannot select at all) is voided and the
session waits for more audio. When the last batch arrives the restrictions
are dropped and decoding runs to completion, so the committed prefix always
extends to the full offline-equivalent output.

Buffer requirements are per token class: after a silence token a larger
buffer (and restricted region) applies, making premature end-of-utterance
emissions during long pauses even less likely.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import ms_to_encoded_frames
from .decoder import (
    BeamConfig,
    DecodeResult,
    EncodedBuffer,
    History,
    Hypothesis,
    best_hypothesis,
    decode_step,
    initial_hypothesis,
)
from .vocab import Vocab, strip_nonscoring


@dataclass(frozen=True)
class StreamConfig:
    batch_ms: int = 320
    min_buffer_ms: float = 480.0
    sil_buffer_ms: float = 480.0

    def __post_init__(self):
        if self.batch_ms <= 0:
            raise ValueError("batch_ms must be positive")
        if self.min_buffer_ms < 0:
            raise ValueError("min_buffer_ms must be nonnegative")
        if self.sil_buffer_ms < self.min_buffer_ms:
            raise ValueError("sil_buffer_ms must be >= min_buffer_ms")


def applicable_buffer(last_token: int | None, cfg: StreamConfig, vocab: Vocab) -> float:
    """Buffer requirement in ms given the most recently emitted token."""
    if last_token is not None and last_token == vocab.sil_id:
        return cfg.sil_buffer_ms
    return cfg.min_buffer_ms


class StreamSession:
    """One utterance's online decode. Single-owner; not thread-safe."""

    def __init__(self, model, stream_cfg: StreamConfig, beam_cfg: BeamConfig, frame_shift_ms: int = 10):
        self.model = model
        self.scfg = stream_cfg
        self.bcfg = beam_cfg
        self.frame_shift_ms = frame_shift_ms
        self.enc_state = model.encoder_reset()
        self.buffer = EncodedBuffer()
        self.beam: list[Hypothesis] = [initial_hypothesis(model)]
        self.segments: list[tuple[int, ...]] = []  # closed restart segments
        self._committed: History = self.beam[0].history  # end of the committed prefix
        self.clock_ms = 0.0
        self.batch_index = -1
        self.finalized = False
        self.finished = False
        self.restart_pending = False
        self.restarts: list[float] = []
        self.backtracks: list[dict] = []
        self.trace: list[dict] = []
        self.display_log: list[tuple[float, tuple[int, ...]]] = []
        self.wall_ms = 0.0
        self.forced_steps = 0

    # --- helpers ---

    def _buffer_frames(self, ms: float) -> float:
        if math.isinf(ms):
            return math.inf
        return ms_to_encoded_frames(ms, self.frame_shift_ms, self.model.total_reduction)

    @property
    def committed_tokens(self) -> tuple[int, ...]:
        """The committed prefix of the current segment, from BOS."""
        return tuple(node.token for node in self._committed.nodes_after(None))

    def _display(self) -> tuple[int, ...]:
        shown = tuple(t for seg in self.segments for t in strip_nonscoring(list(seg), self.model.vocab))
        best = best_hypothesis(self.beam)
        return shown + tuple(strip_nonscoring(list(best.tokens), self.model.vocab))

    def _record(self, decision: str, committed: int = 0, boundary: int | None = None) -> None:
        self.trace.append(
            {
                "batch": self.batch_index,
                "clock_ms": self.clock_ms,
                "buffer_len": len(self.buffer),
                "decision": decision,
                "committed": committed,
                "restricted_boundary": boundary,
            }
        )
        self.display_log.append((self.clock_ms, self._display()))

    def _flat_committed(self) -> tuple[int, ...]:
        out = (self.model.vocab.bos_id,)
        for seg in self.segments:
            out += seg
        out += self.committed_tokens[1:]
        return out

    def _commit(self, nodes: list[History]) -> list[int]:
        """Extend the committed prefix by ``nodes``; returns their tokens."""
        if nodes:
            self._committed = nodes[-1]
        return [node.token for node in nodes]

    def _commit_progress(self) -> list[int]:
        """Extend the committed prefix to the beam-wide longest common prefix.

        Every hypothesis extends the committed history, so only the tokens
        after it are compared. Hypotheses of one beam that share a token
        prefix share its history nodes, so the nodes are compared by identity.
        """
        try:
            tails = [hyp.history.nodes_after(self._committed) for hyp in self.beam]
        except ValueError:
            raise RuntimeError("committed prefix would be revised") from None
        common = tails[0]
        for tail in tails[1:]:
            n = 0
            while n < len(common) and n < len(tail) and common[n] is tail[n]:
                n += 1
            common = common[:n]
        return self._commit(common)

    def _new_segment_beam(self) -> None:
        """Start a fresh hypothesis at the live edge, with nothing committed."""
        self.beam = [initial_hypothesis(self.model, prev_index=len(self.buffer) - 1)]
        self._committed = self.beam[0].history

    def _close_segment(self, best: Hypothesis) -> None:
        self.segments.append(best.tokens[1:-1])
        self.restarts.append(self.clock_ms)
        self.restart_pending = True
        # placeholder until the restart attaches at the next batch's live edge
        self._new_segment_beam()

    def _activate_restart(self) -> None:
        self._new_segment_beam()
        self.restart_pending = False

    def _step(self, buffer_complete: bool, force: bool, block_eos: bool):
        """One beam step over the buffer; counts it if any of its attention steps was forced."""
        new_beam, atts = decode_step(
            self.model, self.beam, self.buffer, buffer_complete=buffer_complete, cfg=self.bcfg,
            clock_ms=self.clock_ms, force=force, block_eos=block_eos,
        )
        self.forced_steps += any(a is not None and a.forced for a in atts)
        return new_beam, atts

    # --- main entry points ---

    def push(self, frames: np.ndarray, is_last: bool = False) -> list[int]:
        """Feed one batch; returns tokens newly added to the committed prefix."""
        if self.finalized:
            raise RuntimeError("push after finalize")
        self.batch_index += 1
        frames = np.asarray(frames, dtype=np.float64)
        started = time.perf_counter()
        self.buffer.append(self.model.encoder_push(self.enc_state, frames))
        self.clock_ms += frames.shape[0] * self.frame_shift_ms if frames.ndim == 2 else 0
        if is_last:
            newly = self._finalize_locked(started)
            return newly
        if self.finished:
            self.wall_ms += (time.perf_counter() - started) * 1000.0
            self._record("no-decode")
            return []
        if self.restart_pending:
            self._activate_restart()

        vocab = self.model.vocab
        best = best_hypothesis(self.beam)
        gate_ms = applicable_buffer(best.history.token if best.emitted else None, self.scfg, vocab)
        gate = self._buffer_frames(gate_ms)
        boundary = None if math.isinf(gate) else max(0, len(self.buffer) - int(gate))
        tail = len(self.buffer) - 1 - best.att_state.prev_index
        if math.isinf(gate) or tail < gate:
            self.wall_ms += (time.perf_counter() - started) * 1000.0
            self._record("no-decode", boundary=boundary)
            return []

        decision = "committed"
        closed_segment = False
        guard = 0
        while True:
            best = best_hypothesis(self.beam)
            if best.finished:
                if self.bcfg.eos_policy == "accept":
                    self.finished = True
                elif self.bcfg.eos_policy == "restart":
                    self._close_segment(best)
                    closed_segment = True
                break
            block_eos = self.bcfg.eos_policy == "defer" and self.model.silence_aware
            new_beam, atts = self._step(buffer_complete=False, force=False, block_eos=block_eos)
            selected = [a for a in atts if a is not None and a.status == "selected"]
            if not selected:
                decision = "backtrack"
                self.backtracks.append(
                    {"batch": self.batch_index, "clock_ms": self.clock_ms, "reason": "exhausted"}
                )
                break
            voided = False
            for hyp, att in zip(new_beam, atts):
                if att is None or att.status != "selected":
                    continue
                region = self._buffer_frames(applicable_buffer(hyp.history.parent.token, self.scfg, vocab))
                if math.isinf(region) or att.peak_index >= len(self.buffer) - int(region):
                    voided = True
                    break
            if voided:
                decision = "backtrack"
                self.backtracks.append(
                    {"batch": self.batch_index, "clock_ms": self.clock_ms, "reason": "restricted"}
                )
                break
            self.beam = new_beam
            guard += 1
            if guard > self.bcfg.max_tokens(len(self.buffer)) + self.bcfg.beam_size + 8:
                raise RuntimeError("streamed decode failed to terminate within the token cap")

        newly = [] if closed_segment else self._commit_progress()
        self.wall_ms += (time.perf_counter() - started) * 1000.0
        self._record(decision, committed=len(newly), boundary=boundary)
        return newly

    def finalize(self) -> DecodeResult:
        """Flush the encoder and decode to completion with buffering disabled."""
        if self.finalized:
            raise RuntimeError("session already finalized")
        started = time.perf_counter()
        self.batch_index += 1
        self._finalize_locked(started)
        return self.result()

    def _finalize_locked(self, started: float) -> list[int]:
        self.finalized = True
        vocab = self.model.vocab
        self.buffer.append(self.model.encoder_finish(self.enc_state))
        if self.restart_pending:
            self._activate_restart()
        if len(self.buffer) == 0:
            self.beam = [self.beam[0].with_eos(vocab.eos_id)]
        elif not self.finished:
            guard = 0
            while not best_hypothesis(self.beam).finished:
                self.beam, _ = self._step(buffer_complete=True, force=True, block_eos=False)
                guard += 1
                if guard > self.bcfg.max_tokens(len(self.buffer)) + self.bcfg.beam_size + 8:
                    raise RuntimeError("finalize failed to terminate within the token cap")
        try:
            tail = best_hypothesis(self.beam).history.nodes_after(self._committed)
        except ValueError:
            raise RuntimeError("final output does not extend the committed prefix") from None
        newly = self._commit(tail)
        self.wall_ms += (time.perf_counter() - started) * 1000.0
        self._record("committed", committed=len(newly), boundary=None)
        return newly

    def result(self) -> DecodeResult:
        if not self.finalized:
            raise RuntimeError("session not finalized yet")
        best = best_hypothesis(self.beam)
        tokens = self._flat_committed()
        res = DecodeResult(tokens=list(tokens), hypothesis=best, emissions=list(best.timeline))
        res.display_log = list(self.display_log)
        res.restarts = list(self.restarts)
        res.forced_steps = self.forced_steps
        return res


def stream_decode(
    model,
    features,
    stream_cfg: StreamConfig,
    beam_cfg: BeamConfig,
) -> tuple[DecodeResult, StreamSession]:
    """Run a whole utterance through a fresh session in fixed batches."""
    from .data import ms_to_frames
    from .decoder import split_batches

    session = StreamSession(model, stream_cfg, beam_cfg, frame_shift_ms=features.frame_shift_ms)
    batches = split_batches(features.frames, ms_to_frames(stream_cfg.batch_ms, features.frame_shift_ms))
    for i, batch in enumerate(batches):
        session.push(batch, is_last=i == len(batches) - 1)
    return session.result(), session
