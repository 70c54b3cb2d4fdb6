"""The decode loop: batch ingestion, minimum-buffer gating, restricted-region
voiding, and end-of-stream flushing. Offline decoding is a session fed one
last batch holding the whole utterance.

Audio arrives in fixed-size batches. A batch is decoded only once the
encoded buffer extends far enough past the last committed attention
position; every completed step whose attention peak stays clear of the
restricted region at the buffer tail is committed, while a step whose peak
lands inside it (or whose attention cannot select at all) is voided and the
session waits for more audio. When the last batch arrives the restrictions
are dropped and decoding runs to completion, so the committed prefix always
extends to the full offline-equivalent output.

The display log holds, after every push, the committed prefix plus the best
hypothesis' tentative tokens, stripped of BOS/EOS/SIL. The stripped committed
part is extended as tokens commit, and the last display is extended when the
best hypothesis extends the last one shown, so a push strips only the tokens
the best hypothesis gained; when the best hypothesis switches to another
branch, the tokens after the committed part are stripped again.

Buffer requirements are per token class: after a silence token a larger
buffer (and restricted region) applies, making premature end-of-utterance
emissions during long pauses even less likely.

A beam step is checked before its hypotheses are built, so a voided step builds
no expansion; it is retried at the next decoding push. When the model declares
``stable_steps`` and the retry would rank the step again unchanged (same beam
and end-symbol blocking, not final, every unexpanded hypothesis finished and
none at the token cap, no expansion forced), the retry reuses the voided step's
ranked survivors: the model and the ranking do not run again, the void rule
checks them against the grown buffer, and each survivor is built once, at the
retry's clock. ``reused_steps`` counts them.

A decoding push commits through the deepest history node the whole beam
shares. Jump pointers check that the beam extends the committed prefix and
find that node in O(beam * log tail) hops, plus a walk over the tokens committed.

The ``plain`` engine is the online baseline without the remedy: it checks
the gate again before every step, has no restricted region, and under
``accept`` and ``restart`` takes one forced step per batch at the buffer
edge when every hypothesis stalls.

Decoding is asynchronous: it terminates by emitting the end symbol, not by
exhausting input, so online operation needs explicit policies for end
symbols that arrive while audio is still streaming:

* ``accept``: take the end symbol at face value (the failure-prone baseline).
* ``restart``: accept it, log a restart, and begin a fresh hypothesis once
  the next batch arrives. The closed segment commits its tokens without its
  end symbol, so segment outputs are concatenated. The restarted
  hypothesis attaches at the live edge of the stream, so audio arriving
  within the one-batch restart window is never decoded.
* ``defer``: while a silence-aware model still has audio ahead, the end
  symbol may not finish a hypothesis at all.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import FeatureSequence, ms_to_encoded_frames, ms_to_frames
from .decoder import (
    BeamConfig,
    DecodeResult,
    EncodedBuffer,
    History,
    Hypothesis,
    best_hypothesis,
    common_ancestor,
    decode_step,
    initial_hypothesis,
    max_tokens,
)
from .vocab import strip_nonscoring

ENGINES = ("buffered", "plain")


@dataclass(frozen=True)
class StreamConfig:
    batch_ms: int = 320
    min_buffer_ms: float = 480.0
    sil_buffer_ms: float = 480.0
    engine: str = "buffered"

    def __post_init__(self):
        if self.batch_ms <= 0:
            raise ValueError("batch_ms must be positive")
        if not (math.isfinite(self.min_buffer_ms) and self.min_buffer_ms >= 0):
            raise ValueError("min_buffer_ms must be finite and nonnegative")
        if not (math.isfinite(self.sil_buffer_ms) and self.sil_buffer_ms >= self.min_buffer_ms):
            raise ValueError("sil_buffer_ms must be finite and >= min_buffer_ms")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")


class StreamSession:
    """One utterance's decode. Single-owner; not thread-safe."""

    def __init__(self, model, stream_cfg: StreamConfig, beam_cfg: BeamConfig, frame_shift_ms: int = 10):
        self.model = model
        self.scfg = stream_cfg
        self.bcfg = beam_cfg
        self.frame_shift_ms = frame_shift_ms
        self.enc_state = model.encoder_reset()
        self.buffer = EncodedBuffer()
        self.beam: list[Hypothesis] = [initial_hypothesis(model)]
        # every committed node after BOS, of every segment; a closed segment's end symbol is left out
        self.committed: list[History] = []
        self._floor: History = self.beam[0].history  # where the current segment's committed prefix ends
        self._shown: tuple[int, ...] = ()  # the stripped display of ``committed``
        # the last display's best node, and that display
        self._shown_best: tuple[History, tuple[int, ...]] = (self._floor, ())
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
        self.reused_steps = 0
        # (beam, block_eos, VoidedStep) of the last voided step, while its retry may reuse it
        self._voided: tuple | None = None
        # gate and restricted-region frames after a regular token and after <sil>, indexed by ``token == sil_id``
        self._sil_id = model.vocab.sil_id
        self._frames_after = [ms_to_encoded_frames(ms, frame_shift_ms, model.total_reduction)
                              for ms in (stream_cfg.min_buffer_ms, stream_cfg.sil_buffer_ms)]

    # --- helpers ---

    def _gate(self, best: Hypothesis) -> tuple[bool, int]:
        """Whether the buffer extends far enough past ``best``'s attention
        position to decode, and the restricted-region boundary."""
        gate = self._frames_after[best.history.token == self._sil_id]  # BOS counts as a regular token
        tail = len(self.buffer) - 1 - best.att_state.prev_index
        return tail >= gate, max(0, len(self.buffer) - gate)

    def _strip(self, nodes: list[History]) -> tuple[int, ...]:
        return tuple(strip_nonscoring([node.token for node in nodes], self.model.vocab))

    def _display(self) -> tuple[int, ...]:
        """The committed display plus the best hypothesis' tokens after it.

        When the best hypothesis extends the last display's best node, only
        the tokens after that node are stripped."""
        best = best_hypothesis(self.beam).history
        node, shown = self._shown_best
        if best.ancestor(node.length) is node:
            shown += self._strip(best.nodes_after(node))
        else:
            shown = self._shown + self._strip(best.nodes_after(self._floor))
        self._shown_best = (best, shown)
        return shown

    def _record(self, started: float, decision: str, committed: int = 0, boundary: int | None = None) -> None:
        self.wall_ms += (time.perf_counter() - started) * 1000.0
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

    def _commit(self, histories: list[History]) -> None:
        """Extend the committed prefix through the deepest node every history
        shares: hypotheses sharing a token prefix share its history nodes.
        Only the nodes committed are walked."""
        floor = self._floor
        if any(h.ancestor(floor.length) is not floor for h in histories):
            raise RuntimeError("committed prefix would be revised")
        self._floor = common_ancestor(histories, floor)
        nodes = self._floor.nodes_after(floor)
        self.committed += nodes
        self._shown += self._strip(nodes)

    def _new_segment_beam(self) -> None:
        """Start a fresh hypothesis at the live edge, with nothing committed."""
        self.beam = [initial_hypothesis(self.model, prev_index=len(self.buffer) - 1)]
        self._floor = self.beam[0].history

    def _close_segment(self, best: Hypothesis) -> None:
        self._commit([best.history.parent])  # all but the end symbol
        self.restarts.append(self.clock_ms)
        self.restart_pending = True
        # placeholder until the restart attaches at the next batch's live edge
        self._new_segment_beam()

    def _step(self, buffer_complete: bool, force: bool, block_eos: bool):
        """One beam step over the buffer, voided by ``_void_reason`` unless final;
        counts it if any attention step was forced. A voided step's retry from
        the same beam reuses it if it would rank it again unchanged: no forced
        step, every unexpanded hypothesis finished, none at the token cap (a
        stalled one may select once frames arrive; the cap grows with the buffer)."""
        reuse = None
        if self._voided is not None:
            beam, blocked, voided = self._voided
            if beam is self.beam and blocked == block_eos and not (force or buffer_complete):
                reuse = voided
                self.reused_steps += 1
            self._voided = None
        new_beam, atts, voided = decode_step(
            self.model, self.beam, self.buffer, buffer_complete=buffer_complete, cfg=self.bcfg,
            clock_ms=self.clock_ms, force=force, block_eos=block_eos,
            void=None if buffer_complete else self._void_reason, reuse=reuse,
        )
        if force:  # models force an attention step only when asked to
            self.forced_steps += any(a is not None and a.forced for a in atts)
        elif voided is not None and self.model.stable_steps and all(h.finished and not h.runaway for h in voided.kept):
            self._voided = (self.beam, block_eos, voided)
        return new_beam, voided

    def _void_reason(self, expansions) -> str | None:
        """Why a mid-stream step must be voided, or None to keep it, from the
        (token before the step, attention result) pair of each expansion it keeps."""
        if not expansions:
            return "exhausted"
        edge = len(self.buffer)
        restricted = self.scfg.engine == "buffered" and any(
            att.peak_index >= edge - self._frames_after[token == self._sil_id] for token, att in expansions)
        return "restricted" if restricted else None

    def _decode(self, final: bool) -> str:
        """Step the beam until its best hypothesis finishes or, mid-stream,
        until a step is voided or the plain engine's gate closes.

        Returns the trace decision: ``backtrack`` if a step was voided."""
        policy = self.bcfg.eos_policy
        plain = self.scfg.engine == "plain"
        block_eos = not final and policy == "defer" and self.model.silence_aware
        forced_left = not final and plain and policy != "defer"
        # over one buffer a stalled hypothesis stays stalled until a forced
        # step, and every selecting one gains a token, so each run of steps
        # ends within cap + 3 steps; the plain engine's forced step starts a second
        for _ in range(2 * (max_tokens(len(self.buffer)) + 4)):
            best = best_hypothesis(self.beam)
            if best.finished:
                if not final and policy == "accept":
                    self.finished = True
                elif not final and policy == "restart":
                    self._close_segment(best)
                return "committed"
            if plain and not final and not self._gate(best)[0]:
                return "committed"
            new_beam, voided = self._step(final, force=final, block_eos=block_eos)
            if voided is not None and voided.reason == "exhausted" and forced_left:
                forced_left = False
                new_beam, voided = self._step(final, force=True, block_eos=block_eos)
            if voided is not None:
                self.backtracks.append({"batch": self.batch_index, "clock_ms": self.clock_ms, "reason": voided.reason})
                return "backtrack"
            self.beam = new_beam
        raise RuntimeError("decode failed to terminate within the token cap")

    # --- main entry points ---

    def push(self, frames: np.ndarray, is_last: bool = False) -> list[int]:
        """Feed one batch; returns the tokens it added to the committed prefix.

        The last batch flushes the encoder and decodes to completion with
        buffering disabled; ``result`` is then available. Under every policy
        BOS followed by every push's return is ``result().tokens``, and each
        of those tokens after BOS has its emission in ``result().emissions``
        (an end symbol appended to a stream with no audio has none). Under
        ``restart`` a closed segment's tokens are returned when it closes,
        without its end symbol."""
        if self.finalized:
            raise RuntimeError("push after the last batch")
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2:
            raise ValueError(f"expected a (frames, features) matrix, got shape {frames.shape}")
        self.batch_index += 1
        started = time.perf_counter()
        self.buffer.append(self.model.encoder_push(self.enc_state, frames))
        self.clock_ms += frames.shape[0] * self.frame_shift_ms
        if is_last:
            self.finalized = True
            self.buffer.append(self.model.encoder_finish(self.enc_state))
        elif self.finished:
            self._record(started, "no-decode")
            return []
        if self.restart_pending:
            self._new_segment_beam()
            self.restart_pending = False
        before, decision, boundary = len(self.committed), "committed", None
        if is_last:
            if len(self.buffer) == 0:
                self.beam = [self.beam[0].with_eos(self.model.vocab.eos_id)]
            elif not self.finished:
                self._decode(final=True)
            self._commit([best_hypothesis(self.beam).history])
        else:
            is_open, boundary = self._gate(best_hypothesis(self.beam))
            if not is_open:
                self._record(started, "no-decode", boundary=boundary)
                return []
            decision = self._decode(final=False)
            self._commit([hyp.history for hyp in self.beam])
        newly = [node.token for node in self.committed[before:]]
        self._record(started, decision, committed=len(newly), boundary=boundary)
        return newly

    def result(self) -> DecodeResult:
        if not self.finalized:
            raise RuntimeError("session has not received its last batch yet")
        res = DecodeResult(tokens=[self.model.vocab.bos_id] + [node.token for node in self.committed],
                           emissions=[node.emission for node in self.committed if node.emission is not None])
        res.display_log = list(self.display_log)
        res.restarts = list(self.restarts)
        res.forced_steps = self.forced_steps
        return res


def split_batches(frames: np.ndarray, batch_frames: int) -> list[np.ndarray]:
    if batch_frames < 1:
        raise ValueError("batch_frames must be >= 1")
    total = frames.shape[0]
    if total == 0:
        return [frames]
    return [frames[i : i + batch_frames] for i in range(0, total, batch_frames)]


def stream_decode(
    model,
    features: FeatureSequence,
    stream_cfg: StreamConfig,
    beam_cfg: BeamConfig,
) -> tuple[DecodeResult, StreamSession]:
    """Run a whole utterance through a fresh session in fixed batches."""
    session = StreamSession(model, stream_cfg, beam_cfg, frame_shift_ms=features.frame_shift_ms)
    batches = split_batches(features.frames, ms_to_frames(stream_cfg.batch_ms, features.frame_shift_ms))
    for i, batch in enumerate(batches):
        session.push(batch, is_last=i == len(batches) - 1)
    return session.result(), session


def decode_offline(model, features: FeatureSequence, cfg: BeamConfig) -> DecodeResult:
    """Encode the whole utterance, then decode to completion: one last batch."""
    session = StreamSession(model, StreamConfig(), cfg, frame_shift_ms=features.frame_shift_ms)
    session.push(features.frames, is_last=True)
    return session.result()
