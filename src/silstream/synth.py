"""Synthetic utterances and a scripted oracle model.

The generator writes one fixed random pattern vector per token, repeated for
a fixed number of frames, with near-zero silence stretches in between; the
alignment it returns is exact by construction. The oracle model implements
the same interface as the trained model but reads its emissions off the
ground-truth alignment, which makes decoding machinery testable without any
training:

* ``silence_aware`` narrates silence with one silence token per fixed number
  of encoded frames and ends only once the last frame is attended.
* ``silence_skipping`` never attends silence; once everything visible beyond
  its position is silence (or a word whose onset it already scanned past),
  it declares the utterance over -- reproducing the premature-EOS failure of
  models trained without silence labels.
"""
from __future__ import annotations

import bisect
import functools
import os
from dataclasses import dataclass

import numpy as np

from . import data
from .attention import AttentionState, AttentionStepResult
from .data import Alignment, FeatureSequence, Segment
from .labeler import LabelerConfig, silence_tokens_for
from .model import StepOutput
from .vocab import SIL_LABEL, Vocab, load_vocab, save_vocab

ORACLE_EPS = 1e-4
MIN_PATTERN_DISTANCE = 1.0  # least distance between two token patterns, and from silence


@dataclass(frozen=True)
class SynthConfig:
    vocab: Vocab
    feature_dim: int = 8
    frames_per_token: int = 8
    noise_sigma: float = 0.0
    pattern_seed: int = 1234
    frame_shift_ms = 10  # a class constant, not a field

    def __post_init__(self):
        if self.frames_per_token < 1:
            raise ValueError("frames_per_token must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")


@functools.lru_cache(maxsize=16)
def token_patterns(cfg: SynthConfig) -> np.ndarray:
    """One fixed random vector per vocabulary entry (silence row stays zero).

    Rows are resampled until all content patterns are pairwise separated, so
    nearest-pattern classification on clean features is unambiguous. The
    patterns are drawn once per config and shared, so they are read-only.
    """
    rng = np.random.default_rng(cfg.pattern_seed)
    patterns = np.zeros((cfg.vocab.size, cfg.feature_dim))
    content = [i for i in range(cfg.vocab.size) if i not in cfg.vocab.reserved]
    for i in content:
        for _ in range(1000):
            candidate = rng.normal(0.0, 1.0, size=cfg.feature_dim)
            others = [patterns[j] for j in content if j < i] + [np.zeros(cfg.feature_dim)]
            if min(np.linalg.norm(candidate - o) for o in others) >= MIN_PATTERN_DISTANCE:
                patterns[i] = candidate
                break
        else:
            raise ValueError("could not place distinct token patterns; raise feature_dim")
    patterns.flags.writeable = False
    return patterns


@dataclass
class Utterance:
    utt_id: str
    features: FeatureSequence
    tokens: list[int]
    alignment: Alignment


def gen_utterance(
    cfg: SynthConfig,
    seed: int,
    tokens: list[int],
    silence_layout: list[tuple[int, int]],
    utt_id: str = "utt",
) -> Utterance:
    """Deterministically synthesize one utterance.

    ``silence_layout`` entries are (position, length_frames) where position i
    inserts silence before token i; position len(tokens) appends trailing
    silence. Silences at the same position merge into one segment.
    """
    if not tokens and not silence_layout:
        raise ValueError("utterance needs at least one token or silence stretch")
    sil_at = [0] * (len(tokens) + 1)
    for position, length in silence_layout:
        if not 0 <= position <= len(tokens):
            raise ValueError(f"silence position {position} out of range [0, {len(tokens)}]")
        if length < 1:
            raise ValueError(f"silence length must be >= 1, got {length}")
        sil_at[position] += length

    patterns = token_patterns(cfg)
    rng = np.random.default_rng(seed)
    rows: list[np.ndarray] = []
    segments: list[Segment] = []
    t = 0

    def emit(label: str, block: np.ndarray):
        nonlocal t
        rows.append(block)
        segments.append(Segment(label, t, t + block.shape[0]))
        t += block.shape[0]

    for i, token in enumerate(tokens + [None]):
        if sil_at[i]:
            emit(SIL_LABEL, np.zeros((sil_at[i], cfg.feature_dim)))
        if token is not None:
            emit(cfg.vocab.token_of(token), np.tile(patterns[token], (cfg.frames_per_token, 1)))

    frames = np.vstack(rows)
    if cfg.noise_sigma > 0:
        frames = frames + rng.normal(0.0, cfg.noise_sigma, size=frames.shape)
    features = FeatureSequence(frames, frame_shift_ms=cfg.frame_shift_ms)
    return Utterance(utt_id, features, list(tokens), Alignment(tuple(segments)))


@dataclass(frozen=True)
class CorpusSpec:
    num_utterances: int = 50
    min_tokens: int = 2
    max_tokens: int = 5
    mid_silence_prob: float = 0.5
    mid_silence_frames: tuple[int, int] = (24, 96)
    lead_silence_prob: float = 0.0
    lead_silence_frames: tuple[int, int] = (8, 24)
    trail_silence_prob: float = 1.0
    trail_silence_frames: tuple[int, int] = (24, 72)
    align_to: int = 1  # round every silence length up to a multiple of this

    def __post_init__(self):
        if self.num_utterances < 0:
            raise ValueError("num_utterances must be >= 0")
        if not 0 <= self.min_tokens <= self.max_tokens:
            raise ValueError(f"need 0 <= min_tokens <= max_tokens, got {self.min_tokens} and {self.max_tokens}")
        for kind in ("mid", "lead", "trail"):
            prob, (low, high) = getattr(self, f"{kind}_silence_prob"), getattr(self, f"{kind}_silence_frames")
            if not 0 <= prob <= 1:
                raise ValueError(f"{kind}_silence_prob must be in [0, 1], got {prob}")
            if not 1 <= low <= high:
                raise ValueError(f"{kind}_silence_frames needs 1 <= low <= high, got ({low}, {high})")
        if self.min_tokens == 0 and max(self.lead_silence_prob, self.trail_silence_prob) < 1:
            raise ValueError("min_tokens 0 draws empty utterances unless lead_silence_prob or trail_silence_prob is 1")
        if self.align_to < 1:
            raise ValueError("align_to must be >= 1")


def gen_corpus(cfg: SynthConfig, spec: CorpusSpec, seed: int) -> dict[str, Utterance]:
    rng = np.random.default_rng(seed)
    content = [i for i in range(cfg.vocab.size) if i not in cfg.vocab.reserved]

    def sil_len(bounds) -> int:
        length = int(rng.integers(bounds[0], bounds[1] + 1))
        return -(-length // spec.align_to) * spec.align_to

    corpus = {}
    for n in range(spec.num_utterances):
        count = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
        tokens = [content[int(rng.integers(len(content)))] for _ in range(count)]
        layout = []
        if rng.random() < spec.lead_silence_prob:
            layout.append((0, sil_len(spec.lead_silence_frames)))
        for pos in range(1, count):
            if rng.random() < spec.mid_silence_prob:
                layout.append((pos, sil_len(spec.mid_silence_frames)))
        if rng.random() < spec.trail_silence_prob:
            layout.append((count, sil_len(spec.trail_silence_frames)))
        utt_id = f"synth{n:04d}"
        corpus[utt_id] = gen_utterance(cfg, seed=int(rng.integers(2**31)), tokens=tokens,
                                       silence_layout=layout, utt_id=utt_id)
    return corpus


def save_corpus(corpus: dict[str, Utterance], vocab: Vocab, directory: str) -> None:
    """Write a corpus directory: vocab.txt, refs.tsv, alignments.txt, feats/."""
    os.makedirs(os.path.join(directory, "feats"), exist_ok=True)
    save_vocab(vocab, os.path.join(directory, "vocab.txt"))
    refs = {utt_id: vocab.decode(utt.tokens) for utt_id, utt in corpus.items()}
    data.write_references(refs, os.path.join(directory, "refs.tsv"))
    alignments = {utt_id: utt.alignment for utt_id, utt in corpus.items()}
    with open(os.path.join(directory, "alignments.txt"), "w", encoding="utf-8") as f:
        f.write(data.format_alignment_corpus(alignments))
    for utt_id, utt in corpus.items():
        data.write_features(utt.features, os.path.join(directory, "feats", f"{utt_id}.feat"))


def load_corpus(directory: str) -> tuple[dict[str, Utterance], Vocab]:
    vocab = load_vocab(os.path.join(directory, "vocab.txt"))
    refs = data.read_references(os.path.join(directory, "refs.tsv"))
    with open(os.path.join(directory, "alignments.txt"), encoding="utf-8") as f:
        alignments = data.parse_alignment_corpus(f.read())
    corpus = {}
    for utt_id, tokens in refs.items():
        if utt_id not in alignments:
            raise ValueError(f"corpus {directory}: no alignment for utterance {utt_id!r}")
        features = data.read_features(os.path.join(directory, "feats", f"{utt_id}.feat"))
        corpus[utt_id] = Utterance(utt_id, features, vocab.encode(tokens), alignments[utt_id])
    return corpus, vocab


ORACLE_MODES = ("silence_aware", "silence_skipping")


@dataclass(frozen=True)
class OracleMode:
    mode: str = "silence_aware"  # one of ORACLE_MODES
    sil_duration_encoded: int = 6
    min_silence_encoded: int = 3

    def __post_init__(self):
        if self.mode not in ORACLE_MODES:
            raise ValueError(f"unknown oracle mode {self.mode!r}")
        if self.sil_duration_encoded < 1:
            raise ValueError("sil_duration_encoded must be >= 1")
        if self.min_silence_encoded < 0:
            raise ValueError("min_silence_encoded must be >= 0")


@dataclass(frozen=True)
class _Emission:
    pos: int  # encoded frame whose attention triggers the emission
    token: int
    onset: int | None  # encoded segment start; None when no onset is required


@dataclass
class _OracleEncState:
    pending: np.ndarray | None = None  # raw frames not yet pooled
    finished: bool = False


class OracleModel:
    """Alignment-driven scripted model; one instance per synthetic utterance."""

    def __init__(self, mode: OracleMode, vocab: Vocab, alignment: Alignment, total_reduction: int = 4):
        self.mode = mode
        self.vocab = vocab
        self.alignment = alignment
        self.total_reduction = total_reduction
        self.silence_aware = mode.mode == "silence_aware"
        # the skipping end symbol reads the buffer length, so appended frames can change a selected step
        self.stable_steps = self.silence_aware
        self._owner = self._encoded_owners()
        self._num_encoded = len(self._owner)
        self._spans = self._segment_spans()
        self._schedule = self._build_schedule()
        self._positions = [entry.pos for entry in self._schedule]
        self._log_prob_rows = [self._log_probs(token) for token in range(vocab.size)]

    # --- encoding: mean-pool groups of total_reduction raw frames ---

    def encoder_reset(self) -> _OracleEncState:
        return _OracleEncState()

    def encoder_push(self, enc_state: _OracleEncState, frames: np.ndarray) -> np.ndarray:
        if enc_state.finished:
            raise RuntimeError("push after finish")
        frames = np.asarray(frames, dtype=np.float64)
        rows = frames if enc_state.pending is None else np.concatenate([enc_state.pending, frames])
        r = self.total_reduction
        n = rows.shape[0] // r * r
        enc_state.pending = rows[n:].copy()
        return rows[:n].reshape(-1, r, rows.shape[1]).mean(axis=1)

    def encoder_finish(self, enc_state: _OracleEncState) -> np.ndarray:
        if enc_state.finished:
            raise RuntimeError("encoder already finished")
        enc_state.finished = True
        rows, enc_state.pending = enc_state.pending, None
        if rows is None or not len(rows):
            return np.zeros((0, 0))
        pad = np.repeat(rows[-1:], self.total_reduction - len(rows), axis=0)
        return np.concatenate([rows, pad]).mean(axis=0)[None, :]

    # --- emission schedule from the ground-truth alignment ---

    def _encoded_owners(self) -> list[int]:
        """Majority owner segment of each encoded frame (ties to the earlier one)."""
        segments = self.alignment.segments
        r = self.total_reduction
        raw = np.repeat(np.arange(len(segments)), [seg.length for seg in segments])
        pad = np.full(-len(raw) % r, len(segments) - 1)  # finish() pads with copies of the final frame
        groups = np.concatenate([raw, pad]).reshape(-1, r)
        counts = (groups[:, :, None] == groups[:, None, :]).sum(axis=2)
        winners = np.where(counts == counts.max(axis=1, keepdims=True), groups, len(segments))
        owners = winners.min(axis=1)
        if np.any(owners[1:] < owners[:-1]):
            raise RuntimeError("non-monotone encoded-frame ownership")
        return owners.tolist()

    def _segment_spans(self) -> list[tuple[int, int]]:
        """Encoded frames ``[start, end)`` each segment owns; (0, 0) if none."""
        index = np.arange(len(self.alignment.segments))
        starts = np.searchsorted(self._owner, index, side="left").tolist()
        ends = np.searchsorted(self._owner, index, side="right").tolist()
        return [(s, e) if s < e else (0, 0) for s, e in zip(starts, ends)]

    def _build_schedule(self) -> list[_Emission]:
        """Each word at its last encoded frame; each silence gets the labeler's token count."""
        d = self.mode.sil_duration_encoded
        labeler = LabelerConfig(d, self.mode.min_silence_encoded)
        schedule: list[_Emission] = []
        for seg, (s, e) in zip(self.alignment.segments, self._spans):
            if e <= s:
                continue
            if not seg.is_silence:
                schedule.append(_Emission(pos=e - 1, token=self.vocab.id_of(seg.label), onset=s))
            elif self.silence_aware:
                for k in range(1, silence_tokens_for(e - s, labeler) + 1):
                    schedule.append(_Emission(pos=min(s + k * d, e) - 1, token=self.vocab.sil_id, onset=None))
        if any(schedule[i].pos >= schedule[i + 1].pos for i in range(len(schedule) - 1)):
            raise RuntimeError("oracle emission schedule is not strictly increasing")
        return schedule

    # --- decoding interface ---

    def decode_start(self):
        return None

    def _log_probs(self, token: int) -> np.ndarray:
        probs = np.full(self.vocab.size, ORACLE_EPS / (self.vocab.size - 1))
        probs[token] = 1.0 - ORACLE_EPS
        return np.log(probs)

    def _emit(self, token: int, pos: int, frames: np.ndarray, forced: bool = False) -> StepOutput:
        att = AttentionStepResult(
            status="selected",
            context=frames[pos],
            selected_index=pos,
            peak_index=pos,
            forced=forced,
        )
        return StepOutput(log_probs=self._log_prob_rows[token], dec_state=None, att=att)

    def decode_steps(self, dec_states, prev_tokens, buffer, att_states, buffer_complete, force=False):
        """``decode_step`` over the frames of ``buffer`` once per distinct
        attention position: every hypothesis at one position gets the same
        ``StepOutput`` object, because the step reads only the position, the
        frames and the flags (every oracle decoder state is None)."""
        frames = buffer.array
        steps: dict[int, StepOutput] = {}
        for dec_state, prev_token, att_state in zip(dec_states, prev_tokens, att_states):
            if att_state.prev_index not in steps:
                steps[att_state.prev_index] = self.decode_step(
                    dec_state, prev_token, frames, att_state, buffer_complete, force)
        return [steps[att_state.prev_index] for att_state in att_states]

    def decode_step(
        self,
        dec_state,
        prev_token: int,
        frames: np.ndarray,
        att_state: AttentionState,
        buffer_complete: bool,
        force: bool = False,
    ) -> StepOutput:
        """The scripted step of a hypothesis attending ``att_state.prev_index``
        over ``frames``. ``prev_token`` is not read, and ``dec_state`` (None
        from ``decode_start``) is only handed back by a stalled step. The
        output's log-prob row is shared by every step emitting its token, so
        no caller may write to it."""
        n = frames.shape[0]
        if n > self._num_encoded:
            raise ValueError(
                f"oracle saw {n} encoded frames but its alignment describes {self._num_encoded}; "
                "oracle models only decode the utterance they were built for"
            )
        prev = att_state.prev_index

        nxt = None
        for i in range(bisect.bisect_right(self._positions, prev), len(self._schedule)):
            entry = self._schedule[i]
            if entry.onset is None or entry.onset > prev:
                nxt = entry
                break

        if nxt is not None and nxt.pos < n:
            return self._emit(nxt.token, nxt.pos, frames)

        if not self.silence_aware:
            # every visible frame after prev is silence or a word already
            # scanned past: no word onset lies in (prev, n)
            if n - 1 > prev and (nxt is None or nxt.onset >= n):
                return self._emit(self.vocab.eos_id, prev + 1, frames)
            if nxt is None and buffer_complete and n > 0 and prev >= n - 1:
                return self._emit(self.vocab.eos_id, n - 1, frames)
        elif nxt is None and buffer_complete and n > 0:
            return self._emit(self.vocab.eos_id, n - 1, frames)

        if force and 0 < n:
            return self._emit(self.vocab.eos_id, n - 1, frames, forced=True)
        return StepOutput(log_probs=None, dec_state=dec_state, att=AttentionStepResult(status="exhausted"))
