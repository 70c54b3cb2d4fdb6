"""Acoustic feature matrices, frame-level alignments, and their file formats.

All timing in this package is expressed in feature frames (one frame per
``frame_shift_ms`` of audio) unless a name says otherwise. Converters between
milliseconds and encoded (downsampled) frames are explicit so no module has
to guess units.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .vocab import SIL_LABEL


@dataclass
class FeatureSequence:
    """A T x D matrix of acoustic features plus frame timing metadata."""

    frames: np.ndarray
    frame_shift_ms: int = 10
    frame_window_ms: int = 25

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.frames.shape}")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("features contain non-finite values")
        if self.frame_shift_ms <= 0 or self.frame_window_ms <= 0:
            raise ValueError("frame_shift_ms and frame_window_ms must be positive")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    @property
    def duration_ms(self) -> int:
        return self.num_frames * self.frame_shift_ms


@dataclass(frozen=True)
class Segment:
    label: str
    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def is_silence(self) -> bool:
        return self.label == SIL_LABEL


@dataclass(frozen=True)
class Alignment:
    """Contiguous, non-overlapping token/silence segments covering [0, T)."""

    segments: tuple[Segment, ...] = field(default_factory=tuple)

    def __post_init__(self):
        expected = 0
        for seg in self.segments:
            if seg.end <= seg.start:
                raise ValueError(f"segment {seg.label!r} has end {seg.end} <= start {seg.start}")
            if seg.start != expected:
                kind = "overlap" if seg.start < expected else "gap"
                raise ValueError(
                    f"{kind} at frame {seg.start}: segment {seg.label!r} should start at {expected}"
                )
            expected = seg.end

    def last_speech_end_frame(self) -> int | None:
        speech = [s for s in self.segments if not s.is_silence]
        return speech[-1].end if speech else None


def ms_to_encoded_frames(ms: float, frame_shift_ms: int, total_reduction: int) -> int:
    """How many encoded (downsampled) frames fit in ``ms`` of audio."""
    if frame_shift_ms <= 0:
        raise ValueError(f"frame_shift_ms must be positive, got {frame_shift_ms}")
    if total_reduction <= 0:
        raise ValueError(f"total_reduction must be positive, got {total_reduction}")
    if ms < 0:
        raise ValueError(f"duration must be nonnegative, got {ms}")
    return int(ms // (frame_shift_ms * total_reduction))


def parse_alignment(text: str) -> Alignment:
    """Parse ``label start_frame end_frame`` lines into an Alignment."""
    segments = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'label start end', got {raw!r}")
        label = parts[0]
        try:
            start, end = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer frame index in {raw!r}") from None
        segments.append(Segment(label, start, end))
    try:
        return Alignment(tuple(segments))
    except ValueError as e:
        raise ValueError(f"invalid alignment: {e}") from None


def format_alignment(alignment: Alignment) -> str:
    return "".join(f"{s.label} {s.start} {s.end}\n" for s in alignment.segments)


def parse_alignment_corpus(text: str) -> dict[str, Alignment]:
    """Parse per-utterance alignment blocks, each introduced by ``# utt_id``."""
    blocks: dict[str, list[str]] = {}
    current: list[str] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            utt_id = line[1:].strip()
            if not utt_id:
                raise ValueError("alignment block header with empty utterance id")
            if utt_id in blocks:
                raise ValueError(f"duplicate alignment block for utterance {utt_id!r}")
            current = blocks.setdefault(utt_id, [])
        elif line:
            if current is None:
                raise ValueError("alignment line before any '# utt_id' header")
            current.append(line)
    out = {}
    for utt_id, lines in blocks.items():
        try:
            out[utt_id] = parse_alignment("\n".join(lines))
        except ValueError as e:
            raise ValueError(f"utterance {utt_id!r}: {e}") from None
    return out


def format_alignment_corpus(alignments: dict[str, Alignment]) -> str:
    parts = []
    for utt_id in alignments:
        parts.append(f"# {utt_id}\n")
        parts.append(format_alignment(alignments[utt_id]))
    return "".join(parts)


def write_features(features: FeatureSequence, path: str) -> None:
    """Text feature file: header ``D frame_shift_ms frame_window_ms T`` then T rows."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(
            f"{features.dim} {features.frame_shift_ms} "
            f"{features.frame_window_ms} {features.num_frames}\n"
        )
        for row in features.frames:
            f.write(" ".join(repr(float(x)) for x in row) + "\n")


def read_features(path: str) -> FeatureSequence:
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline().split()
            if len(header) != 4:
                raise ValueError(f"bad feature header {header!r}")
            dim, shift, window, num = (int(x) for x in header)
            lines = [line for line in f if line.strip()]  # loadtxt warns when it gets none
            rows = np.loadtxt(lines, dtype=np.float64, ndmin=2) if lines else np.zeros((0, dim))
        if rows.shape != (num, dim):
            raise ValueError(f"expected {num}x{dim} features, got {rows.shape}")
        return FeatureSequence(rows, frame_shift_ms=shift, frame_window_ms=window)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_references(path: str) -> dict[str, list[str]]:
    """Reference file: ``utt_id<TAB>space-separated tokens`` per line."""
    refs: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'utt_id<TAB>tokens'")
            utt_id, rest = line.split("\t", 1)
            if utt_id in refs:
                raise ValueError(f"{path}:{lineno}: duplicate utterance id {utt_id!r}")
            refs[utt_id] = rest.split()
    return refs


def write_references(refs: dict[str, list[str]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for utt_id, tokens in refs.items():
            f.write(f"{utt_id}\t{' '.join(tokens)}\n")
