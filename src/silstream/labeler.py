"""Insert silence tokens into reference transcripts from forced alignments.

Each silence token stands for a fixed number of silence frames (its
"duration"), so a silence segment receives one token per completed duration
window, and at least one if it clears a minimum length. Training on such
references teaches a model to narrate pauses instead of ending the
utterance.
"""
from __future__ import annotations

from dataclasses import dataclass

from .data import Alignment
from .vocab import Vocab


@dataclass(frozen=True)
class LabelerConfig:
    duration_frames: int = 24
    min_segment_frames: int | None = None  # defaults to duration_frames // 2

    def __post_init__(self):
        if self.duration_frames < 1:
            raise ValueError("duration_frames must be >= 1")
        if self.min_segment_frames is not None and self.min_segment_frames < 0:
            raise ValueError("min_segment_frames must be >= 0")

    @property
    def min_frames(self) -> int:
        if self.min_segment_frames is None:
            return self.duration_frames // 2
        return self.min_segment_frames


def silence_tokens_for(length_frames: int, cfg: LabelerConfig) -> int:
    """Silence-token count for one silence segment of the given length."""
    if length_frames < cfg.min_frames:
        return 0
    return max(1, length_frames // cfg.duration_frames)


def insert_silence(reference: list[int], alignment: Alignment, cfg: LabelerConfig, vocab: Vocab) -> list[int]:
    """Weave silence tokens into a clean reference using its alignment.

    The alignment's non-silence labels must match the reference tokens in
    order; leading, internal, and trailing silence segments are treated the
    same way.
    """
    for t in reference:
        if t in vocab.reserved:
            raise ValueError("reference must not already contain reserved tokens")
    out: list[int] = []
    pos = 0
    for idx, seg in enumerate(alignment.segments):
        if seg.is_silence:
            out.extend([vocab.sil_id] * silence_tokens_for(seg.length, cfg))
            continue
        if pos >= len(reference):
            raise ValueError(
                f"alignment segment {idx} ({seg.label!r}) has no matching reference token"
            )
        if vocab.token_of(reference[pos]) != seg.label:
            raise ValueError(
                f"alignment/reference mismatch at token {pos}: "
                f"alignment says {seg.label!r}, reference says {vocab.token_of(reference[pos])!r}"
            )
        out.append(reference[pos])
        pos += 1
    if pos != len(reference):
        raise ValueError(f"alignment covers {pos} tokens but reference has {len(reference)}")
    return out


@dataclass
class LabelStats:
    utterances: int = 0
    changed: int = 0
    silence_tokens: int = 0
    segments_skipped: int = 0


def label_corpus(
    references: dict[str, list[int]],
    alignments: dict[str, Alignment],
    cfg: LabelerConfig,
    vocab: Vocab,
) -> tuple[dict[str, list[int]], LabelStats]:
    missing = sorted(set(references) - set(alignments))
    if missing:
        raise ValueError(f"alignments missing for utterances: {', '.join(missing)}")
    stats = LabelStats()
    labeled = {}
    for utt_id, ref in references.items():
        alignment = alignments[utt_id]
        out = insert_silence(ref, alignment, cfg, vocab)
        labeled[utt_id] = out
        stats.utterances += 1
        added = len(out) - len(ref)
        stats.silence_tokens += added
        if added:
            stats.changed += 1
        stats.segments_skipped += sum(
            1 for seg in alignment.segments if seg.is_silence and silence_tokens_for(seg.length, cfg) == 0
        )
    return labeled, stats
