import pytest

from silstream.data import parse_alignment
from silstream.labeler import LabelerConfig, insert_silence, label_corpus, silence_tokens_for
from silstream.vocab import strip_nonscoring

from support import VOCAB

A, B, C = (VOCAB.id_of(t) for t in "abc")


class TestSilenceTokensFor:
    def test_two_full_windows(self):
        # 48 silence frames at 24 frames per token (the 240ms setting)
        assert silence_tokens_for(48, LabelerConfig(duration_frames=24)) == 2

    def test_below_minimum_gets_none(self):
        cfg = LabelerConfig(duration_frames=24, min_segment_frames=12)
        assert silence_tokens_for(11, cfg) == 0

    def test_partial_window_above_minimum_gets_one(self):
        cfg = LabelerConfig(duration_frames=24, min_segment_frames=12)
        assert silence_tokens_for(30, cfg) == 1

    def test_default_minimum_is_half_duration(self):
        cfg = LabelerConfig(duration_frames=24)
        assert cfg.min_frames == 12

    def test_monotone_nonincreasing_in_duration(self):
        for length in (0, 5, 23, 24, 48, 100, 240):
            counts = [
                silence_tokens_for(length, LabelerConfig(duration_frames=n, min_segment_frames=0))
                for n in range(1, 64)
            ]
            assert counts == sorted(counts, reverse=True)


class TestInsertSilence:
    def test_mid_silence_48_frames(self):
        alignment = parse_alignment("a 0 8\nSIL 8 56\nb 56 64")
        cfg = LabelerConfig(duration_frames=24)
        assert insert_silence([A, B], alignment, cfg, VOCAB) == [A, VOCAB.sil_id, VOCAB.sil_id, B]

    def test_no_silence_leaves_reference_unchanged(self):
        alignment = parse_alignment("a 0 8\nb 8 16")
        assert insert_silence([A, B], alignment, LabelerConfig(24), VOCAB) == [A, B]

    def test_leading_and_trailing_silence_labeled(self):
        alignment = parse_alignment("SIL 0 24\na 24 32\nSIL 32 80")
        out = insert_silence([A], alignment, LabelerConfig(24), VOCAB)
        assert out == [VOCAB.sil_id, A, VOCAB.sil_id, VOCAB.sil_id]

    def test_strip_recovers_reference(self):
        alignment = parse_alignment("SIL 0 30\na 30 38\nSIL 38 62\nb 62 70\nSIL 70 100")
        for n in (6, 12, 24, 48):
            out = insert_silence([A, B], alignment, LabelerConfig(n), VOCAB)
            assert strip_nonscoring(out, VOCAB) == [A, B]

    def test_mismatch_names_divergence(self):
        alignment = parse_alignment("a 0 8\nb 8 16")
        with pytest.raises(ValueError, match="token 1"):
            insert_silence([A, C], alignment, LabelerConfig(24), VOCAB)

    def test_reference_longer_than_alignment(self):
        alignment = parse_alignment("a 0 8")
        with pytest.raises(ValueError, match="reference has 2"):
            insert_silence([A, B], alignment, LabelerConfig(24), VOCAB)

    def test_reference_with_reserved_token_rejected(self):
        alignment = parse_alignment("a 0 8")
        with pytest.raises(ValueError):
            insert_silence([VOCAB.sil_id], alignment, LabelerConfig(24), VOCAB)


class TestLabelCorpus:
    def refs_and_alignments(self):
        refs = {
            "u1": [A, B],
            "u2": [C],
            "u3": [B, A],
        }
        alignments = {
            "u1": parse_alignment("a 0 8\nSIL 8 56\nb 56 64"),
            "u2": parse_alignment("c 0 8"),
            "u3": parse_alignment("b 0 8\nSIL 8 40\na 40 48"),
        }
        return refs, alignments

    def test_empty_corpus(self):
        labeled, stats = label_corpus({}, {}, LabelerConfig(24), VOCAB)
        assert labeled == {} and stats.silence_tokens == 0

    def test_only_silent_utterances_change(self):
        refs, alignments = self.refs_and_alignments()
        labeled, stats = label_corpus(refs, alignments, LabelerConfig(24), VOCAB)
        assert stats.utterances == 3
        assert stats.changed == 2
        assert labeled["u2"] == [C]

    def test_halving_duration_does_not_reduce_silence_tokens(self):
        refs, alignments = self.refs_and_alignments()
        _, coarse = label_corpus(refs, alignments, LabelerConfig(48), VOCAB)
        _, fine = label_corpus(refs, alignments, LabelerConfig(24), VOCAB)
        assert fine.silence_tokens >= coarse.silence_tokens

    def test_missing_alignment_lists_ids(self):
        refs, alignments = self.refs_and_alignments()
        del alignments["u2"]
        with pytest.raises(ValueError, match="u2"):
            label_corpus(refs, alignments, LabelerConfig(24), VOCAB)
