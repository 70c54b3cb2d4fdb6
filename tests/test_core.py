import numpy as np
import pytest

from silstream.data import (
    Alignment,
    FeatureSequence,
    Segment,
    format_alignment,
    format_alignment_corpus,
    ms_to_encoded_frames,
    parse_alignment,
    parse_alignment_corpus,
    read_features,
    read_references,
    write_features,
    write_references,
)
from silstream.vocab import Vocab, load_vocab, make_vocab, save_vocab, strip_nonscoring

from support import alignment_frames


@pytest.fixture
def vocab():
    return make_vocab(["a", "b", "c"])


class TestVocab:
    def test_reserved_ids_distinct(self, vocab):
        assert len({vocab.bos_id, vocab.eos_id, vocab.sil_id}) == 3
        assert vocab.reserved == {vocab.bos_id, vocab.eos_id, vocab.sil_id}
        assert vocab.size == 6

    def test_ids_dense(self, vocab):
        assert [vocab.id_of(t) for t in vocab.tokens] == list(range(vocab.size))

    def test_missing_reserved_token_rejected(self):
        with pytest.raises(ValueError):
            Vocab(("a", "b", "c", "d"))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            Vocab(("<bos>", "<eos>", "<sil>"))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            make_vocab(["a", "a"])

    def test_token_of_out_of_range_rejected(self, vocab):
        assert vocab.token_of(vocab.size - 1) == vocab.tokens[-1]
        for token_id in (-1, vocab.size):
            with pytest.raises(ValueError) as exc:
                vocab.token_of(token_id)
            assert str(exc.value) == f"token id {token_id} out of range [0, {vocab.size})"

    def test_roundtrip_file(self, vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        assert load_vocab(path).tokens == vocab.tokens


class TestStripNonscoring:
    def test_reserved_removed_order_kept(self, vocab):
        a, b = vocab.id_of("a"), vocab.id_of("b")
        seq = [vocab.bos_id, a, vocab.sil_id, b, vocab.eos_id]
        assert strip_nonscoring(seq, vocab) == [a, b]

    def test_empty(self, vocab):
        assert strip_nonscoring([], vocab) == []

    def test_all_silence(self, vocab):
        assert strip_nonscoring([vocab.sil_id, vocab.sil_id], vocab) == []

    def test_idempotent(self, vocab):
        a = vocab.id_of("a")
        seq = [vocab.bos_id, a, vocab.sil_id, vocab.eos_id]
        once = strip_nonscoring(seq, vocab)
        assert strip_nonscoring(once, vocab) == once

    def test_unknown_id_rejected(self, vocab):
        with pytest.raises(ValueError):
            strip_nonscoring([vocab.size], vocab)


class TestMsToEncodedFrames:
    def test_buffer_in_encoded_frames(self):
        assert ms_to_encoded_frames(960, 10, 8) == 12

    def test_zero_duration(self):
        assert ms_to_encoded_frames(0, 10, 8) == 0

    def test_batch_in_encoded_frames(self):
        assert ms_to_encoded_frames(320, 10, 8) == 4

    def test_monotone_in_ms(self):
        values = [ms_to_encoded_frames(ms, 10, 4) for ms in range(0, 2000, 7)]
        assert values == sorted(values)

    @pytest.mark.parametrize("shift,reduction", [(0, 8), (-1, 8), (10, 0), (10, -2)])
    def test_invalid_arguments(self, shift, reduction):
        with pytest.raises(ValueError):
            ms_to_encoded_frames(100, shift, reduction)


class TestAlignment:
    def test_parse_basic(self):
        alignment = parse_alignment("a 0 50\nSIL 50 150\nb 150 200\n")
        assert len(alignment.segments) == 3
        assert alignment_frames(alignment) == 200
        assert alignment.segments[1].is_silence

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            parse_alignment("a 0 50\nb 40 90")

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="gap"):
            parse_alignment("a 0 50\nb 60 90")

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError):
            parse_alignment("a 10 10")

    def test_empty_text(self):
        alignment = parse_alignment("")
        assert alignment.segments == ()
        assert alignment_frames(alignment) == 0

    def test_roundtrip_canonical(self):
        text = "a 0 50\nSIL 50 150\nb 150 200\n"
        assert format_alignment(parse_alignment(text)) == text
        # whitespace-noisy input canonicalizes to the same form
        noisy = "a  0  50\n\nSIL 50 150\nb 150   200"
        assert format_alignment(parse_alignment(noisy)) == text

    def test_last_speech_end(self):
        alignment = parse_alignment("SIL 0 10\na 10 20\nSIL 20 40")
        assert alignment.last_speech_end_frame() == 20
        silence_only = parse_alignment("SIL 0 40")
        assert silence_only.last_speech_end_frame() is None

    def test_corpus_blocks_roundtrip(self):
        alignments = {
            "u1": parse_alignment("a 0 8\nSIL 8 20"),
            "u2": parse_alignment("b 0 4"),
        }
        text = format_alignment_corpus(alignments)
        parsed = parse_alignment_corpus(text)
        assert parsed == alignments

    def test_corpus_duplicate_block_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_alignment_corpus("# u1\na 0 5\n# u1\nb 0 5")


class TestFeatureFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = FeatureSequence(rng.normal(size=(7, 3)), frame_shift_ms=10, frame_window_ms=25)
        path = tmp_path / "utt.feat"
        write_features(feats, path)
        back = read_features(path)
        assert back.frame_shift_ms == 10
        assert back.frame_window_ms == 25
        np.testing.assert_array_equal(back.frames, feats.frames)

    def test_empty_utterance(self, tmp_path):
        feats = FeatureSequence(np.zeros((0, 4)))
        path = tmp_path / "empty.feat"
        write_features(feats, path)
        back = read_features(path)
        assert back.num_frames == 0
        assert back.dim == 4

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FeatureSequence(np.array([[np.nan, 0.0]]))

    def test_references_roundtrip(self, tmp_path):
        refs = {"u1": ["a", "b"], "u2": []}
        path = tmp_path / "refs.tsv"
        write_references(refs, path)
        assert read_references(path) == {"u1": ["a", "b"], "u2": []}

    def test_references_skip_blank_lines_and_refuse_a_duplicate_id(self, tmp_path):
        path = tmp_path / "refs.tsv"
        path.write_text("u1\ta b\n\n  \nu2\t\n")
        assert read_references(path) == {"u1": ["a", "b"], "u2": []}
        path.write_text("u1\ta\n\nu1\tb\n")
        with pytest.raises(ValueError) as exc:
            read_references(str(path))
        assert str(exc.value) == f"{path}:3: duplicate utterance id 'u1'"


def test_segment_helpers():
    seg = Segment("SIL", 5, 9)
    assert seg.length == 4
    assert seg.is_silence
    assert not Segment("a", 0, 1).is_silence
    with pytest.raises(ValueError):
        Alignment((Segment("a", 1, 2),))
