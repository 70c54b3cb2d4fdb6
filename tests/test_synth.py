import hashlib
import re

import numpy as np
import pytest

from silstream.attention import AttentionState
from silstream.synth import (
    MIN_PATTERN_DISTANCE,
    CorpusSpec,
    OracleMode,
    OracleModel,
    SynthConfig,
    Utterance,
    gen_corpus,
    gen_utterance,
    load_corpus,
    save_corpus,
    token_patterns,
)
from silstream.vocab import SIL_LABEL, make_vocab

from support import encode, silence_token_count


@pytest.fixture
def vocab():
    return make_vocab(["a", "b", "c"])


@pytest.fixture
def cfg(vocab):
    return SynthConfig(vocab=vocab, feature_dim=8, frames_per_token=8)


class TestGenerator:
    def test_construction_arithmetic(self, cfg, vocab):
        utt = gen_utterance(cfg, seed=1, tokens=vocab.encode(["a", "b"]), silence_layout=[(1, 100)])
        assert utt.features.num_frames == 2 * cfg.frames_per_token + 100
        assert len(utt.alignment.segments) == 3
        assert [s.label for s in utt.alignment.segments] == ["a", SIL_LABEL, "b"]

    def test_all_silence_utterance(self, cfg):
        utt = gen_utterance(cfg, seed=2, tokens=[], silence_layout=[(0, 50)])
        assert utt.features.num_frames == 50
        assert utt.alignment.segments[0].label == SIL_LABEL
        np.testing.assert_array_equal(utt.features.frames, np.zeros((50, 8)))

    def test_deterministic_per_seed(self, cfg, vocab):
        noisy = SynthConfig(vocab=vocab, feature_dim=8, frames_per_token=8, noise_sigma=0.1)
        one = gen_utterance(noisy, seed=3, tokens=vocab.encode(["a"]), silence_layout=[(1, 10)])
        two = gen_utterance(noisy, seed=3, tokens=vocab.encode(["a"]), silence_layout=[(1, 10)])
        np.testing.assert_array_equal(one.features.frames, two.features.frames)

    def test_position_out_of_range(self, cfg, vocab):
        with pytest.raises(ValueError, match="out of range"):
            gen_utterance(cfg, seed=4, tokens=vocab.encode(["a"]), silence_layout=[(5, 10)])

    def test_frames_match_alignment_labels(self, cfg, vocab):
        utt = gen_utterance(cfg, seed=5, tokens=vocab.encode(["a", "b"]), silence_layout=[(1, 12), (2, 8)])
        patterns = token_patterns(cfg)
        for seg in utt.alignment.segments:
            block = utt.features.frames[seg.start : seg.end]
            want = np.zeros(8) if seg.is_silence else patterns[vocab.id_of(seg.label)]
            np.testing.assert_array_equal(block, np.tile(want, (seg.length, 1)))

    def test_patterns_separated(self, cfg):
        patterns = token_patterns(cfg)
        content = [i for i in range(cfg.vocab.size)
                   if i not in (cfg.vocab.bos_id, cfg.vocab.eos_id, cfg.vocab.sil_id)]
        for i in content:
            for j in content:
                if i < j:
                    assert np.linalg.norm(patterns[i] - patterns[j]) >= MIN_PATTERN_DISTANCE

    def test_patterns_drawn_once_and_read_only(self, cfg):
        assert token_patterns(cfg) is token_patterns(cfg)
        with pytest.raises(ValueError):
            token_patterns(cfg)[1, 0] = 0.0

    @pytest.mark.parametrize("noise, tokens, dim, digest", [
        (0.0, 3, 8, "aa2752c7ae9fe4d1"), (0.05, 5, 8, "977c2128f3b85cbe"), (0.1, 4, 3, "e653a210fab740cc"),
    ])
    def test_corpus_bytes_unchanged(self, noise, tokens, dim, digest):
        # digests of corpora generated before the patterns were drawn once per config
        cfg = SynthConfig(vocab=make_vocab([f"t{i}" for i in range(tokens)]), feature_dim=dim,
                          frames_per_token=8, noise_sigma=noise)
        h = hashlib.sha256()
        for utt_id, utt in gen_corpus(cfg, CorpusSpec(num_utterances=12, lead_silence_prob=0.3), seed=7).items():
            h.update(utt_id.encode())
            h.update(np.ascontiguousarray(utt.features.frames, dtype="<f8").tobytes())
            h.update(repr((utt.tokens, [(s.label, s.start, s.end) for s in utt.alignment.segments])).encode())
        assert h.hexdigest()[:16] == digest

    @pytest.mark.parametrize("field, message", [
        ({"num_utterances": -1}, "num_utterances must be >= 0"),
        ({"min_tokens": -1}, "0 <= min_tokens <= max_tokens, got -1 and 5"),
        ({"lead_silence_prob": -0.5}, "lead_silence_prob must be in [0, 1], got -0.5"),
        ({"trail_silence_prob": float("nan")}, "trail_silence_prob must be in [0, 1], got nan"),
        ({"lead_silence_frames": (0, 4)}, "lead_silence_frames needs 1 <= low <= high, got (0, 4)"),
        ({"trail_silence_frames": (9, 8)}, "trail_silence_frames needs 1 <= low <= high, got (9, 8)"),
        ({"min_tokens": 0, "trail_silence_prob": 0.5}, "min_tokens 0 draws empty utterances unless"),
    ])
    def test_corpus_spec_refuses_invalid_fields(self, field, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CorpusSpec(**field)

    @pytest.mark.parametrize("field", [{"trail_silence_prob": 1.0},
                                       {"lead_silence_prob": 1.0, "trail_silence_prob": 0.0}])
    def test_spec_with_no_tokens_draws_a_silence(self, cfg, field):
        corpus = gen_corpus(cfg, CorpusSpec(num_utterances=8, min_tokens=0, max_tokens=0, **field), seed=3)
        assert all(not utt.tokens and utt.alignment.segments for utt in corpus.values())

    def test_corpus_generation_and_roundtrip(self, cfg, vocab, tmp_path):
        corpus = gen_corpus(cfg, CorpusSpec(num_utterances=5, align_to=4), seed=9)
        assert len(corpus) == 5
        save_corpus(corpus, vocab, str(tmp_path))
        loaded, loaded_vocab = load_corpus(str(tmp_path))
        assert loaded_vocab.tokens == vocab.tokens
        for utt_id, utt in corpus.items():
            assert loaded[utt_id].tokens == utt.tokens
            assert loaded[utt_id].alignment == utt.alignment
            np.testing.assert_allclose(loaded[utt_id].features.frames, utt.features.frames)


def oracle_for(utt: Utterance, vocab, mode="silence_aware", d=2, min_sil=1, reduction=4):
    return OracleModel(
        OracleMode(mode, sil_duration_encoded=d, min_silence_encoded=min_sil),
        vocab, utt.alignment, total_reduction=reduction,
    )


def run_steps(model, frames, buffer_complete=True, max_steps=64):
    """Drive the oracle's step interface directly; returns emitted token ids."""
    out = []
    state = AttentionState()
    dec = model.decode_start()
    prev = model.vocab.bos_id
    for _ in range(max_steps):
        step = model.decode_step(dec, prev, frames, state, buffer_complete)
        if step.stalled:
            break
        token = int(np.argmax(step.log_probs))
        out.append(token)
        state = AttentionState(prev_index=step.att.selected_index)
        prev = token
        dec = step.dec_state
        if token == model.vocab.eos_id:
            break
    return out


class TestOracleEncoder:
    def test_mean_pool_streaming_equals_one_shot(self, cfg, vocab):
        utt = gen_utterance(cfg, seed=6, tokens=vocab.encode(["a", "b"]), silence_layout=[(1, 13)])
        model = oracle_for(utt, vocab)
        one = encode(model, utt.features.frames)
        state = model.encoder_reset()
        parts = [model.encoder_push(state, utt.features.frames[:5]),
                 model.encoder_push(state, utt.features.frames[5:20]),
                 model.encoder_push(state, utt.features.frames[20:]),
                 model.encoder_finish(state)]
        streamed = np.vstack([p for p in parts if p.size])
        np.testing.assert_allclose(streamed, one)

    def test_finish_pads_with_last_frame(self, cfg, vocab):
        utt = gen_utterance(cfg, seed=7, tokens=vocab.encode(["a"]), silence_layout=[(1, 5)])
        model = oracle_for(utt, vocab)
        encoded = encode(model, utt.features.frames)
        assert encoded.shape[0] == -(-utt.features.num_frames // 4)


class TestAwareOracle:
    def test_four_silence_frames_duration_two_gives_two_sil(self, cfg, vocab):
        # silence spans 16 raw = 4 encoded frames; duration 2 -> exactly 2 SIL
        utt = gen_utterance(cfg, seed=8, tokens=vocab.encode(["a", "b"]), silence_layout=[(1, 16)])
        model = oracle_for(utt, vocab, d=2)
        assert silence_token_count(model) == 2

    def test_noiseless_single_token_emits_token_then_eos(self, cfg, vocab):
        utt = gen_utterance(cfg, seed=9, tokens=vocab.encode(["b"]), silence_layout=[])
        model = oracle_for(utt, vocab)
        tokens = run_steps(model, encode(model, utt.features.frames))
        assert tokens == [vocab.id_of("b"), vocab.eos_id]

    def test_eos_only_after_final_frame_attended(self, cfg, vocab):
        utt = gen_utterance(cfg, seed=10, tokens=vocab.encode(["a"]), silence_layout=[(1, 8)])
        model = oracle_for(utt, vocab, d=2)
        frames = encode(model, utt.features.frames)
        partial = run_steps(model, frames[:-1], buffer_complete=False)
        assert vocab.eos_id not in partial
        full = run_steps(model, frames, buffer_complete=True)
        assert full[-1] == vocab.eos_id

    def test_min_silence_skips_short_segments(self, cfg, vocab):
        # 4 raw frames = 1 encoded frame, below min_silence_encoded=2
        utt = gen_utterance(cfg, seed=11, tokens=vocab.encode(["a", "b"]), silence_layout=[(1, 4)])
        model = oracle_for(utt, vocab, d=2, min_sil=2)
        assert silence_token_count(model) == 0

    def test_short_but_admissible_silence_gets_one_sil(self, cfg, vocab):
        # 8 raw = 2 encoded frames, duration 6: floor = 0 but >= min -> one SIL
        utt = gen_utterance(cfg, seed=12, tokens=vocab.encode(["a", "b"]), silence_layout=[(1, 8)])
        model = oracle_for(utt, vocab, d=6, min_sil=1)
        assert silence_token_count(model) == 1


class TestSkippingOracle:
    def test_trailing_silence_with_unseen_speech_panics(self, cfg, vocab):
        utt = gen_utterance(cfg, seed=13, tokens=vocab.encode(["a", "b"]), silence_layout=[(1, 96)])
        model = oracle_for(utt, vocab, mode="silence_skipping")
        frames = encode(model, utt.features.frames)
        # buffer cut inside the silence: 'a' then only silence visible
        cut = frames[: (8 + 48) // 4]
        state = AttentionState()
        step = model.decode_step(None, vocab.bos_id, cut, state, buffer_complete=False)
        assert int(np.argmax(step.log_probs)) == vocab.id_of("a")
        state = AttentionState(prev_index=step.att.selected_index)
        step = model.decode_step(None, vocab.id_of("a"), cut, state, buffer_complete=False)
        assert np.exp(step.log_probs[vocab.eos_id]) > 0.99
        assert step.att.selected_index == step.att.peak_index

    def test_offline_skips_silence_cleanly(self, cfg, vocab):
        utt = gen_utterance(cfg, seed=14, tokens=vocab.encode(["a", "b"]), silence_layout=[(1, 96), (2, 24)])
        model = oracle_for(utt, vocab, mode="silence_skipping")
        tokens = run_steps(model, encode(model, utt.features.frames))
        assert tokens == [vocab.id_of("a"), vocab.id_of("b"), vocab.eos_id]

    def test_waits_when_speech_onset_visible(self, cfg, vocab):
        utt = gen_utterance(cfg, seed=15, tokens=vocab.encode(["a", "b"]), silence_layout=[(1, 16)])
        model = oracle_for(utt, vocab, mode="silence_skipping")
        frames = encode(model, utt.features.frames)
        # cut inside b's segment: onset visible but incomplete -> stall, not EOS
        cut = frames[: (8 + 16 + 4) // 4]
        state = AttentionState(prev_index=1)  # after 'a'
        step = model.decode_step(None, vocab.id_of("a"), cut, state, buffer_complete=False)
        assert step.stalled


class TestOracleGuards:
    def test_foreign_buffer_rejected(self, cfg, vocab):
        utt = gen_utterance(cfg, seed=16, tokens=vocab.encode(["a"]), silence_layout=[])
        model = oracle_for(utt, vocab)
        too_long = np.zeros((99, 8))
        with pytest.raises(ValueError, match="oracle"):
            model.decode_step(None, vocab.bos_id, too_long, AttentionState(), True)

    def test_double_finish_rejected(self, cfg, vocab):
        utt = gen_utterance(cfg, seed=17, tokens=vocab.encode(["a"]), silence_layout=[])
        model = oracle_for(utt, vocab)
        state = model.encoder_reset()
        model.encoder_push(state, utt.features.frames)
        model.encoder_finish(state)
        with pytest.raises(RuntimeError):
            model.encoder_finish(state)
