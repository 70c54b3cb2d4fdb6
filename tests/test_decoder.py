import hashlib
import json
from unittest import mock

import numpy as np
import pytest

from silstream import decoder
from silstream.data import FeatureSequence
from silstream.decoder import BeamConfig, EncodedBuffer, decode_step, initial_hypothesis
from silstream.model import StepOutput
from silstream.attention import AttentionStepResult
from silstream.streamer import StreamConfig, decode_offline, split_batches, stream_decode

from support import VOCAB, aware, encode, hyp_timeline, hyp_tokens, make_utt, neural_model, offline_best, skipping


def decode_plain(model, features, beam_cfg, batch_ms, min_buffer_ms):
    """The plain online baseline: one gate for every token class, no restricted region."""
    cfg = StreamConfig(batch_ms=batch_ms, min_buffer_ms=min_buffer_ms, sil_buffer_ms=min_buffer_ms, engine="plain")
    return stream_decode(model, features, cfg, beam_cfg)[0]


class TestDecodeStep:
    def test_greedy_matches_oracle_argmax(self):
        utt = make_utt(["a", "b"], [(1, 16)])
        model = aware(utt)
        buffer = EncodedBuffer()
        buffer.append(encode(model, utt.features.frames))
        beam = [initial_hypothesis(model)]
        beam, atts, _ = decode_step(model, beam, buffer, True, BeamConfig(beam_size=1))
        assert hyp_tokens(beam[0])[-1] == VOCAB.id_of("a")
        assert atts[0].status == "selected"

    def test_stalled_hypothesis_kept_not_dropped(self):
        utt = make_utt(["a"], [(1, 40)])
        model = aware(utt, d=6)
        buffer = EncodedBuffer()
        frames = encode(model, utt.features.frames)
        buffer.append(frames[:3])  # inside the pending silence window
        beam = [initial_hypothesis(model)]
        beam, _, _ = decode_step(model, beam, buffer, False, BeamConfig(beam_size=1))
        beam2, atts, _ = decode_step(model, beam, buffer, False, BeamConfig(beam_size=1))
        assert beam2 == beam  # 'a' emitted, then stall leaves the beam unchanged
        assert atts[0].status == "exhausted"

    def test_token_cap_forces_runaway_finish(self):
        utt = make_utt(["a"], [])
        model = aware(utt)
        buffer = EncodedBuffer()
        buffer.append(encode(model, utt.features.frames))
        cfg = BeamConfig(beam_size=1)
        beam = [initial_hypothesis(model)]
        with mock.patch.object(decoder, "CAP_BASE", 1), mock.patch.object(decoder, "CAP_PER_FRAME", 0):
            beam, _, _ = decode_step(model, beam, buffer, True, cfg)
            assert beam[0].emitted == 1 and not beam[0].finished
            beam, _, _ = decode_step(model, beam, buffer, True, cfg)
        assert beam[0].finished and beam[0].runaway
        assert hyp_tokens(beam[0])[-1] == VOCAB.eos_id

    def test_empty_beam_rejected(self):
        utt = make_utt(["a"], [])
        with pytest.raises(ValueError):
            decode_step(aware(utt), [], EncodedBuffer(), True, BeamConfig())


class TiedModel:
    """Scripted model: every step selects frame 0 and returns the same log-probs."""

    vocab = VOCAB

    def __init__(self, log_probs):
        self.log_probs = np.array(log_probs)

    def decode_start(self):
        return None

    def decode_steps(self, dec_states, prev_tokens, buffer, att_states, buffer_complete, force=False):
        att = AttentionStepResult(status="selected", selected_index=0, peak_index=0)
        return [StepOutput(self.log_probs, None, att) for _ in dec_states]


def argsort_beam_step(beam, log_probs, beam_size, block_eos):
    """(tokens, score) of the beam after one step, ranking each hypothesis'
    candidates by a stable argsort."""
    kept = [(hyp_tokens(h), h.log_score) for h in beam if h.finished]
    ranked = []
    for hyp in beam:
        if hyp.finished:
            continue
        order = [int(t) for t in np.argsort(-log_probs, kind="stable")[: beam_size + 1]]
        order = [t for t in order if not (block_eos and t == VOCAB.eos_id)][:beam_size]
        ranked += [(hyp_tokens(hyp) + (t,), hyp.log_score + log_probs[t]) for t in order]
    ranked.sort(key=lambda c: -c[1])
    return kept + ranked[: max(0, beam_size - len(kept))]


class TestRankingTies:
    # ids: <bos> 0, <eos> 1, <sil> 2, a 3, b 4, c 5
    @pytest.mark.parametrize("log_probs", [
        [-1.0, -1.0, -2.0, -1.0, -2.0, -1.0],  # <eos> tied inside the top beam_size + 1
        [-3.0, -1.5, -1.5, -1.5, -0.5, -1.5],
        [np.log(1 / 6)] * 6,
    ])
    @pytest.mark.parametrize("block_eos", [False, True])
    @pytest.mark.parametrize("beam_size", [1, 3, 5])
    def test_survivors_follow_stable_argsort(self, log_probs, block_eos, beam_size):
        log_probs = np.array(log_probs)
        assert VOCAB.eos_id in np.argsort(-log_probs, kind="stable")[: beam_size + 1]
        model = TiedModel(log_probs)
        buffer = EncodedBuffer()
        buffer.append(np.zeros((4, 2)))
        cfg = BeamConfig(beam_size=beam_size)
        beam = [initial_hypothesis(model)]
        for _ in range(4):
            want = argsort_beam_step(beam, log_probs, beam_size, block_eos)
            beam, _, _ = decode_step(model, beam, buffer, True, cfg, block_eos=block_eos)
            assert [(hyp_tokens(h), h.log_score) for h in beam] == want


class TestDecodeOffline:
    def test_silence_aware_narration(self):
        # 'a b' with a 100-frame (1s) silence in between
        utt = make_utt(["a", "b"], [(1, 100)])
        model = aware(utt, d=6, min_sil=3)
        result = decode_offline(model, utt.features, BeamConfig(beam_size=1))
        sil_span = 25  # 100 raw frames / reduction 4
        want = (
            [VOCAB.bos_id, VOCAB.id_of("a")]
            + [VOCAB.sil_id] * (sil_span // 6)
            + [VOCAB.id_of("b"), VOCAB.eos_id]
        )
        assert result.tokens == want

    def test_zero_length_utterance(self):
        utt = make_utt(["a"], [])
        model = aware(utt)
        empty = FeatureSequence(np.zeros((0, 8)))
        result = decode_offline(model, empty, BeamConfig())
        assert result.tokens == [VOCAB.bos_id, VOCAB.eos_id]

    def test_deterministic(self):
        utt = make_utt(["a", "c"], [(1, 24)], seed=3)
        model = aware(utt)
        one = decode_offline(model, utt.features, BeamConfig(beam_size=1))
        two = decode_offline(model, utt.features, BeamConfig(beam_size=1))
        assert one.tokens == two.tokens
        assert [e.log_prob for e in one.emissions] == [e.log_prob for e in two.emissions]

    def test_score_additivity(self):
        utt = make_utt(["a", "b", "c"], [(1, 16), (2, 20)], seed=4)
        model = aware(utt)
        best = offline_best(model, utt.features, BeamConfig(beam_size=2))
        total = sum(e.log_prob for e in hyp_timeline(best))
        assert best.log_score == pytest.approx(total, abs=1e-6)

    def test_emission_indices_nondecreasing(self):
        utt = make_utt(["a", "b", "c"], [(1, 28), (3, 16)], seed=5)
        model = aware(utt)
        result = decode_offline(model, utt.features, BeamConfig(beam_size=1))
        indices = [e.selected_index for e in result.emissions]
        assert indices == sorted(indices)

    def test_neural_model_terminates_and_is_deterministic(self):
        model = neural_model(seed=1)
        feats = FeatureSequence(np.random.default_rng(2).normal(size=(40, 8)))
        one = decode_offline(model, feats, BeamConfig(beam_size=2))
        two = decode_offline(model, feats, BeamConfig(beam_size=2))
        assert one.tokens == two.tokens
        assert one.tokens[-1] == VOCAB.eos_id

    def test_beam_dominance_on_oracle(self):
        # best score is nondecreasing in beam size
        for seed in range(6):
            utt = make_utt(["a", "b"], [(1, 24)], seed=seed)
            model = aware(utt)
            scores = [
                offline_best(model, utt.features, BeamConfig(beam_size=k)).log_score
                for k in (1, 4, 8)
            ]
            assert scores[0] <= scores[1] + 1e-9 <= scores[2] + 2e-9


class TestBeamDominanceNeural:
    def test_wider_beam_never_scores_worse(self):
        rng = np.random.default_rng(7)
        model = neural_model(seed=3)
        for _ in range(10):
            feats = FeatureSequence(rng.normal(size=(int(rng.integers(16, 48)), 8)))
            narrow = offline_best(model, feats, BeamConfig(beam_size=1)).log_score
            wide = offline_best(model, feats, BeamConfig(beam_size=8)).log_score
            assert wide >= narrow - 1e-9


class TestSplitBatches:
    def test_sizes(self):
        frames = np.arange(14).reshape(7, 2)
        parts = split_batches(frames, 3)
        assert [p.shape[0] for p in parts] == [3, 3, 1]

    def test_empty_input_single_batch(self):
        parts = split_batches(np.zeros((0, 2)), 4)
        assert len(parts) == 1 and parts[0].shape[0] == 0


class TestDecodeOnline:
    def longsil_utt(self, seed=0):
        # silence of 96 frames (24 encoded) well beyond gate 12 + batch 8
        return make_utt(["a", "b"], [(1, 96), (2, 48)], seed=seed)

    def test_accept_policy_reproduces_premature_end(self):
        utt = self.longsil_utt()
        result = decode_plain(skipping(utt), utt.features, BeamConfig(beam_size=1, eos_policy="accept"),
                              batch_ms=320, min_buffer_ms=480)
        assert result.tokens == [VOCAB.bos_id, VOCAB.id_of("a"), VOCAB.eos_id]

    def test_restart_policy_recovers_second_segment(self):
        utt = self.longsil_utt()
        result = decode_plain(skipping(utt), utt.features, BeamConfig(beam_size=1, eos_policy="restart"),
                              batch_ms=320, min_buffer_ms=480)
        assert result.tokens == [VOCAB.bos_id, VOCAB.id_of("a"), VOCAB.id_of("b"), VOCAB.eos_id]
        assert len(result.restarts) >= 1

    def test_no_mid_silence_restart_never_triggers(self):
        utt = make_utt(["a", "b"], [(2, 32)], seed=1)
        plain = decode_plain(skipping(utt), utt.features, BeamConfig(beam_size=1, eos_policy="accept"),
                             batch_ms=320, min_buffer_ms=480)
        restart = decode_plain(skipping(utt), utt.features, BeamConfig(beam_size=1, eos_policy="restart"),
                               batch_ms=320, min_buffer_ms=480)
        assert plain.tokens == restart.tokens

    def test_two_long_silences_two_restarts(self):
        utt = make_utt(["a", "b", "c"], [(1, 96), (2, 96), (3, 48)], seed=2)
        result = decode_plain(skipping(utt), utt.features, BeamConfig(beam_size=1, eos_policy="restart"),
                              batch_ms=320, min_buffer_ms=480)
        assert len(result.restarts) == 2
        assert result.tokens == [VOCAB.bos_id, VOCAB.id_of("a"), VOCAB.id_of("b"),
                                 VOCAB.id_of("c"), VOCAB.eos_id]

    def test_restart_window_loses_words_arriving_inside_it(self):
        # silence long enough to trigger the premature end but short enough
        # that the next word starts within the one-batch restart window
        utt = make_utt(["a", "b"], [(1, 60), (2, 48)], seed=3)
        result = decode_plain(skipping(utt), utt.features, BeamConfig(beam_size=1, eos_policy="restart"),
                              batch_ms=320, min_buffer_ms=480)
        assert VOCAB.id_of("b") not in result.tokens
        assert len(result.restarts) >= 1

    def test_defer_policy_with_aware_oracle_matches_offline(self):
        utt = self.longsil_utt(seed=4)
        model = aware(utt, d=6, min_sil=3)
        offline = decode_offline(model, utt.features, BeamConfig(beam_size=1))
        online = decode_plain(model, utt.features, BeamConfig(beam_size=1, eos_policy="defer"),
                              batch_ms=320, min_buffer_ms=480)
        assert online.tokens == offline.tokens

    def test_empty_stream(self):
        utt = make_utt(["a"], [])
        model = aware(utt)
        result = decode_plain(model, FeatureSequence(np.zeros((0, 8))), BeamConfig(beam_size=1),
                              batch_ms=320, min_buffer_ms=480)
        assert result.tokens == [VOCAB.bos_id, VOCAB.eos_id]

    def test_display_log_clocks_nondecreasing(self):
        utt = self.longsil_utt(seed=5)
        result = decode_plain(aware(utt, d=6), utt.features, BeamConfig(beam_size=1),
                              batch_ms=160, min_buffer_ms=320)
        clocks = [c for c, _ in result.display_log]
        assert clocks == sorted(clocks)


class TestRecords:
    """Emissions, histories and hypotheses are named tuples: read-only, and
    traced exactly as the frozen dataclasses they replaced."""

    def test_fields_are_read_only(self):
        utt = make_utt(["a", "b"], [(1, 40)])
        em = decode_offline(aware(utt), utt.features, BeamConfig(beam_size=4)).emissions[0]
        hyp = offline_best(aware(utt), utt.features, BeamConfig(beam_size=4))
        for record, name in ((em, "token"), (em, "forced"), (hyp, "log_score"), (hyp, "finished"),
                             (hyp.history, "parent"), (hyp.history, "jump")):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    def test_trace_records_are_byte_stable(self):
        """The digest of one beam-8 oracle stream's trace records, display log
        and session trace, recorded when emissions were frozen dataclasses."""
        utt = make_utt(["a", "b", "c", "a", "b"], [(1, 40), (3, 120), (4, 16)], seed=3)
        result, session = stream_decode(aware(utt, d=6, min_sil=3), utt.features, StreamConfig(160, 240, 480),
                                        BeamConfig(beam_size=8))
        records = [{"token": em.token, "label": VOCAB.token_of(em.token), **em._asdict()} for em in result.emissions]
        text = json.dumps([records, result.display_log, session.trace])
        assert session.backtracks
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "e0cc4c7154d8abef"
