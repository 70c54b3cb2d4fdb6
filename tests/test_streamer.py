import math

import numpy as np
import pytest

from silstream import streamer
from silstream.data import FeatureSequence
from silstream.decoder import BeamConfig
from silstream.model import ModelConfig, NeuralModel, init_params
from silstream.encoder import EncoderConfig
from silstream.attention import AttentionConfig
from silstream.streamer import (
    StreamConfig,
    StreamSession,
    decode_offline,
    split_batches,
    stream_decode,
)
from silstream.synth import OracleMode, OracleModel, SynthConfig, gen_corpus, CorpusSpec, gen_utterance
from silstream.vocab import make_vocab, strip_nonscoring

from support import Declared, final_best, hyp_timeline, hyp_tokens

VOCAB = make_vocab(["a", "b", "c"])
SYNTH = SynthConfig(vocab=VOCAB, feature_dim=8, frames_per_token=8)


def make_utt(tokens, layout, seed=0):
    return gen_utterance(SYNTH, seed=seed, tokens=VOCAB.encode(tokens), silence_layout=layout)


def aware(utt, d=2, min_sil=1):
    return OracleModel(OracleMode("silence_aware", d, min_sil), VOCAB, utt.alignment, 4)


def skipping(utt):
    return OracleModel(OracleMode("silence_skipping"), VOCAB, utt.alignment, 4)


def frames_after(cfg, token):
    """The gate and restricted region, in 40 ms encoded frames, that a session
    with ``cfg`` applies after ``token``."""
    session = StreamSession(aware(make_utt(["a"], [])), cfg, BeamConfig())
    return session._frames_after[token == VOCAB.sil_id]


class TestApplicableBuffer:
    def test_silence_buffer_when_last_token_is_silence(self):
        cfg = StreamConfig(min_buffer_ms=480, sil_buffer_ms=2400)
        assert frames_after(cfg, VOCAB.sil_id) == 2400 // 40

    def test_regular_token_uses_min_buffer(self):
        cfg = StreamConfig(min_buffer_ms=960, sil_buffer_ms=960)
        assert frames_after(cfg, VOCAB.id_of("a")) == 960 // 40

    def test_utterance_start_uses_min_buffer(self):
        cfg = StreamConfig(min_buffer_ms=480, sil_buffer_ms=2400)
        assert frames_after(cfg, VOCAB.bos_id) == 480 // 40
        assert frames_after(cfg, None) == 480 // 40

    def test_silence_buffer_cannot_undercut_min(self):
        with pytest.raises(ValueError):
            StreamConfig(min_buffer_ms=480, sil_buffer_ms=120)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_buffers_refused(self, bad):
        with pytest.raises(ValueError, match="min_buffer_ms must be finite"):
            StreamConfig(min_buffer_ms=bad, sil_buffer_ms=bad)
        with pytest.raises(ValueError, match="sil_buffer_ms must be finite"):
            StreamConfig(min_buffer_ms=480, sil_buffer_ms=bad)


class TestSessionBasics:
    def test_empty_first_batch_no_decode(self):
        utt = make_utt(["a"], [(1, 40)])
        session = StreamSession(aware(utt), StreamConfig(batch_ms=320), BeamConfig(beam_size=1))
        out = session.push(np.zeros((0, 8)))
        assert out == []
        assert session.trace[-1]["decision"] == "no-decode"

    def test_push_after_finalize_rejected(self):
        utt = make_utt(["a"], [])
        session = StreamSession(aware(utt), StreamConfig(), BeamConfig(beam_size=1))
        session.push(utt.features.frames, is_last=True)
        with pytest.raises(RuntimeError):
            session.push(np.zeros((0, 8)))

    def test_double_finalize_rejected(self):
        utt = make_utt(["a"], [])
        session = StreamSession(aware(utt), StreamConfig(), BeamConfig(beam_size=1))
        session.push(utt.features.frames, is_last=True)
        with pytest.raises(RuntimeError):
            session.push(np.zeros((0, 8)), is_last=True)

    def test_zero_audio_session(self):
        utt = make_utt(["a"], [])
        session = StreamSession(aware(utt), StreamConfig(), BeamConfig(beam_size=1))
        session.push(np.zeros((0, 8)), is_last=True)
        assert session.result().tokens == [VOCAB.bos_id, VOCAB.eos_id]

    def test_clock_advances_with_audio(self):
        utt = make_utt(["a", "b"], [(1, 40)])
        session = StreamSession(aware(utt), StreamConfig(batch_ms=160), BeamConfig(beam_size=1))
        batches = split_batches(utt.features.frames, 16)
        for i, batch in enumerate(batches):
            session.push(batch, is_last=i == len(batches) - 1)
        assert session.clock_ms == utt.features.duration_ms

    @pytest.mark.parametrize("kind", ["oracle", "neural"])
    def test_push_of_one_frame_vector_refused(self, kind):
        # a (features,) vector is not a batch of frames: it is refused, and the session keeps its state
        utt = make_utt(["a", "b"], [(1, 24)])
        if kind == "oracle":
            model = aware(utt)
        else:
            cfg = ModelConfig(encoder=EncoderConfig(num_layers=2, input_dim=8, hidden=8, proj=8),
                              attention=AttentionConfig(chunk_size=3, energy_hidden=4), decoder_hidden=8, embed_dim=4)
            model = NeuralModel(cfg, init_params(cfg, VOCAB.size, seed=1), VOCAB)
        session = StreamSession(model, StreamConfig(batch_ms=160), BeamConfig(beam_size=1))
        frames = utt.features.frames
        with pytest.raises(ValueError, match=r"expected a \(frames, features\) matrix, got shape \(8,\)"):
            session.push(frames[0])
        assert (session.batch_index, session.clock_ms, len(session.buffer)) == (-1, 0.0, 0)
        session.push(frames, is_last=True)
        assert session.clock_ms == utt.features.duration_ms


def offline_equivalence(utt, model_fn, batch_ms, min_ms, sil_ms, beam=1, policy="defer"):
    offline = decode_offline(model_fn(utt), utt.features, BeamConfig(beam_size=beam))
    result, session = stream_decode(
        model_fn(utt), utt.features,
        StreamConfig(batch_ms=batch_ms, min_buffer_ms=min_ms, sil_buffer_ms=sil_ms),
        BeamConfig(beam_size=beam, eos_policy=policy),
    )
    return offline.tokens, result.tokens, session


class TestOfflineEquivalence:
    def test_aware_oracle_streamed_equals_offline(self):
        utt = make_utt(["a", "b"], [(1, 96), (2, 48)])
        model_fn = lambda u: aware(u, d=6, min_sil=3)
        off, on, session = offline_equivalence(utt, model_fn, 320, 960, 960)
        assert on == off
        assert session.backtracks  # gating actually engaged along the way

    @pytest.mark.parametrize("batch_ms", [160, 320, 640])
    def test_invariant_to_batch_size(self, batch_ms):
        utt = make_utt(["a", "b", "c"], [(1, 64), (2, 96), (3, 48)], seed=6)
        model_fn = lambda u: aware(u, d=6, min_sil=3)
        off, on, _ = offline_equivalence(utt, model_fn, batch_ms, 120, 120)
        assert on == off

    def test_tiny_batches_huge_buffers_all_work_at_finalize(self):
        utt = make_utt(["a", "b"], [(1, 32)], seed=7)
        model_fn = lambda u: aware(u, d=2)
        off, on, session = offline_equivalence(utt, model_fn, 80, 10**6, 10**6)
        assert on == off
        decisions = {t["decision"] for t in session.trace[:-1]}
        assert decisions == {"no-decode"}

    def test_infinite_buffers_bitwise_offline_equality_any_model(self):
        cfg = ModelConfig(
            encoder=EncoderConfig(num_layers=2, input_dim=8, hidden=16, proj=8),
            attention=AttentionConfig(chunk_size=3, energy_hidden=8),
            decoder_hidden=16, embed_dim=4,
        )
        model = NeuralModel(cfg, init_params(cfg, VOCAB.size, seed=5), VOCAB)
        feats = FeatureSequence(np.random.default_rng(8).normal(size=(50, 8)))
        offline = decode_offline(model, feats, BeamConfig(beam_size=2))
        result, _ = stream_decode(
            model, feats,
            StreamConfig(batch_ms=160, min_buffer_ms=10**6, sil_buffer_ms=10**6),
            BeamConfig(beam_size=2),
        )
        assert result.tokens == offline.tokens

    def test_corpus_equivalence_with_backtracking_active(self):
        corpus = gen_corpus(SYNTH, CorpusSpec(num_utterances=12, min_tokens=1, max_tokens=3,
                                              mid_silence_prob=0.8, mid_silence_frames=(16, 80),
                                              trail_silence_prob=0.7, align_to=1), seed=11)
        for utt in corpus.values():
            model_fn = lambda u: aware(u, d=4, min_sil=2)
            off, on, _ = offline_equivalence(utt, model_fn, 160, 240, 480)
            assert on == off


class TestPrefixStability:
    def test_committed_tokens_only_grow(self):
        utt = make_utt(["a", "b", "c"], [(1, 64), (2, 96)], seed=9)
        model = aware(utt, d=6, min_sil=3)
        session = StreamSession(model, StreamConfig(batch_ms=160, min_buffer_ms=240, sil_buffer_ms=480),
                                BeamConfig(beam_size=1))
        batches = split_batches(utt.features.frames, 16)
        committed = []
        for i, batch in enumerate(batches):
            snapshot = list(committed)
            committed += session.push(batch, is_last=i == len(batches) - 1)
            assert committed[: len(snapshot)] == snapshot
        assert session.result().tokens == [VOCAB.bos_id] + [node.token for node in session.committed]
        assert session.result().tokens == [VOCAB.bos_id] + committed

    def test_no_commit_inside_restricted_region(self):
        utts = [make_utt(["a", "b"], [(1, 96), (2, 48)], seed=10),
                make_utt(["a", "b", "c"], [(1, 64), (2, 96), (3, 48)], seed=11),
                make_utt(["c", "a"], [(1, 40), (2, 120)], seed=12)]
        checked = 0
        for utt in utts:
            for batch_ms in (80, 160, 320):
                session = StreamSession(aware(utt, d=6, min_sil=3),
                                        StreamConfig(batch_ms=batch_ms, min_buffer_ms=240, sil_buffer_ms=480),
                                        BeamConfig(beam_size=1))
                batches = split_batches(utt.features.frames, batch_ms // 10)
                for batch in batches[:-1]:
                    before = len(hyp_timeline(session.beam[0]))
                    session.push(batch)
                    tokens = hyp_tokens(session.beam[0])
                    for i, em in enumerate(hyp_timeline(session.beam[0])[before:], start=before):
                        # the token before the emission sets the restricted region it must clear
                        region = session._frames_after[tokens[i] == VOCAB.sil_id]
                        assert em.peak_index < len(session.buffer) - region
                        checked += 1
        assert checked > 0


class TestCounters:
    def test_forced_steps_count_forced_emissions(self):
        # a selection bias this low never selects a frame: every step stalls
        # until the last batch forces one, and the boosted end symbol ends the stream
        cfg = ModelConfig(
            encoder=EncoderConfig(num_layers=2, input_dim=8, hidden=16, proj=8),
            attention=AttentionConfig(chunk_size=3, energy_hidden=8),
            decoder_hidden=16, embed_dim=4,
        )
        params = init_params(cfg, VOCAB.size, seed=3)
        params["att.sel.r"][0] = -50.0
        params["out.b"][VOCAB.eos_id] = 2.0
        model = NeuralModel(cfg, params, VOCAB, silence_aware=True)
        feats = FeatureSequence(np.random.default_rng(4).normal(size=(120, 8)))
        result, session = stream_decode(model, feats, StreamConfig(batch_ms=160), BeamConfig(beam_size=1))
        forced = sum(em.forced for em in result.emissions)
        assert not final_best(session).runaway
        assert forced >= 1
        assert result.forced_steps == session.forced_steps == forced


class TestVoidedStepReuse:
    def test_retry_stamps_kept_tokens_with_its_own_clock(self):
        utt = make_utt(["a", "b", "c"], [(1, 64), (2, 64)])
        cfgs = StreamConfig(batch_ms=80, min_buffer_ms=240, sil_buffer_ms=240), BeamConfig(beam_size=1)
        batches = split_batches(utt.features.frames, 8)  # 80 ms each
        session = StreamSession(aware(utt), *cfgs)
        for batch in batches[:3]:
            session.push(batch)
        # the step emitting "a" at 240 ms peaks in the restricted region: voided and logged
        assert session.trace[-1]["decision"] == "backtrack"
        assert session.backtracks == [{"batch": 2, "clock_ms": 240.0, "reason": "restricted"}]
        assert hyp_tokens(session.beam[0]) == (VOCAB.bos_id,)
        session.push(batches[3])
        assert session.reused_steps == 1
        kept = session.beam[0].history.ancestor(2).emission
        assert (kept.token, kept.clock_ms) == (VOCAB.id_of("a"), 320.0)
        for i in range(4, len(batches)):
            session.push(batches[i], is_last=i == len(batches) - 1)
        unreused_result, unreused = stream_decode(Declared(aware(utt), False), utt.features, *cfgs)
        assert session.reused_steps > 1 and unreused.reused_steps == 0
        assert session.result().emissions == unreused_result.emissions
        assert session.trace == unreused.trace and session.backtracks == unreused.backtracks

    def test_skipping_oracle_steps_are_not_stable(self):
        """The skipping oracle ends at a pause while no onset of a next word is
        visible, which more audio can change: reusing its voided end symbol
        would delete "b"."""
        utt = make_utt(["a", "b"], [(1, 48), (2, 96)], seed=12)
        cfgs = StreamConfig(batch_ms=320, min_buffer_ms=240, sil_buffer_ms=480), BeamConfig(eos_policy="accept")
        assert aware(utt).stable_steps and not skipping(utt).stable_steps
        result, session = stream_decode(skipping(utt), utt.features, *cfgs)
        assert result.tokens == [VOCAB.bos_id, VOCAB.id_of("a"), VOCAB.id_of("b"), VOCAB.eos_id]
        assert session.reused_steps == 0 and len(session.backtracks) == 2
        result, session = stream_decode(Declared(skipping(utt), True), utt.features, *cfgs)
        assert result.tokens == [VOCAB.bos_id, VOCAB.id_of("a"), VOCAB.eos_id]
        assert session.reused_steps == 1


class TestPathologyThroughStreamer:
    def test_accept_policy_deletes_post_silence_segment(self):
        utt = make_utt(["a", "b"], [(1, 128), (2, 48)], seed=12)
        result, session = stream_decode(
            skipping(utt), utt.features,
            StreamConfig(batch_ms=320, min_buffer_ms=480, sil_buffer_ms=480),
            BeamConfig(beam_size=1, eos_policy="accept"),
        )
        assert result.tokens == [VOCAB.bos_id, VOCAB.id_of("a"), VOCAB.eos_id]
        assert session.finished

    def test_defer_policy_needs_silence_model(self):
        # deferral is conditioned on the model being silence-aware; the
        # skipping oracle is not, so the premature end still goes through
        utt = make_utt(["a", "b"], [(1, 128), (2, 48)], seed=12)
        result, _ = stream_decode(
            skipping(utt), utt.features,
            StreamConfig(batch_ms=320, min_buffer_ms=480, sil_buffer_ms=480),
            BeamConfig(beam_size=1, eos_policy="defer"),
        )
        assert VOCAB.id_of("b") not in result.tokens


class TestTrace:
    def test_trace_schema(self):
        utt = make_utt(["a", "b"], [(1, 64)], seed=13)
        _, session = stream_decode(
            aware(utt, d=4), utt.features,
            StreamConfig(batch_ms=160, min_buffer_ms=240, sil_buffer_ms=240),
            BeamConfig(beam_size=1),
        )
        for record in session.trace:
            assert {"batch", "clock_ms", "buffer_len", "decision", "committed",
                    "restricted_boundary"} <= set(record)
            assert record["decision"] in ("no-decode", "committed", "backtrack")
        batches = [r["batch"] for r in session.trace]
        assert batches == sorted(batches)


def long_oracle_stream(seconds: int, seed: int = 0):
    """An aware oracle and its stream of about ``seconds`` of audio: groups of
    1-3 words, each followed by a 320-1200 ms pause with probability 0.7."""
    rng = np.random.default_rng(seed)
    tokens, layout, frames = [], [], 0
    while frames < seconds * 100:
        group = int(rng.integers(1, 4))
        tokens += [int(t) for t in rng.integers(3, VOCAB.size, size=group)]
        frames += group * SYNTH.frames_per_token
        if rng.random() < 0.7:
            pause = 4 * int(rng.integers(8, 31))
            layout.append((len(tokens), pause))
            frames += pause
    utt = gen_utterance(SYNTH, seed=seed, tokens=tokens, silence_layout=layout)
    return OracleModel(OracleMode("silence_aware", 6, 3), VOCAB, utt.alignment, 4), utt


class TestCostGrowth:
    def test_display_work_tracks_new_tokens(self, monkeypatch):
        """Token ids the session strips for its display over a 200 s stream
        are at most 6x those over a 50 s stream (linear is 4x); re-stripping
        the whole display on every push costs about 16x."""
        stripped = []

        def counting(ids, vocab):
            stripped[-1] += len(ids)
            return strip_nonscoring(ids, vocab)

        monkeypatch.setattr(streamer, "strip_nonscoring", counting)
        for seconds in (50, 200):
            stripped.append(0)
            model, utt = long_oracle_stream(seconds)
            stream_decode(model, utt.features, StreamConfig(320, 480, 960), BeamConfig(beam_size=8))
        assert 0 < stripped[1] <= 6 * stripped[0]

    def test_commit_check_walks_only_committed_nodes(self, monkeypatch):
        """On a beam-8 random NeuralModel stream whose beam agrees on almost
        nothing before the end, the uncommitted tail grows to about 1000
        tokens, yet the commit check walks only the nodes it commits.
        Walking every hypothesis' tail on every push walks about 250k."""
        vocab = make_vocab([f"t{i}" for i in range(5)])
        cfg = ModelConfig()
        params = init_params(cfg, vocab.size, seed=0)
        params["att.sel.r"][0] = 0.0
        model = NeuralModel(cfg, params, vocab, silence_aware=True)
        frames = np.random.default_rng(0).normal(size=(2000, cfg.encoder.input_dim))  # 20 s
        walked, committed, inside = [0], [0], [False]
        nodes_after = streamer.History.nodes_after
        commit = StreamSession._commit

        def counting_nodes_after(history, ancestor):
            nodes = nodes_after(history, ancestor)
            walked[0] += len(nodes) if inside[0] else 0
            return nodes

        def counting_commit(session, histories):
            before = len(session.committed)
            inside[0] = True
            try:
                commit(session, histories)
            finally:
                inside[0] = False
            committed[0] += len(session.committed) - before

        monkeypatch.setattr(streamer.History, "nodes_after", counting_nodes_after)
        monkeypatch.setattr(StreamSession, "_commit", counting_commit)
        session = StreamSession(model, StreamConfig(320, 480, 960), BeamConfig(beam_size=8))
        batches = split_batches(frames, 32)
        tail = 0
        for batch in batches[:-1]:
            session.push(batch)
            tail = max(tail, min(h.history.length for h in session.beam) - 1 - len(session.committed))
        session.push(batches[-1], is_last=True)
        assert tail >= 500
        assert walked[0] == committed[0]
