"""Property tests of the batched decoder: buffer key projection, the batched
beam step against the per-hypothesis reference, a hypothesis' step in a beam
against its step alone, each hypothesis' attention result in a beam, whose
first scan window is scored stacked, against the one-hypothesis scan, the
stacked first windows' decisions against each window's first energy ``>= 0``,
the windowed MoChA scan
against the whole-tail scan, the scripted oracle against its per-frame
reference, the oracle's one step per attention position against its step per
hypothesis, beam steps over shared step outputs against steps over fresh
copies, oracle streams on both session engines under every end-symbol
policy, whose pushes, trace counts and emissions must add up to the result,
oracle and random-model streams on both engines under every policy, whose
display after every push must equal the display rebuilt from scratch,
streams that reuse voided steps against streams that recompute them, the
history nodes a voided step and its retry build, and beam steps under a void
rule that never fires, or retried from a voided step, against plain steps. Also
the minibatch encoder against per-utterance streaming and the per-step
reference, the trainer's decoder step against the per-vector references,
the decoder backward of a ragged minibatch against the sum of its
utterances' reference gradients, ``nn.sigmoid``, the chunk stage's stacked softmax and
``nn.gru_steps`` against their first forms, the gate-batched GRU products against per-gate ``nn.matvecs``,
``nn.GruBackward`` against the per-row reference step backward, the soft
step's Python-float carry loops against their numpy-scalar form,
``attention.crossings`` against a per-row loop for the first energy ``>= 0``,
and history jump pointers against a parent walk.

Gradients summed in another order than the reference's are bounded entry by
entry by 1e-12 times the sum of the magnitudes of the terms they sum
(``magnitude`` in the reference backward passes): a gradient that cancels
far below its terms carries their rounding, whatever the order."""
import functools
import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from silstream import decoder, nn, streamer
from silstream.attention import (
    AttentionConfig,
    AttentionState,
    chunk_attend,
    crossings,
    energies,
    first_selections,
    project_keys,
    project_queries,
    soft_step,
    soft_step_backward,
)
from silstream.data import Alignment, Segment
from silstream.decoder import (
    EOS_POLICIES,
    BeamConfig,
    EncodedBuffer,
    History,
    common_ancestor,
    decode_step,
    Hypothesis,
    initial_hypothesis,
)
from silstream.encoder import (
    EncoderConfig,
    PyramidalEncoder,
    encode_backward,
    encode_with_cache,
    init_encoder_params,
)
from silstream.metrics import cer
from silstream.model import ModelConfig, NeuralModel, init_params
from silstream.streamer import ENGINES, StreamConfig, StreamSession, decode_offline
from silstream.synth import ORACLE_MODES, OracleMode, OracleModel
from silstream.trainer import TrainConfig, backward, forward_loss
from silstream.vocab import SIL_LABEL

from support import (
    VOCAB,
    Declared,
    FreshOutputs,
    add_grads,
    aware,
    encode,
    group_of,
    hyp_timeline,
    hyp_tokens,
    infer_step,
    make_utt,
    neural_model,
    reference_decode_step,
    reference_decoder_backward,
    reference_decoder_loss,
    reference_display,
    reference_encode_backward,
    reference_encode_with_cache,
    reference_encoded_owners,
    reference_energies,
    reference_gru_step,
    reference_gru_step_backward,
    reference_mocha_step,
    reference_oracle_step,
    reference_schedule,
    reference_segment_spans,
    reference_sigmoid,
    reference_soft_step,
    reference_soft_step_backward,
    reference_cer,
    reference_softmax,
    reference_start,
)


def split_points(draw_sizes, total):
    """Cut ``range(total)`` after each drawn size, cycling through the sizes."""
    cuts, at, i = [], 0, 0
    while at < total:
        at = min(total, at + draw_sizes[i % len(draw_sizes)])
        cuts.append(at)
        i += 1
    return cuts


class TestEncodedBufferProperties:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), total=st.integers(0, 60),
           sizes=st.lists(st.integers(1, 17), min_size=1, max_size=6),
           ask_keys=st.lists(st.booleans(), min_size=1, max_size=6))
    def test_any_partition_of_appends_gives_identical_frames_and_keys(self, seed, total, sizes, ask_keys):
        rng = np.random.default_rng(seed)
        params = neural_model(seed % 7).params
        project = functools.partial(project_keys, params)
        frames = rng.normal(size=(total, 8))
        whole, pieces = EncodedBuffer(), EncodedBuffer()
        whole.append(frames)
        lo = 0
        for i, hi in enumerate(split_points(sizes, total)):
            pieces.append(frames[lo:hi])
            if ask_keys[i % len(ask_keys)]:
                pieces.keys(project)  # project part of the stream before the rest arrives
            lo = hi
        assert len(pieces) == len(whole) == total
        assert np.array_equal(pieces.array, whole.array)
        if total:
            assert np.array_equal(pieces.array, frames)
            for got, want, alone in zip(pieces.keys(project), whole.keys(project), project_keys(params, frames)):
                assert np.array_equal(got, want) and np.array_equal(got, alone)


class TestBatchedStepMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), beam_size=st.integers(1, 8), force=st.booleans(),
           block_eos=st.booleans(), chunk_size=st.integers(1, 4), total=st.integers(0, 40),
           steps=st.integers(1, 8), cap_base=st.integers(1, 8), bias=st.floats(-3.0, 3.0))
    def test_tokens_positions_and_scores(self, seed, beam_size, force, block_eos, chunk_size, total,
                                         steps, cap_base, bias):
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(
            encoder=EncoderConfig(num_layers=2, input_dim=8, hidden=int(rng.integers(4, 17)), proj=8),
            attention=AttentionConfig(chunk_size=chunk_size, energy_hidden=int(rng.integers(2, 13))),
            decoder_hidden=int(rng.integers(4, 21)), embed_dim=int(rng.integers(2, 7)),
        )
        params = init_params(cfg, VOCAB.size, seed=int(rng.integers(2**31)))
        params["att.sel.r"][0] = bias
        model = NeuralModel(cfg, params, VOCAB)
        frames = rng.normal(size=(total, 8))
        beam_cfg = BeamConfig(beam_size=beam_size)
        buffer = EncodedBuffer()
        beam, ref = [initial_hypothesis(model)], [reference_start(model)]
        # the buffer grows between steps, so key terms are projected a part at a time
        cuts = sorted(int(c) for c in rng.integers(0, total + 1, size=steps))
        # a cap of 1 to 8 tokens whatever the buffer, so runaways happen
        with mock.patch.object(decoder, "CAP_BASE", cap_base), mock.patch.object(decoder, "CAP_PER_FRAME", 0):
            for cut in cuts:
                buffer.append(frames[len(buffer):cut])
                beam, _, _ = decode_step(model, beam, buffer, True, beam_cfg, force=force, block_eos=block_eos)
                ref = reference_decode_step(model, ref, frames[:cut], beam_size, decoder.max_tokens(cut),
                                            force, block_eos)
                assert [hyp_tokens(h) for h in beam] == [r.tokens for r in ref]
                assert [h.finished for h in beam] == [r.finished for r in ref]
                assert [tuple(e.selected_index for e in hyp_timeline(h)) for h in beam] == [r.selected for r in ref]
                assert [tuple(e.peak_index for e in hyp_timeline(h)) for h in beam] == [r.peaks for r in ref]
                for h, r in zip(beam, ref):
                    assert math.isclose(h.log_score, r.log_score, rel_tol=1e-12, abs_tol=0.0)


class TestBeamStepMatchesStepAlone:
    """``decode_steps`` gives a hypothesis in a beam the step it gives it alone,
    bit for bit, at every chunk size and at the stream start, where chunks are short."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), beam_size=st.integers(2, 8), chunk_size=st.integers(1, 4),
           n=st.integers(0, 12), bias=st.floats(-3.0, 6.0), force=st.booleans())
    @example(seed=0, beam_size=8, chunk_size=4, n=6, bias=6.0, force=False)
    def test_each_output_bit_identical(self, seed, beam_size, chunk_size, n, bias, force):
        rng = np.random.default_rng(seed)
        dims = [int(d) for d in rng.integers(1, 13, size=4)]
        cfg = ModelConfig(encoder=EncoderConfig(proj=dims[0]),
                          attention=AttentionConfig(chunk_size=chunk_size, energy_hidden=dims[1]),
                          decoder_hidden=dims[2], embed_dim=dims[3])
        params = init_params(cfg, VOCAB.size, seed=seed)
        params["att.sel.r"][0] = bias  # a large bias selects where the scan starts
        model = NeuralModel(cfg, params, VOCAB)
        buffer = EncodedBuffer()
        buffer.append(rng.normal(size=(n, cfg.context_dim)))
        dec_states = [(rng.normal(size=cfg.decoder_hidden), rng.normal(size=cfg.context_dim))
                      for _ in range(beam_size)]
        tokens = [int(t) for t in rng.integers(0, VOCAB.size, size=beam_size)]
        att_states = [AttentionState(int(p)) for p in rng.integers(-1, n + 1, size=beam_size)]
        together = model.decode_steps(dec_states, tokens, buffer, att_states, True, force)
        for i, got in enumerate(together):
            alone = model.decode_steps(dec_states[i : i + 1], tokens[i : i + 1], buffer, att_states[i : i + 1],
                                       True, force)[0]
            assert (got.att.status, got.att.selected_index, got.att.peak_index, got.att.forced) == (
                alone.att.status, alone.att.selected_index, alone.att.peak_index, alone.att.forced)
            for a, b in ((got.log_probs, alone.log_probs), (got.att.context, alone.att.context)):
                assert (a is None) == (b is None) and (a is None or np.array_equal(bits(a), bits(b)))


class TestStackedFirstWindowMatchesScanAlone:
    """Each hypothesis of a ``decode_steps`` beam gets, bit for bit, the attention
    result ``infer_step`` gives its new decoder state alone, which scores its first
    window by itself. Buffers may be shorter than ``chunk_size``; starts fall inside,
    within ``chunk_size`` of the end and past it. The selection offset either is
    drawn, so the crossing falls in the first window, a later one or none, or sits
    on the largest energy of the first window of the hypothesis nearest the end
    (``edge`` 0: that energy is exactly 0 and crosses; 1: it is one step below and
    does not). A last-bit change to that energy then moves the crossing, as scoring
    a cut window padded to ``chunk_size`` does."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), beam_size=st.integers(1, 6), chunk_size=st.integers(1, 4),
           n=st.integers(0, 10), bias=st.floats(-6.0, 3.0), v_scale=st.floats(1.0, 4.0),
           edge=st.sampled_from([None, 0, 1]), force=st.booleans())
    @example(seed=0, beam_size=1, chunk_size=3, n=2, bias=0.0, v_scale=1.0, edge=0, force=False)
    # one beam of six rows: two decided in their first window, one cut by the buffer end that selects, one
    # that selects in its second window, one forced and one exhausted (its start is past the end)
    @example(seed=119, beam_size=6, chunk_size=2, n=10, bias=-1.0, v_scale=1.0, edge=None, force=True)
    def test_each_attention_result_bit_identical(self, seed, beam_size, chunk_size, n, bias, v_scale, edge, force):
        rng = np.random.default_rng(seed)
        dims = [int(d) for d in rng.integers(1, 13, size=4)]
        cfg = ModelConfig(encoder=EncoderConfig(proj=dims[0]),
                          attention=AttentionConfig(chunk_size=chunk_size, energy_hidden=dims[1]),
                          decoder_hidden=dims[2], embed_dim=dims[3])
        params = init_params(cfg, VOCAB.size, seed=seed)
        params["att.sel.v"] = params["att.sel.v"] * v_scale
        frames = rng.normal(size=(n, cfg.context_dim))
        dec_states = [(rng.normal(size=cfg.decoder_hidden), rng.normal(size=cfg.context_dim))
                      for _ in range(beam_size)]
        tokens = [int(t) for t in rng.integers(0, VOCAB.size, size=beam_size)]
        starts = [int(p) for p in rng.integers(-1, n + 2, size=beam_size)]
        states = [nn.gru_step(params, "dec", np.concatenate([params["emb.E"][t], c]), h)[0]
                  for (h, c), t in zip(dec_states, tokens)]
        params["att.sel.r"][0] = bias
        inside = [i for i, p in enumerate(starts) if max(p, 0) < n]
        if edge is not None and inside:
            i = max(inside, key=lambda i: starts[i])
            start = max(starts[i], 0)
            [query], _ = project_queries(params, states[i][None])
            window = project_keys(params, frames)[0][start : start + chunk_size]
            top = float(np.max(energies(params | {"att.sel.r": np.zeros(1)}, "sel", query, window)[0]))
            params["att.sel.r"][0] = -np.nextafter(top, np.inf) if edge else -top
        model = NeuralModel(cfg, params, VOCAB)
        buffer = EncodedBuffer()
        buffer.append(frames)
        steps = model.decode_steps(dec_states, tokens, buffer, [AttentionState(p) for p in starts], True, force)
        for state, start, got in zip(states, starts, steps):
            want = infer_step(params, cfg.attention, state, frames, AttentionState(start), force)
            assert (got.att.status, got.att.selected_index, got.att.peak_index, got.att.forced) == (
                want.status, want.selected_index, want.peak_index, want.forced)
            a, b = got.att.context, want.context
            assert (a is None) == (b is None) and (a is None or np.array_equal(bits(a), bits(b)))


class TestStackedFirstWindowsDecideEveryCrossing:
    """``first_selections`` decides every first window the buffer end does not cut and
    that holds an energy ``>= 0``, on the first such frame; it leaves only cut windows
    and windows without a crossing to the scan. ``edge`` sets the offset on the largest
    energy of one uncut window (0: that energy is exactly 0; 1: one step below)."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), rows=st.integers(1, 8), chunk_size=st.integers(1, 4),
           n=st.integers(0, 10), bias=st.floats(-3.0, 3.0), edge=st.sampled_from([None, 0, 1]))
    # six rows: one crosses on a positive energy, one on an energy of exactly 0, two do not cross, two are cut
    @example(seed=3, rows=6, chunk_size=2, n=8, bias=0.0, edge=0)
    def test_uncut_windows_that_cross_are_decided(self, seed, rows, chunk_size, n, bias, edge):
        rng = np.random.default_rng(seed)
        hidden = int(rng.integers(1, 9))
        params = {"att.sel.v": rng.normal(size=hidden), "att.sel.r": np.zeros(1)}
        keys, queries = rng.normal(size=(n, hidden)), rng.normal(size=(rows, hidden))
        starts = [int(p) for p in rng.integers(-1, n + 2, size=rows)]
        uncut = [i for i, p in enumerate(starts) if max(p, 0) + chunk_size <= n]

        def window(i):
            lo = max(starts[i], 0)
            return energies(params, "sel", queries[i], keys[lo : lo + chunk_size])[0]

        if edge is not None and uncut:
            top = float(np.max(window(uncut[-1])))
            params["att.sel.r"][0] = -np.nextafter(top, np.inf) if edge else -top
        else:
            params["att.sel.r"][0] = bias
        got = first_selections(params, queries, keys, [AttentionState(p) for p in starts], chunk_size)
        for i, start in enumerate(starts):
            hits = np.nonzero(window(i) >= 0.0)[0] if i in uncut else []
            assert got[i] == (max(start, 0) + int(hits[0]) if len(hits) else None)


class TestWindowedScanMatchesWholeTail:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(0, 300), chunk_size=st.integers(1, 4),
           bias=st.floats(-6.0, 3.0), v_scale=st.floats(1.0, 4.0), force=st.booleans(),
           prev=st.sampled_from(["none", "last", "past", "inside"]))
    @example(seed=0, n=0, chunk_size=1, bias=0.0, v_scale=1.0, force=True, prev="none")
    @example(seed=0, n=40, chunk_size=1, bias=-6.0, v_scale=1.0, force=False, prev="none")
    @example(seed=0, n=40, chunk_size=1, bias=-6.0, v_scale=1.0, force=True, prev="none")
    def test_selection_peak_and_context(self, seed, n, chunk_size, bias, v_scale, force, prev):
        rng = np.random.default_rng(seed)
        dims = [int(d) for d in rng.integers(1, 13, size=4)]
        cfg = ModelConfig(encoder=EncoderConfig(proj=dims[0]),
                          attention=AttentionConfig(chunk_size=chunk_size, energy_hidden=dims[1]),
                          decoder_hidden=dims[2], embed_dim=2)
        params = init_params(cfg, VOCAB.size, seed=dims[3])
        params["att.sel.r"][0] = bias
        params["att.sel.v"] = params["att.sel.v"] * v_scale  # sparser crossings, further apart
        frames = rng.normal(size=(n, cfg.context_dim))
        query = rng.normal(size=cfg.decoder_hidden)
        prev_index = {"none": -1, "last": n - 1, "past": n + int(rng.integers(0, 3)),
                      "inside": int(rng.integers(-1, max(n, 1)))}[prev]
        got = infer_step(params, cfg.attention, query, frames, AttentionState(prev_index), force)
        want = reference_mocha_step(params, cfg.attention, query, frames, prev_index, force)
        assert (got.status, got.selected_index, got.peak_index, got.forced) == (
            want.status, want.selected_index, want.peak_index, want.forced)
        if want.context is not None:
            assert np.allclose(got.context, want.context, rtol=0.0, atol=1e-12)


class TestMinibatchEncoderMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), layers=st.integers(1, 3),
           lengths=st.lists(st.integers(0, 37), min_size=1, max_size=8),
           sizes=st.lists(st.integers(1, 9), min_size=1, max_size=4))
    # hidden 1: the z gate's enc0.b cancels to 1.4e-5, 7e-12 of its largest entry but 2e-16 of its terms
    @example(seed=230, layers=2, lengths=[17, 3, 23, 34, 26, 31, 37, 17], sizes=[1])
    def test_rows_equal_streamed_utterances_and_gradients_their_sum(self, seed, layers, lengths, sizes):
        rng = np.random.default_rng(seed)
        cfg = EncoderConfig(num_layers=layers, input_dim=int(rng.integers(1, 6)),
                            hidden=int(rng.integers(1, 12)), proj=int(rng.integers(1, 8)))
        params = init_encoder_params(cfg, rng)
        utts = [rng.normal(size=(n, cfg.input_dim)) for n in lengths]
        encoded, cache = encode_with_cache(params, cfg, np.concatenate(utts), lengths)
        d_encoded = rng.normal(size=encoded.shape)
        encoder = PyramidalEncoder(cfg, params)
        want, terms = nn.zero_grads(params), nn.zero_grads(params)
        end = 0
        for frames in utts:
            state, pieces, lo = encoder.reset(), [], 0
            for hi in split_points(sizes, len(frames)):
                pieces.append(encoder.push(state, frames[lo:hi]))
                lo = hi
            pieces.append(encoder.finish(state))
            streamed = np.vstack(pieces)
            alone, ref_cache = reference_encode_with_cache(params, cfg, frames)
            rows = slice(end, end + len(streamed))
            assert np.array_equal(encoded[rows], streamed) and np.array_equal(streamed, alone)
            reference_encode_backward(params, cfg, ref_cache, d_encoded[rows], want)
            reference_encode_backward(params, cfg, ref_cache, np.abs(d_encoded[rows]), terms, magnitude=True)
            end += len(streamed)
        assert end == len(encoded) and list(cache.lengths) == [(n + 2**layers - 1) // 2**layers for n in lengths]
        got = nn.zero_grads(params)
        encode_backward(params, cfg, cache, d_encoded, got)
        for k in want:  # each entry within 1e-12 of the magnitudes of the terms it sums
            assert within(got[k], want[k], terms[k]), k


def within(got, want, scale=None) -> bool:
    """Every entry within 1e-12 of ``scale`` (a number, or one per entry), by
    default the largest magnitude of ``want``."""
    return bool(np.all(np.abs(got - want) <= 1e-12 * (np.abs(want).max() if scale is None else scale)))


class TestTrainerDecoderMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), frames=st.integers(1, 40),
           tokens=st.lists(st.integers(0, VOCAB.size - 1), max_size=6))
    def test_states_energies_and_gradients(self, seed, frames, tokens):
        rng = np.random.default_rng(seed)
        dims = [int(d) for d in rng.integers(1, 9, size=5)]
        cfg = ModelConfig(encoder=EncoderConfig(proj=dims[0]),
                          attention=AttentionConfig(chunk_size=int(rng.integers(1, 5)), energy_hidden=dims[1]),
                          decoder_hidden=dims[2], embed_dim=dims[3])
        params = {k: v + rng.normal(0.0, 0.3, size=v.shape)
                  for k, v in init_params(cfg, VOCAB.size, seed=dims[4]).items()}
        H = rng.normal(size=(frames, cfg.context_dim))
        ref = [VOCAB.bos_id, *tokens, VOCAB.eos_id]
        tcfg = TrainConfig(scheduled_sampling=0.0, selection_noise_std=0.0)
        loss, cache = forward_loss(cfg, params, H, ref, tcfg, VOCAB)
        got, dH = backward(cfg, params, [cache])

        S = cache["states"]
        for i, step in enumerate(cache["steps"]):
            assert np.array_equal(S[i + 1], reference_gru_step(params, "dec", step["x"], S[i])[0])
            queries = project_queries(params, S[i + 1][None])
            for kind, query, keys, act in zip(("sel", "chunk"), queries, project_keys(params, H), cache["acts"][:, i]):
                e, got_act = energies(params, kind, query[0], keys)
                assert np.array_equal(got_act, act)
                assert within(e, reference_energies(params, kind, S[i + 1], H)[0])

        want_loss, steps = reference_decoder_loss(cfg, params, H, ref, tcfg.label_smoothing)
        want, want_dH, terms = reference_decoder_backward(cfg, params, H, steps)
        assert math.isclose(loss, want_loss, rel_tol=1e-12, abs_tol=0.0)
        assert within(dH, want_dH)
        # each entry within 1e-12 of the larger of its group's largest gradient (the
        # reference sums the energies' terms in another order, which perturbs every
        # gradient on that scale) and the magnitudes of the terms it sums (a tensor
        # whose terms have both signs can cancel far below them)
        scale = {}
        for k, g in want.items():
            scale[group_of(k)] = max(scale.get(group_of(k), 0.0), np.abs(g).max())
        for k in want:
            assert within(got[k], want[k], np.maximum(terms[k], scale[group_of(k)])), k


class TestMinibatchDecoderMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           utts=st.lists(st.tuples(st.integers(1, 24), st.lists(st.integers(0, VOCAB.size - 1), max_size=5)),
                         min_size=1, max_size=8))
    @example(seed=0, utts=[(1, [])])  # one frame, one step
    @example(seed=1, utts=[(1, []), (24, [1, 2, 3, 1, 2]), (1, [2]), (7, []), (2, [1]), (1, [3, 3]), (9, []), (1, [])])
    def test_gradients_are_the_sum_of_the_utterances(self, seed, utts):
        rng = np.random.default_rng(seed)
        dims = [int(d) for d in rng.integers(1, 9, size=5)]
        cfg = ModelConfig(encoder=EncoderConfig(proj=dims[0]),
                          attention=AttentionConfig(chunk_size=int(rng.integers(1, 5)), energy_hidden=dims[1]),
                          decoder_hidden=dims[2], embed_dim=dims[3])
        params = {k: v + rng.normal(0.0, 0.3, size=v.shape)
                  for k, v in init_params(cfg, VOCAB.size, seed=dims[4]).items()}
        tcfg = TrainConfig(scheduled_sampling=0.0, selection_noise_std=0.0)
        scale = 1.0 / len(utts)
        caches, want_dHs = [], []
        want, terms = nn.zero_grads(params), nn.zero_grads(params)
        for frames, tokens in utts:
            H, ref = rng.normal(size=(frames, cfg.context_dim)), [VOCAB.bos_id, *tokens, VOCAB.eos_id]
            caches.append(forward_loss(cfg, params, H, ref, tcfg, VOCAB)[1])
            utt_grads, utt_dH, utt_terms = reference_decoder_backward(
                cfg, params, H, reference_decoder_loss(cfg, params, H, ref, tcfg.label_smoothing)[1])
            add_grads(want, utt_grads, scale)
            add_grads(terms, utt_terms, scale)
            want_dHs.append(utt_dH * scale)
        got, dH = backward(cfg, params, caches, scale=scale)
        want_dH = np.concatenate(want_dHs)  # the utterances' frames back to back
        assert dH.shape == want_dH.shape and within(dH, want_dH)
        for k in want:  # each entry within 1e-12 of the magnitudes of the terms it sums
            assert within(got[k], want[k], terms[k]), k


class TestCerMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(ref=st.lists(st.integers(0, VOCAB.size - 1), max_size=12),
           hyp=st.lists(st.integers(0, VOCAB.size - 1), max_size=12))
    def test_same_report_as_the_backtrace(self, ref, hyp):
        assert cer(ref, hyp, VOCAB) == reference_cer(ref, hyp, VOCAB)


class TestSigmoidMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40))
    def test_bit_identical_on_every_float(self, values):
        x = np.array(values, dtype=np.float64)
        got, want = nn.sigmoid(x), reference_sigmoid(x)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def bits(x: np.ndarray) -> np.ndarray:
    """The bit patterns of ``x``, with every NaN as the one pattern of ``np.nan``."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(np.isnan(x), np.nan, x).view(np.uint64)


ENERGY = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17]))


class TestCrossingsMatchPerRowLoop:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 6).flatmap(
        lambda width: st.lists(st.lists(ENERGY, min_size=width, max_size=width), min_size=1, max_size=8)))
    @example(rows=[[-0.0, -1.0], [float("nan"), 0.0], [-np.inf, np.inf], [-5e-324, 5e-324], [-1e-17, -2.0]])
    def test_first_energy_at_or_above_zero(self, rows):
        """``crossings`` of a stacked matrix, and of each row alone as the scan calls it, is
        the index of the row's first energy ``>= 0``, or -1."""
        want = [next((j for j, x in enumerate(row) if x >= 0.0), -1) for row in rows]
        e = np.array(rows, dtype=np.float64)
        assert crossings(e).tolist() == want
        assert [int(crossings(row)) for row in e] == want


class TestSoftmaxMatchesReference:
    """The chunk stage's stacked softmax, row by row against the first one-row form."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), chunk_size=st.integers(1, 4), n=st.integers(1, 12),
           scale=st.sampled_from([1.0, 30.0, 1e3, 1e300]), data=st.data())
    def test_bit_identical(self, seed, chunk_size, n, scale, data):
        rng = np.random.default_rng(seed)
        hidden = int(rng.integers(1, 9))
        params = {"att.chunk.v": rng.normal(size=hidden) * scale}  # 1e300: energies overflow to inf
        keys, frames = rng.normal(size=(n, hidden)) * 3.0, rng.normal(size=(n, int(rng.integers(1, 9))))
        selected = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
        queries = rng.normal(size=(len(selected), hidden))
        with np.errstate(all="ignore"):  # inf - inf
            weighed = list(zip(*chunk_attend(params, queries, selected, np.eye(n), keys, chunk_size)))  # of eye
            attended = list(zip(*chunk_attend(params, queries, selected, frames, keys, chunk_size)))
            for i, s in enumerate(selected):
                lo = max(0, s - chunk_size + 1)
                want = reference_softmax(energies(params, "chunk", queries[i], keys[lo : s + 1])[0])
                (weights, peak), (context, _) = weighed[i], attended[i]
                assert np.array_equal(bits(weights[lo : s + 1]), bits(want))
                assert not weights[:lo].any() and not weights[s + 1 :].any()
                assert np.array_equal(bits(context), bits(want @ frames[lo : s + 1]))
                assert peak == lo + int(np.argmax(want))


class TestGruStepsMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), rows=st.sampled_from([1, 8]), scale=st.floats(0.1, 30.0))
    def test_each_row_bit_identical_to_one_reference_step(self, seed, rows, scale):
        rng = np.random.default_rng(seed)
        in_dim, hidden = (int(d) for d in rng.integers(1, 17, size=2))
        params = {}
        nn.init_gru(params, "g", in_dim, hidden, rng)
        params = {k: rng.normal(0.0, scale, size=v.shape) for k, v in params.items()}  # saturates some gates
        X, H = rng.normal(size=(rows, in_dim)), np.tanh(rng.normal(size=(rows, hidden)))
        H_new, gates = nn.gru_steps(params, "g", nn.gru_inputs(params, "g", X), H)
        for i in range(rows):
            h_new, (_, _, z, r, uh, n) = reference_gru_step(params, "g", X[i], H[i])
            assert np.array_equal(H_new[i], h_new)
            for got, want in zip(gates, (z, r, uh, n)):
                assert np.array_equal(got[i], want)


class TestGateBatchedProductsMatchPerGate:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.1, 30.0))
    def test_bit_identical_to_per_gate_matvecs_for_every_size(self, seed, scale):
        rng = np.random.default_rng(seed)
        for in_dim in range(1, 17):
            for hidden in range(1, 17):
                M = rng.normal(0.0, scale, size=(3, hidden, in_dim))
                for rows in (1, 8):
                    X = rng.normal(size=(rows, in_dim))
                    got = nn.matvecs(M, X)
                    assert got.shape == (3, rows, hidden)
                    for g in range(3):
                        assert np.array_equal(got[g], nn.matvecs(M[g].copy(), X)), (in_dim, hidden, rows, g)


SOFT_VALUE = st.one_of(st.floats(0.0, 1.0), st.floats(-60.0, 60.0), st.just(float("nan")), st.just(-0.0))


class TestSoftStepMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 24), chunk_size=st.integers(1, 5), data=st.data())
    def test_carry_on_python_floats_bit_identical_to_numpy_scalars(self, n, chunk_size, data):
        p, u, alpha_prev, d_alpha, d_beta = (
            np.array(data.draw(st.lists(SOFT_VALUE, min_size=n, max_size=n)), dtype=np.float64) for _ in range(5))
        with np.errstate(all="ignore"):  # NaN and overflow cases are compared too
            got, want = soft_step(p, u, alpha_prev, chunk_size), reference_soft_step(p, u, alpha_prev, chunk_size)
            for g, w in zip(got[:2] + got[2][:6], want[:2] + want[2][:6]):
                assert (g is None and w is None) or np.array_equal(bits(g), bits(w))
            got_back = soft_step_backward(got[2], d_alpha, d_beta)
            want_back = reference_soft_step_backward(want[2], d_alpha, d_beta)
        for g, w in zip(got_back, want_back):
            assert np.array_equal(bits(g), bits(w))


class TestGruBackwardMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), hidden=st.integers(1, 11),
           lengths=st.lists(st.integers(1, 10), min_size=1, max_size=8), block=st.integers(1, 10))
    @example(seed=0, hidden=5, lengths=[7], block=10)  # the decoder's one row, all steps in one run
    def test_deltas_and_carried_gradients(self, seed, hidden, lengths, block):
        """Rows alive at a step are a prefix of those alive at the step before (the
        encoder's packing); each block of ``block`` steps gets its own kernel, so
        rows end mid-block and the carry crosses blocks."""
        rng = np.random.default_rng(seed)
        in_dim, lengths = int(rng.integers(1, 7)), sorted(lengths, reverse=True)
        params = {}
        nn.init_gru(params, "g", in_dim, hidden, rng)
        params = {k: rng.normal(0.0, 1.0, size=v.shape) for k, v in params.items()}
        alive = [sum(n > i for n in lengths) for i in range(lengths[0])]
        X, H, gates, h = [], [], [], np.tanh(rng.normal(size=(len(lengths), hidden)))
        for m in alive:
            X.append(rng.normal(size=(m, in_dim)))
            H.append(h[:m])
            h, g = nn.gru_steps(params, "g", nn.gru_inputs(params, "g", X[-1]), H[-1])
            gates.append(g)
        d_new = [rng.normal(size=(m, hidden)) for m in alive]  # each new state's own gradient

        # the reference: one row at a time, and the magnitudes of the terms of each value
        want = {key: [None] * len(alive) for key in ("deltas", "dh", "dx")}
        scale = {key: [None] * len(alive) for key in want}
        want_grads, terms = nn.zero_grads(params), nn.zero_grads(params)
        dh, dh_terms = np.zeros((len(lengths), hidden)), np.zeros((len(lengths), hidden))
        for i in reversed(range(len(alive))):
            for key in want:
                want[key][i], scale[key][i] = [], []
            for row in range(alive[i]):
                cache = (X[i][row], H[i][row], *(g[row] for g in gates[i]))
                for values, out, grad_in, total, magnitude in (
                        (want, dh, dh[row] + d_new[i][row], want_grads, False),
                        (scale, dh_terms, dh_terms[row] + np.abs(d_new[i][row]), terms, True)):
                    step = nn.zero_grads(params)
                    dx, out[row] = reference_gru_step_backward(params, "g", cache, grad_in, step, magnitude)
                    for k in total:
                        total[k] += step[k]
                    values["deltas"][i].append(np.concatenate([step["g.U"][2].ravel(), step["g.b"].ravel()]))
                    values["dh"][i].append(out[row].copy())
                    values["dx"][i].append(dx)

        got_grads, carry, first = nn.zero_grads(params), np.zeros((0, hidden)), list(range(0, len(alive), block))
        for lo in reversed(first):
            steps = range(lo, min(lo + block, len(alive)))
            starts = np.cumsum([0] + [alive[i] for i in steps])
            gru = nn.GruBackward(params, "g", tuple(np.concatenate(g) for g in zip(*(gates[i] for i in steps))),
                                 np.concatenate([H[i] for i in steps]))
            for i in reversed(steps):
                a, b = starts[i - lo], starts[i - lo + 1]
                dh_new = d_new[i].copy()
                dh_new[: len(carry)] += carry
                carry = gru.carry(a, b, dh_new)
                duh = gru.deltas[a:b, hidden : 2 * hidden]  # the gradient of U[n] @ h
                got = np.concatenate([(duh[:, :, None] * H[i][:, None, :]).reshape(b - a, -1),
                                      gru.gate_deltas[a:b]], axis=1)
                assert within(got, np.array(want["deltas"][i]), np.array(scale["deltas"][i]))
                assert within(carry, np.array(want["dh"][i]), np.array(scale["dh"][i]))
                assert within((gru.gate_deltas @ gru.W)[a:b], np.array(want["dx"][i]), np.array(scale["dx"][i]))
            gru.param_grads(np.concatenate([X[i] for i in steps]), got_grads)
        for k in want_grads:
            assert within(got_grads[k], want_grads[k], terms[k]), k


class TestOracleMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(layout=st.lists(st.tuples(st.sampled_from([SIL_LABEL, "a", "b", "c"]), st.integers(1, 30)),
                           min_size=1, max_size=12),
           r=st.sampled_from([1, 2, 3, 4, 8, 16]), mode=st.sampled_from(["silence_aware", "silence_skipping"]),
           d=st.integers(1, 8), min_sil=st.integers(0, 4), data=st.data())
    def test_owners_spans_schedule_and_steps(self, layout, r, mode, d, min_sil, data):
        segments, t = [], 0
        for label, length in layout:
            segments.append(Segment(label, t, t + length))
            t += length
        alignment = Alignment(tuple(segments))
        model = OracleModel(OracleMode(mode, d, min_sil), VOCAB, alignment, r)
        owners = reference_encoded_owners(alignment, r)
        spans = reference_segment_spans(owners, len(segments))
        assert model._owner == owners and all(type(o) is int for o in model._owner)
        assert model._spans == spans
        assert model._schedule == reference_schedule(model, spans)
        frames = np.zeros((len(owners), 1))
        for _ in range(20):
            n = data.draw(st.integers(0, len(owners)))
            prev = data.draw(st.integers(-1, len(owners) - 1))
            complete, force = data.draw(st.booleans()), data.draw(st.booleans())
            step = model.decode_step(None, VOCAB.bos_id, frames[:n], AttentionState(prev_index=prev), complete, force)
            token = None if step.stalled else int(np.argmax(step.log_probs))
            got = (step.att.status, step.att.selected_index, step.att.peak_index, step.att.forced, token)
            assert got == reference_oracle_step(model, owners, spans, n, prev, complete, force)


def paused_utt(words, pauses, seed):
    """An utterance of ``words``, each word at position ``pos >= 1`` followed by
    ``pauses[pos % len(pauses)]`` frames of silence when that is more than 16."""
    layout = [(pos, pauses[pos % len(pauses)]) for pos in range(1, len(words) + 1) if pauses[pos % len(pauses)] > 16]
    return make_utt(words, layout, seed=seed)


class TestOracleStreamProperties:
    @settings(max_examples=240, deadline=None)
    @given(words=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4),
           pauses=st.lists(st.integers(8, 120), min_size=1, max_size=5),
           batches=st.lists(st.integers(1, 48), min_size=1, max_size=8),
           buffers=st.sampled_from([(120, 120), (240, 480), (480, 960)]),
           beam_size=st.integers(1, 4), seed=st.integers(0, 1000), engine=st.sampled_from(ENGINES),
           eos_policy=st.sampled_from(EOS_POLICIES), skipping=st.booleans())
    # restart closes segments holding a word each, and voids steps between them
    @example(words=["a", "b", "c"], pauses=[120], batches=[8], buffers=(120, 120), beam_size=2, seed=0,
             engine="buffered", eos_policy="restart", skipping=True)
    @example(words=["a", "b", "c"], pauses=[120], batches=[8], buffers=(120, 120), beam_size=1, seed=0,
             engine="plain", eos_policy="restart", skipping=True)
    def test_oracle_prefix_only_grows_and_stream_equals_offline(self, words, pauses, batches, buffers,
                                                                 beam_size, seed, engine, eos_policy, skipping):
        """Also, under every policy, every committed token is returned by one
        push, counted once in the trace and has its emission."""
        utt = paused_utt(words, pauses, seed)
        # a silence-skipping oracle ends early at long pauses, so restart closes segments
        model = aware(utt, d=6, min_sil=3)
        if skipping:
            model = OracleModel(OracleMode("silence_skipping", 6, 3), VOCAB, utt.alignment, 4)
        beam_cfg = BeamConfig(beam_size=beam_size, eos_policy=eos_policy)
        stream_cfg = StreamConfig(min_buffer_ms=buffers[0], sil_buffer_ms=buffers[1], engine=engine)
        session = StreamSession(model, stream_cfg, beam_cfg)
        frames = utt.features.frames
        lo, i, returned = 0, 0, [VOCAB.bos_id]
        while lo < len(frames):
            hi = min(len(frames), lo + batches[i % len(batches)])
            before = list(session.committed)
            returned += session.push(frames[lo:hi], is_last=hi == len(frames))
            assert session.committed[: len(before)] == before  # the same nodes
            assert session.display_log[-1][1] == reference_display(session)
            lo, i = hi, i + 1
        result = session.result()
        assert returned == result.tokens
        assert sum(record["committed"] for record in session.trace) == len(result.tokens) - 1
        assert [em.token for em in result.emissions] == result.tokens[1:]
        if eos_policy == "defer" and not skipping:
            assert result.tokens == decode_offline(model, utt.features, beam_cfg).tokens


def same_array(a, b) -> bool:
    return (a is None) == (b is None) and (a is None or np.array_equal(a, b))


def same_attention(got, want) -> bool:
    """Whether two attention results (or Nones) hold equal fields, arrays compared by value."""
    if got is None or want is None:
        return got is want
    return ((got.status, got.selected_index, got.peak_index, got.forced)
            == (want.status, want.selected_index, want.peak_index, want.forced)
            and same_array(got.context, want.context))


def same_step(got, want) -> bool:
    return (same_array(got.log_probs, want.log_probs) and got.dec_state is want.dec_state is None
            and same_attention(got.att, want.att))


def oracle_beam(model, positions, scores) -> list[Hypothesis]:
    """A beam of fresh hypotheses attending ``positions`` with log scores ``scores``."""
    return [initial_hypothesis(model, prev_index=p)._replace(log_score=s) for p, s in zip(positions, scores)]


class TestOracleSharesOneStepPerPosition:
    """The oracle steps once per distinct attention position and hands that
    output to every hypothesis there; the decoder's shared ranking of it
    gives the beam fresh copies give."""

    @staticmethod
    def draw_case(data, words, pauses, seed, mode):
        utt = paused_utt(words, pauses, seed)
        model = OracleModel(OracleMode(mode, 6, 3), VOCAB, utt.alignment, 4)
        frames = encode(model, utt.features.frames)
        # one position for the whole beam, or a position per hypothesis
        size = data.draw(st.integers(1, 8))
        if data.draw(st.booleans()):
            positions = [data.draw(st.integers(-1, len(frames) - 1))] * size
        else:
            positions = data.draw(st.lists(st.integers(-1, len(frames) - 1), min_size=size, max_size=size))
        return model, frames, positions

    @settings(max_examples=200, deadline=None)
    @given(words=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4),
           pauses=st.lists(st.integers(8, 120), min_size=1, max_size=5), seed=st.integers(0, 1000),
           mode=st.sampled_from(ORACLE_MODES), complete=st.booleans(), force=st.booleans(), data=st.data())
    def test_one_output_per_position_equal_to_each_hypothesis_step(self, words, pauses, seed, mode, complete,
                                                                   force, data):
        model, frames, positions = self.draw_case(data, words, pauses, seed, mode)
        buffer = EncodedBuffer()
        buffer.append(frames[: data.draw(st.integers(0, len(frames)))])
        states = [AttentionState(p) for p in positions]
        tokens = data.draw(st.lists(st.integers(0, VOCAB.size - 1), min_size=len(states), max_size=len(states)))
        outs = model.decode_steps([None] * len(states), tokens, buffer, states, complete, force=force)
        assert len(outs) == len(states)
        for out, state, token in zip(outs, states, tokens):
            assert same_step(out, model.decode_step(None, token, buffer.array, state, complete, force))
        for out, p in zip(outs, positions):
            assert all((out is other) == (p == q) for other, q in zip(outs, positions))

    @settings(max_examples=120, deadline=None)
    @given(words=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4),
           pauses=st.lists(st.integers(8, 120), min_size=1, max_size=5), seed=st.integers(0, 1000),
           mode=st.sampled_from(ORACLE_MODES), beam_size=st.sampled_from([1, 8]), block_eos=st.booleans(),
           force=st.booleans(), steps=st.integers(1, 6), data=st.data())
    def test_shared_outputs_give_the_beam_fresh_copies_give(self, words, pauses, seed, mode, beam_size,
                                                            block_eos, force, steps, data):
        model, frames, positions = self.draw_case(data, words, pauses, seed, mode)
        scores = data.draw(st.lists(st.sampled_from([0.0, -0.5, -1.0, -3.0]), min_size=len(positions),
                                    max_size=len(positions)))
        beam_cfg = BeamConfig(beam_size=beam_size)
        shared, fresh = oracle_beam(model, positions, scores), oracle_beam(model, positions, scores)
        buffer = EncodedBuffer()
        for _ in range(steps):
            buffer.append(frames[len(buffer) : data.draw(st.integers(len(buffer), len(frames)))])
            complete = len(buffer) == len(frames)
            shared, shared_atts, _ = decode_step(model, shared, buffer, complete, beam_cfg, clock_ms=len(buffer),
                                                 force=force, block_eos=block_eos)
            fresh, fresh_atts, _ = decode_step(FreshOutputs(model), fresh, buffer, complete, beam_cfg,
                                               clock_ms=len(buffer), force=force, block_eos=block_eos)
            assert [hyp_tokens(h) for h in shared] == [hyp_tokens(h) for h in fresh]
            assert [h.log_score for h in shared] == [h.log_score for h in fresh]
            assert [(h.finished, h.runaway, h.att_state) for h in shared] == [
                (h.finished, h.runaway, h.att_state) for h in fresh]
            assert [hyp_timeline(h) for h in shared] == [hyp_timeline(h) for h in fresh]
            assert all(same_attention(a, b) for a, b in zip(shared_atts, fresh_atts, strict=True))


class TestIncrementalDisplay:
    # sel_r None streams an oracle, a number a random NeuralModel with that att.sel.r
    @settings(max_examples=120, deadline=None)
    @given(words=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4),
           pauses=st.lists(st.integers(8, 120), min_size=1, max_size=5),
           batches=st.lists(st.integers(1, 48), min_size=1, max_size=8),
           buffers=st.sampled_from([(0, 0), (120, 120), (240, 480), (480, 960)]),
           beam_size=st.integers(1, 8), seed=st.integers(0, 1000), engine=st.sampled_from(ENGINES),
           eos_policy=st.sampled_from(EOS_POLICIES), mode=st.sampled_from(ORACLE_MODES),
           sel_r=st.sampled_from([None, -2.0, 0.0, 2.0]))
    # the skipping oracle closes a segment at each long pause under restart
    @example(words=["a", "b", "c"], pauses=[120], batches=[8], buffers=(120, 120), beam_size=2, seed=0,
             engine="buffered", eos_policy="restart", mode="silence_skipping", sel_r=None)
    @example(words=["a", "b", "c"], pauses=[120], batches=[8], buffers=(120, 120), beam_size=1, seed=0,
             engine="plain", eos_policy="restart", mode="silence_skipping", sel_r=None)
    # the best hypothesis stalls while another runs to the token cap, then the
    # plain engine's forced step runs a second one there: a decode of 2 * cap steps
    @example(words=["a"], pauses=[58], batches=[1], buffers=(0, 0), beam_size=2, seed=0,
             engine="plain", eos_policy="restart", mode="silence_aware", sel_r=0.0)
    # a random model's best hypothesis switches branch while nothing commits
    @example(words=["a", "b", "c", "a"], pauses=[40], batches=[16], buffers=(240, 480), beam_size=8, seed=1,
             engine="buffered", eos_policy="defer", mode="silence_aware", sel_r=0.0)
    def test_every_push_displays_the_rebuilt_display(self, words, pauses, batches, buffers, beam_size, seed,
                                                     engine, eos_policy, mode, sel_r):
        utt = paused_utt(words, pauses, seed)
        if sel_r is None:
            model = OracleModel(OracleMode(mode, 6, 3), VOCAB, utt.alignment, 4)
        else:
            base = neural_model(seed)
            base.params["att.sel.r"][0] = sel_r
            model = NeuralModel(base.cfg, base.params, VOCAB, silence_aware=mode == "silence_aware")
        stream_cfg = StreamConfig(min_buffer_ms=buffers[0], sil_buffer_ms=buffers[1], engine=engine)
        session = StreamSession(model, stream_cfg, BeamConfig(beam_size=beam_size, eos_policy=eos_policy))
        frames, lo = utt.features.frames, 0
        for hi in split_points(batches, len(frames)):
            session.push(frames[lo:hi], is_last=hi == len(frames))
            assert session.display_log[-1][1] == reference_display(session)
            lo = hi


def streamed(model, utt, batches, stream_cfg, beam_cfg) -> StreamSession:
    session = StreamSession(model, stream_cfg, beam_cfg)
    frames, lo = utt.features.frames, 0
    for hi in split_points(batches, len(frames)):
        session.push(frames[lo:hi], is_last=hi == len(frames))
        lo = hi
    return session


# stalls, voids and retries at every push of a short pause, all reused
REUSED = dict(words=["a", "b", "c"], pauses=[64], batches=[8], buffers=(240, 480), beam_size=8, seed=0,
              engine="buffered", eos_policy="defer", sel_r=None)


class TestReusedStepsChangeNothing:
    # sel_r None streams the aware oracle, a number a random NeuralModel with that att.sel.r
    @settings(max_examples=120, deadline=None)
    @given(words=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4),
           pauses=st.lists(st.integers(8, 120), min_size=1, max_size=5),
           batches=st.lists(st.integers(1, 48), min_size=1, max_size=8),
           buffers=st.sampled_from([(0, 0), (120, 120), (240, 480), (480, 960)]),
           beam_size=st.integers(1, 8), seed=st.integers(0, 1000), engine=st.sampled_from(ENGINES),
           eos_policy=st.sampled_from(EOS_POLICIES),
           sel_r=st.sampled_from([None, -2.0, 0.0, 2.0]))
    @example(**REUSED)
    def test_stream_equals_the_stream_that_recomputes_every_step(self, words, pauses, batches, buffers, beam_size,
                                                                 seed, engine, eos_policy, sel_r):
        self.compare(words, pauses, batches, buffers, beam_size, seed, engine, eos_policy, sel_r)

    def test_the_pinned_example_reuses_steps(self):
        assert self.compare(**REUSED) > 0

    @staticmethod
    def compare(words, pauses, batches, buffers, beam_size, seed, engine, eos_policy, sel_r) -> int:
        """Stream once as is and once behind a declaration of unstable steps;
        every output must be equal. Returns the steps reused."""
        utt = paused_utt(words, pauses, seed)
        if sel_r is None:
            model = aware(utt, d=6, min_sil=3)
        else:
            base = neural_model(seed)
            base.params["att.sel.r"][0] = sel_r
            model = NeuralModel(base.cfg, base.params, VOCAB, silence_aware=seed % 2 == 0)
        stream_cfg = StreamConfig(min_buffer_ms=buffers[0], sil_buffer_ms=buffers[1], engine=engine)
        beam_cfg = BeamConfig(beam_size=beam_size, eos_policy=eos_policy)
        reused = streamed(model, utt, batches, stream_cfg, beam_cfg)
        recomputed = streamed(Declared(model, False), utt, batches, stream_cfg, beam_cfg)
        assert recomputed.reused_steps == 0
        got, want = reused.result(), recomputed.result()
        assert got.tokens == want.tokens and got.emissions == want.emissions
        assert got.display_log == want.display_log and got.restarts == want.restarts
        assert reused.trace == recomputed.trace and reused.backtracks == recomputed.backtracks
        return reused.reused_steps


class TestVoidedStepsBuildNothing:
    def test_a_voided_step_builds_no_node_and_its_retry_builds_each_survivor_once(self, monkeypatch):
        """On the pinned ``REUSED`` stream, a step whose beam the session does not
        keep builds no history node, and a retry that reuses a voided step builds
        one node per hypothesis it expands."""
        utt = paused_utt(REUSED["words"], REUSED["pauses"], REUSED["seed"])
        stream_cfg = StreamConfig(min_buffer_ms=REUSED["buffers"][0], sil_buffer_ms=REUSED["buffers"][1])
        session = StreamSession(aware(utt, d=6, min_sil=3), stream_cfg, BeamConfig(beam_size=REUSED["beam_size"]))
        built, steps, adopted = [0], [], set()
        extend, step = History.extend, streamer.decode_step

        def counted_extend(node, *args):
            built[0] += 1
            return extend(node, *args)

        def counted_step(model, beam, *args, **kwargs):
            before = built[0]
            out = step(model, beam, *args, **kwargs)
            steps.append((beam, out[0], built[0] - before, kwargs.get("reuse") is not None))
            return out

        monkeypatch.setattr(History, "extend", counted_extend)
        monkeypatch.setattr(streamer, "decode_step", counted_step)
        frames, lo = utt.features.frames, 0
        for hi in split_points(REUSED["batches"], len(frames)):
            session.push(frames[lo:hi], is_last=hi == len(frames))
            adopted.add(id(session.beam))
            lo = hi
        adopted.update(id(beam) for beam, _, _, _ in steps)  # a step was kept iff its beam was stepped or ended a push
        voided = [nodes for _, new_beam, nodes, _ in steps if id(new_beam) not in adopted]
        retried = [(beam, new_beam, nodes) for beam, new_beam, nodes, reused in steps
                   if reused and id(new_beam) in adopted]
        assert len(voided) == len(session.backtracks) > 0 and len(retried) > 0
        assert voided == [0] * len(voided)
        for beam, new_beam, nodes in retried:
            assert nodes == sum(all(hyp is not old for old in beam) for hyp in new_beam) > 0


def same_beam(got, want) -> bool:
    """Whether two beams hold equal hypotheses: tokens, emissions, score, flags and states."""
    def states(hyp):  # the oracle's decoder state is None, a neural model's a pair of arrays
        return () if hyp.dec_state is None else hyp.dec_state

    return len(got) == len(want) and all(
        hyp_tokens(g) == hyp_tokens(w) and hyp_timeline(g) == hyp_timeline(w)
        and (g.log_score, g.finished, g.runaway, g.att_state) == (w.log_score, w.finished, w.runaway, w.att_state)
        and len(states(g)) == len(states(w)) and all(same_array(a, b) for a, b in zip(states(g), states(w)))
        for g, w in zip(got, want))


class TestVoidRule:
    """``decode_step``'s void rule reads the chosen expansions before any is
    built: a rule that never fires changes nothing, and a voided step that may
    be reused, retried over a longer buffer at a later clock, equals the step
    computed fresh there."""

    # sel_r None steps the aware oracle, a number a random NeuralModel with that att.sel.r
    @settings(max_examples=100, deadline=None)
    @given(words=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4),
           pauses=st.lists(st.integers(8, 120), min_size=1, max_size=5), seed=st.integers(0, 1000),
           sel_r=st.sampled_from([None, -2.0, 0.0, 2.0]), beam_size=st.sampled_from([1, 3, 8]),
           block_eos=st.booleans(), data=st.data())
    def test_unfired_rule_changes_nothing_and_retry_equals_fresh_step(self, words, pauses, seed, sel_r, beam_size,
                                                                       block_eos, data):
        utt = paused_utt(words, pauses, seed)
        if sel_r is None:
            model = aware(utt, d=6, min_sil=3)
        else:
            base = neural_model(seed % 7)
            base.params["att.sel.r"][0] = sel_r
            model = NeuralModel(base.cfg, base.params, VOCAB, silence_aware=True)
        frames = encode(model, utt.features.frames)
        beam_cfg, buffer, beam = BeamConfig(beam_size=beam_size), EncodedBuffer(), [initial_hypothesis(model)]
        for _ in range(data.draw(st.integers(1, 8))):
            buffer.append(frames[len(buffer) : data.draw(st.integers(len(buffer), len(frames)))])
            complete = len(buffer) == len(frames)
            step = functools.partial(decode_step, model, beam, buffer, complete, beam_cfg, clock_ms=10.0 * len(buffer),
                                     force=complete, block_eos=block_eos)
            want, want_atts, none = step()
            got, got_atts, unfired = step(void=lambda expansions: None)
            assert none is unfired is None and same_beam(got, want)
            assert all(same_attention(a, b) for a, b in zip(got_atts, want_atts, strict=True))
            seen = []
            gone, void_atts, voided = step(void=lambda expansions: seen.append(expansions) or "voided")
            assert gone is None and voided.reason == "voided"
            assert all(same_attention(a, b) for a, b in zip(void_atts, want_atts, strict=True))
            expanded = [(h.history.parent.token, a) for h, a in zip(want, want_atts) if a and a.status == "selected"]
            assert [token for token, _ in seen[0]] == [token for token, _ in expanded]
            assert all(same_attention(a, b) for (_, a), (_, b) in zip(seen[0], expanded, strict=True))
            if (not complete and all(h.finished and not h.runaway for h in voided.kept)
                    and not any(a and a.forced for a in void_atts)):
                # the session's retry: more frames, a later clock, unforced and never final
                buffer.append(frames[len(buffer) : data.draw(st.integers(len(buffer), len(frames)))])
                retry = functools.partial(decode_step, model, beam, buffer, False, beam_cfg,
                                          clock_ms=10.0 * len(buffer), block_eos=block_eos)
                (got, got_atts, _), (fresh, fresh_atts, _) = retry(reuse=voided), retry()
                assert same_beam(got, fresh)
                assert all(same_attention(a, b) for a, b in zip(got_atts, fresh_atts, strict=True))
            beam = want


def parent_walk(node: History, length: int) -> History:
    while node.length > length:
        node = node.parent
    return node


def parent_walk_common(histories: list[History]) -> History:
    common = histories[0]
    for other in histories[1:]:
        a, b = parent_walk(common, other.length), parent_walk(other, common.length)
        while a is not b:
            a, b = a.parent, b.parent
        common = a
    return common


class TestHistoryJumpPointers:
    @settings(max_examples=200, deadline=None)
    @given(growth=st.lists(st.tuples(st.one_of(st.integers(0, 3), st.integers(0, 10**6)), st.integers(0, 6)),
                           max_size=300),
           tips=st.lists(st.integers(0, 10**6), min_size=1, max_size=8), floor_at=st.integers(0, 10**6))
    def test_ancestor_and_common_ancestor_match_a_parent_walk(self, growth, tips, floor_at):
        """Trees grown only through ``extend``: mostly chains, as a beam grows
        them, with some nodes extended again at random."""
        nodes = [History(0, None, None, 1)]
        for back, token in growth:
            # small values extend one of the newest nodes, large ones any node
            parent = nodes[len(nodes) - 1 - back] if back < len(nodes) else nodes[back % len(nodes)]
            nodes.append(parent.extend(token))
        beam = [nodes[i % len(nodes)] for i in tips]
        beam.append(beam[0].parent or beam[0])  # a tip that is an ancestor of another tip
        for tip in beam:
            for length in range(1, tip.length + 2):
                assert tip.ancestor(length) is parent_walk(tip, length)
        common = parent_walk_common(beam)
        floor = parent_walk(common, 1 + floor_at % common.length)
        assert common_ancestor(beam, floor) is common
        assert common_ancestor(beam, common) is common
        assert common_ancestor(beam[::-1], nodes[0]) is common

    def test_hops_grow_with_the_log_of_the_depth(self, monkeypatch):
        """On two chains 2^14 deep that split below the root, reaching any
        depth from a tip, or the common node of two tips, reads O(log depth)
        jump and parent pointers: at most 54 and 116 here, where a parent walk
        reads up to 16383."""
        root = History(0, None, None, 1)
        tips = [root.extend(1), root.extend(2)]
        for _ in range(2**14 - 2):
            tips = [tip.extend(0) for tip in tips]
        assert tips[0].length == 2**14
        reads = [0]

        def counting(field):
            def read(node):
                reads[0] += 1
                return field.__get__(node)
            return property(read)

        for name in ("jump", "parent"):
            monkeypatch.setattr(History, name, counting(getattr(History, name)))
        levels = 14
        for tip in (tips[0], tips[0].parent.parent.parent):
            for length in range(1, tip.length + 1):
                reads[0] = 0
                assert tip.ancestor(length).length == length
                assert reads[0] <= 6 * levels
        for pair in (tips, [tips[0].parent, tips[1].parent.parent.parent]):
            reads[0] = 0
            assert common_ancestor(pair, root) is root
            assert reads[0] <= 12 * levels
