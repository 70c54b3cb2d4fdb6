"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria 7a/7b (trained models) share one session-scoped training fixture;
everything else runs on oracles or random parameters. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""
import math
import time

import numpy as np
import pytest

import silstream as ss
from silstream import nn, trainer
from silstream.attention import (
    AttentionConfig,
    AttentionState,
    init_attention_params,
    initial_alpha,
    soft_step,
)
from silstream.decoder import BeamConfig
from silstream.encoder import EncoderConfig, PyramidalEncoder, init_encoder_params
from silstream.labeler import LabelerConfig, label_corpus
from silstream.metrics import CerReport, cer, cpl, sweep, sweep_csv
from silstream.model import ModelConfig, NeuralModel, init_params
from silstream.streamer import StreamConfig, decode_offline, stream_decode
from silstream.synth import CorpusSpec, OracleMode, OracleModel, SynthConfig, gen_corpus, gen_utterance
from silstream.trainer import TrainConfig, _minibatch_gradients
from silstream.vocab import make_vocab

from support import PARAM_GROUPS, corpus_loss, encode, group_of, infer_step

VOCAB = make_vocab([f"t{i}" for i in range(5)])
SYNTH = SynthConfig(vocab=VOCAB, feature_dim=8, frames_per_token=8)
REDUCTION = 4


def aware_oracle(utt, d=6, min_sil=3):
    return OracleModel(OracleMode("silence_aware", d, min_sil), VOCAB, utt.alignment, REDUCTION)


def skipping_oracle(utt):
    return OracleModel(OracleMode("silence_skipping"), VOCAB, utt.alignment, REDUCTION)


def passed(name, detail=""):
    print(f"\nACCEPTANCE PASS {name}" + (f" ({detail})" if detail else ""))


# --- criterion 1: streaming-encoder equivalence -------------------------------


def test_criterion_1_streaming_encoder_equivalence():
    started = time.time()
    cfg = EncoderConfig(num_layers=2, input_dim=8, hidden=32, proj=16)
    enc = PyramidalEncoder(cfg, init_encoder_params(cfg, np.random.default_rng(0)))
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        total = int(rng.integers(1, 120))
        frames = rng.normal(size=(total, cfg.input_dim))
        reference = encode(enc, frames)
        state = enc.reset()
        cuts = sorted(int(c) for c in rng.choice(total + 1, size=int(rng.integers(0, 6))))
        bounds = [0] + cuts + [total]
        parts = [enc.push(state, frames[a:b]) for a, b in zip(bounds, bounds[1:])]
        parts.append(enc.finish(state))
        streamed = np.vstack([p for p in parts if p.size])
        assert streamed.shape == reference.shape
        worst = max(worst, float(np.abs(streamed - reference).max()))
    elapsed = time.time() - started
    assert worst <= 1e-6
    assert elapsed < 10.0
    passed("criterion 1", f"100 utterances, max abs diff {worst:.2e}, {elapsed:.1f}s")


# --- criterion 2: MoChA correctness --------------------------------------------


def test_criterion_2_mocha_correctness():
    started = time.time()
    rng = np.random.default_rng(2)

    # (a) chunk=1 soft weights equal monotonic-attention weights exactly
    for _ in range(50):
        p = rng.uniform(0, 1, size=9)
        u = rng.normal(size=9)
        alpha, beta, _ = soft_step(p, u, initial_alpha(9), 1)
        assert np.array_equal(alpha, beta)

    # (b) expected alignment vs exhaustive hard-path enumeration on T'=4
    def enumerate_step(dist, p):
        out = np.zeros(len(dist))
        for start, mass in enumerate(dist):
            stay = mass
            for t in range(start, len(dist)):
                out[t] += stay * p[t]
                stay *= 1.0 - p[t]
        return out

    for _ in range(20):
        rows = rng.uniform(0.05, 0.95, size=(3, 4))
        dist = initial_alpha(4)
        alpha = initial_alpha(4)
        for p in rows:
            dist = enumerate_step(dist, p)
            alpha, _, _ = soft_step(p, np.zeros(4), alpha, 2)
            assert np.abs(alpha - dist).max() <= 1e-8

    # (b) Monte-Carlo agreement on T'=3, one million samples
    p = rng.uniform(0.2, 0.8, size=3)
    alpha, _, _ = soft_step(p, np.zeros(3), initial_alpha(3), 1)
    n = 10**6
    draws = rng.random(size=(n, 3)) < p
    first = np.argmax(draws, axis=1)
    hit = draws.any(axis=1)
    estimate = np.array([np.sum(hit & (first == t)) for t in range(3)]) / n
    sigma = np.sqrt(np.maximum(alpha * (1 - alpha), 1e-12) / n)
    assert np.all(np.abs(estimate - alpha) <= 3 * sigma)

    # (c) hard-mode selected indices nondecreasing over 1000 random decodes
    acfg = AttentionConfig(chunk_size=3, energy_hidden=8)
    params = init_attention_params(acfg, 6, 5, rng)
    params["att.sel.r"] = np.array([0.5])  # selections actually fire
    for _ in range(1000):
        frames = rng.normal(size=(int(rng.integers(2, 10)), 5))
        state = AttentionState()
        last = -1
        for _step in range(5):
            res = infer_step(params, acfg, rng.normal(size=6), frames, state)
            if res.status != "selected":
                break
            assert res.selected_index >= last
            last = res.selected_index
            state = AttentionState(prev_index=last)
    elapsed = time.time() - started
    assert elapsed < 60.0
    passed("criterion 2", f"enumeration, Monte Carlo, monotonicity, {elapsed:.1f}s")


# --- criterion 3: gradient verification ----------------------------------------


def test_criterion_3_gradient_verification():
    started = time.time()
    cfg = ModelConfig(
        encoder=EncoderConfig(num_layers=2, input_dim=4, hidden=8, proj=6),
        attention=AttentionConfig(chunk_size=3, energy_hidden=5),
        decoder_hidden=8, embed_dim=4,
    )
    params = init_params(cfg, VOCAB.size, seed=3)
    rng = np.random.default_rng(4)
    # a ragged minibatch, checked through the gradient that train applies
    batch = [(ss.FeatureSequence(rng.normal(size=(frames, 4))),
              [VOCAB.bos_id] + [VOCAB.id_of(f"t{i}") for i in tokens] + [VOCAB.eos_id])
             for frames, tokens in ((12, (0, 1, 2)), (7, (3, 1)), (13, (2, 0, 3)))]
    tcfg = TrainConfig(scheduled_sampling=0.0, selection_noise_std=0.0)
    _, grads = _minibatch_gradients(cfg, params, batch, tcfg, VOCAB, rng)
    step = 1e-4
    worst = dict.fromkeys(PARAM_GROUPS, 0.0)
    for name in sorted(params):
        g_fd = np.zeros_like(params[name])
        it = np.nditer(params[name], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = params[name][idx]
            params[name][idx] = orig + step
            up = corpus_loss(cfg, params, batch, tcfg, VOCAB)
            params[name][idx] = orig - step
            dn = corpus_loss(cfg, params, batch, tcfg, VOCAB)
            params[name][idx] = orig
            g_fd[idx] = (up - dn) / (2 * step)
        denom = max(np.abs(g_fd).max(), np.abs(grads[name]).max(), 1e-8)
        group = group_of(name)
        worst[group] = max(worst[group], float(np.abs(grads[name] - g_fd).max() / denom))
    elapsed = time.time() - started
    for group, rel in worst.items():
        assert rel <= 1e-3, f"{group}: {rel}"
    assert elapsed < 60.0
    detail = ", ".join(f"{g} {v:.1e}" for g, v in sorted(worst.items()))
    passed("criterion 3", f"{detail}, {elapsed:.1f}s")


# --- criteria 4 and 5: pathology and restart baseline --------------------------

BATCH_MS = 320
BUFFER_MS = 480.0
PATHOLOGY_SEED = 11


def pathology_corpus():
    """200 utterances, each with one mid silence >= 2 x batch + buffer.

    Half the corpus gets a "tight" silence that ends within one batch of the
    premature end-of-utterance decision, the other half a much longer one,
    so the restart baseline recovers some but not all deletions.
    """
    rng = np.random.default_rng(PATHOLOGY_SEED)
    floor_frames = 2 * (BATCH_MS // 10) + int(BUFFER_MS // 10)  # 112 raw frames
    corpus = {}
    content = [VOCAB.id_of(f"t{i}") for i in range(5)]
    for n in range(200):
        head = [content[int(rng.integers(5))] for _ in range(int(rng.integers(1, 3)))]
        tail = [content[int(rng.integers(5))] for _ in range(int(rng.integers(1, 3)))]
        if n % 2 == 0:
            sil = floor_frames + 4 * int(rng.integers(0, 3))  # tight: 112-120
        else:
            sil = 240 + 4 * int(rng.integers(0, 10))  # loose: 240-276
        layout = [(len(head), sil), (len(head) + len(tail), 48)]
        utt = gen_utterance(SYNTH, seed=int(rng.integers(2**31)), tokens=head + tail,
                            silence_layout=layout, utt_id=f"path{n:03d}")
        corpus[utt.utt_id] = utt
    return corpus


@pytest.fixture(scope="module")
def pathology_results():
    corpus = pathology_corpus()
    out = {}
    for policy in ("accept", "restart"):
        reports = []
        restarts = 0
        plain = StreamConfig(batch_ms=BATCH_MS, min_buffer_ms=BUFFER_MS, sil_buffer_ms=BUFFER_MS, engine="plain")
        for utt in corpus.values():
            result, _ = stream_decode(skipping_oracle(utt), utt.features, plain,
                                      BeamConfig(beam_size=1, eos_policy=policy))
            reports.append(cer(utt.tokens, result.tokens, VOCAB))
            restarts += len(result.restarts)
        out[policy] = (sum(reports, CerReport()), restarts)
    offline = sum(
        (cer(u.tokens, decode_offline(skipping_oracle(u), u.features, BeamConfig(beam_size=1)).tokens, VOCAB)
         for u in corpus.values()),
        CerReport(),
    )
    out["offline"] = (offline, 0)
    return out


def test_criterion_4_premature_eos_pathology(pathology_results):
    started = time.time()
    offline, _ = pathology_results["offline"]
    online, _ = pathology_results["accept"]
    assert offline.cer == 0.0
    assert online.del_rate >= 0.30
    passed("criterion 4", f"offline CER 0, online deletion rate {online.del_rate:.2f}")
    assert time.time() - started < 60.0


def test_criterion_5_restart_baseline(pathology_results):
    accept, _ = pathology_results["accept"]
    restart, n_restarts = pathology_results["restart"]
    assert restart.del_rate <= 0.5 * accept.del_rate
    assert restart.del_rate > 0.0
    assert n_restarts > 0
    passed(
        "criterion 5",
        f"deletion rate {accept.del_rate:.2f} -> {restart.del_rate:.2f} with {n_restarts} restarts",
    )


# --- criterion 6: silence modeling + buffering remedy ---------------------------


def remedy_corpus():
    spec = CorpusSpec(num_utterances=40, min_tokens=1, max_tokens=4,
                      mid_silence_prob=0.8, mid_silence_frames=(32, 200),
                      lead_silence_prob=0.3, lead_silence_frames=(8, 40),
                      trail_silence_prob=0.8, trail_silence_frames=(16, 96), align_to=1)
    return gen_corpus(SYNTH, spec, seed=23)


def test_criterion_6_remedy_exactness():
    started = time.time()
    corpus = remedy_corpus()
    frames_ms = 10 * REDUCTION  # one encoded frame in ms
    matches = 0
    for batch_ms in (160, 320, 640):
        stream_cfg = StreamConfig(batch_ms=batch_ms,
                                  min_buffer_ms=3 * frames_ms, sil_buffer_ms=3 * frames_ms)
        for utt in corpus.values():
            model = aware_oracle(utt, d=6, min_sil=3)
            offline = decode_offline(model, utt.features, BeamConfig(beam_size=1))
            online, _ = stream_decode(aware_oracle(utt, d=6, min_sil=3), utt.features,
                                      stream_cfg, BeamConfig(beam_size=1, eos_policy="defer"))
            assert online.tokens == offline.tokens, f"{utt.utt_id} at batch {batch_ms}ms"
            matches += 1
    elapsed = time.time() - started
    passed("criterion 6", f"{matches} online/offline matches across 3 batch sizes, {elapsed:.1f}s")


# --- criteria 7 and 8 need trained models and do not exist yet (ROADMAP item 1) ---

# --- criterion 9: CPL tooling ---------------------------------------------------


def test_criterion_9_cpl_tooling():
    # the exact 2000ms/2320ms hand computation
    alignment = ss.parse_alignment("a 0 200\nSIL 200 260")
    log = [(1280.0, (3,)), (2320.0, (3, 4)), (2600.0, (3, 4))]
    record = cpl(log, alignment, frame_shift_ms=10)
    assert record.cpl_ms == 320.0

    # sweep over min_buffer in encoded frames: average CPL nondecreasing
    corpus = remedy_corpus()
    frames_ms = 10 * REDUCTION
    model_for = lambda utt: aware_oracle(utt, d=6, min_sil=3)
    rows = sweep(corpus, model_for, beams=[1],
                 min_buffers_ms=[1 * frames_ms, 2 * frames_ms, 4 * frames_ms, 8 * frames_ms],
                 sil_buffers_ms=[8 * frames_ms],
                 stream_cfg=StreamConfig(batch_ms=160),
                 beam_cfg=BeamConfig(beam_size=1, eos_policy="defer"))
    cpls = [row["avg_cpl_ms"] for row in rows]
    assert all(not row["failed"] for row in rows)
    assert all(b >= a - 1e-9 for a, b in zip(cpls, cpls[1:]))
    passed("criterion 9", "hand example exactly 320ms; avg CPL " +
           " <= ".join(f"{c:.0f}" for c in cpls))


# --- criterion 10: sweep determinism --------------------------------------------


def test_criterion_10_sweep_determinism():
    corpus = remedy_corpus()
    model_for = lambda utt: aware_oracle(utt, d=6, min_sil=3)
    args = dict(beams=[1, 2], min_buffers_ms=[240.0, 480.0], sil_buffers_ms=[480.0],
                stream_cfg=StreamConfig(batch_ms=320),
                beam_cfg=BeamConfig(beam_size=1, eos_policy="defer"))
    one = sweep_csv(sweep(corpus, model_for, **args))
    two = sweep_csv(sweep(corpus, model_for, **args))
    assert one == two
    assert one.encode("utf-8") == two.encode("utf-8")
    passed("criterion 10", f"{len(one.splitlines()) - 1} rows byte-identical")
