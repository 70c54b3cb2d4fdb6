"""Helpers that only the tests use, and references.

The shared stream fixtures: ``VOCAB`` over a/b/c, ``SYNTH`` and
``make_utt`` for its utterances, the scripted oracles ``aware`` and
``skipping``, and ``neural_model``, a random ``NeuralModel`` of the shapes
in ``NEURAL``.

The per-vector references are the first GRU step and attention energies and
their backward passes: ``reference_gru_step`` with per-step outer products
in ``reference_gru_step_backward``, and ``reference_energies``, which takes a
raw decoder state and multiplies every key frame by ``Wk`` on every call.
The library computes the same values from stacked rows and projected terms;
the references below build on these and not on the library's arithmetic.
The backward references also give, entry by entry, the sum of the
magnitudes of the terms each gradient sums: the scale of its rounding error
in any order of summation, which bounds the library's.

``reference_soft_step`` and ``reference_soft_step_backward`` keep the soft
step's carry loops on numpy scalars; the library runs them on Python floats
and must agree bit for bit.

The decoder reference is the first training decoder: a per-vector forward
pass (``reference_decoder_loss``) and a backward pass with per-step outer
products (``reference_decoder_backward``). The trainer must reproduce each
step's GRU state bit for bit from the same inputs, and the energies, loss
and every gradient to 1e-12 relative.

The per-hypothesis reference decode step keeps the arithmetic of the first
one-hypothesis decoder: key energies projected by one matrix product over
the whole buffer, chunk energies over every frame, and one model call per
hypothesis. The batched decoder must agree with it on tokens and attention
positions exactly and on log scores to 1e-12 relative (the products are
summed in another order).

The oracle reference builds the scripted oracle's frame ownership with the
first per-frame loops and decides its end of utterance by scanning every
visible frame; the array-built ``OracleModel`` must agree with it exactly.
``reference_schedule`` is the oracle's first emission schedule, with its own
two-branch silence rule; ``OracleModel`` counts silence tokens with the
labeler's rule and must place the same tokens at the same frames.
``alignment_frames`` is the frame count an alignment covers.

The encoder reference encodes one utterance a ``reference_gru_step`` at a
time and back-propagates with per-step outer products; the minibatch
encoder must give each utterance the same frames bit for bit, and gradients
equal to the per-utterance sum to 1e-12 relative. The training reference
steps through a minibatch one utterance at a time: it encodes the utterance
alone, runs ``forward_loss``, ``backward`` on a minibatch of one and
``encode_backward``, and adds each utterance's gradients with
``add_grads``; ``train`` must agree with it to 1e-12 relative.
``corpus_loss`` is the loss the finite-difference checks differentiate:
the deterministic mean loss, encoded ``batch_size`` utterances at a time as
training does; ``finite_difference_errors`` is that check.
``reference_sigmoid`` is the first, boolean-mask form of ``nn.sigmoid``, and
``reference_softmax`` the first form of ``nn.softmax``. ``first_selection``
is the first selection probability at or above 0.5; the reference scan
selects the first energy ``>= 0``, where that probability reaches 0.5.
``reference_cer`` counts the edits by
backtracing the alignment; ``metrics.cer`` reads them off the final cell of
the table. ``Declared`` wraps a model to declare its steps stable or not, so
a session's reuse of voided steps can be switched off or forced on, and
``FreshOutputs`` wraps a model to hand every hypothesis its own copy of a
step output, so a decoder given it can share no ranking between hypotheses.
``hyp_tokens`` and ``hyp_timeline`` read a hypothesis' tokens and emissions
off its whole history; ``final_best`` and ``offline_best`` give the best
hypothesis a session, or ``decode_offline``'s session, ends on.
``reference_display`` rebuilds a session's display from scratch: the closed
segments' committed tokens, then the best hypothesis' whole history,
stripped.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from silstream import nn
from silstream.attention import (
    AttentionConfig,
    AttentionStepResult,
    EXHAUSTED,
    _moving_sum_back,
    _moving_sum_fwd,
    chunk_attend,
    initial_alpha,
    mocha_infer_step,
    project_keys,
    project_queries,
    soft_step,
    soft_step_backward,
)
from silstream.decoder import best_hypothesis
from silstream.encoder import EncoderConfig, PyramidalEncoder, encode_backward, encode_with_cache
from silstream.metrics import CerReport
from silstream.model import ModelConfig, NeuralModel, StepOutput, init_params
from silstream.streamer import StreamConfig, StreamSession
from silstream.synth import OracleMode, OracleModel, SynthConfig, _Emission, gen_utterance
from silstream.trainer import _encode, backward, forward_loss, smoothed_targets
from silstream.vocab import make_vocab, strip_nonscoring

VOCAB = make_vocab(["a", "b", "c"])
SYNTH = SynthConfig(vocab=VOCAB, feature_dim=8, frames_per_token=8)
NEURAL = ModelConfig(
    encoder=EncoderConfig(num_layers=2, input_dim=8, hidden=16, proj=8),
    attention=AttentionConfig(chunk_size=3, energy_hidden=8),
    decoder_hidden=16, embed_dim=4,
)


def make_utt(tokens, layout, seed=0):
    return gen_utterance(SYNTH, seed=seed, tokens=VOCAB.encode(tokens), silence_layout=layout)


def aware(utt, d=2, min_sil=1):
    return OracleModel(OracleMode("silence_aware", d, min_sil), VOCAB, utt.alignment, 4)


def skipping(utt):
    return OracleModel(OracleMode("silence_skipping"), VOCAB, utt.alignment, 4)


def neural_model(seed=0):
    return NeuralModel(NEURAL, init_params(NEURAL, VOCAB.size, seed=seed), VOCAB)

PARAM_GROUPS = {
    "encoder": ("enc",),
    "attention": ("att",),
    "decoder": ("dec", "emb"),
    "output": ("out",),
}


def group_of(name: str) -> str:
    for group, prefixes in PARAM_GROUPS.items():
        if name.split(".")[0].startswith(prefixes):
            return group
    raise KeyError(f"parameter {name!r} belongs to no group")


def encode(encoder, frames: np.ndarray) -> np.ndarray:
    """One-shot encode through the streaming interface: a fresh state, one
    push of every frame, then finish. ``encoder`` is a model
    (``encoder_reset``/``encoder_push``/``encoder_finish``) or a bare
    ``PyramidalEncoder`` (``reset``/``push``/``finish``)."""
    prefix = "" if isinstance(encoder, PyramidalEncoder) else "encoder_"
    reset, push, finish = (getattr(encoder, prefix + name) for name in ("reset", "push", "finish"))
    state = reset()
    head = push(state, frames)
    tail = finish(state)
    return np.vstack([head, tail]) if tail.size else head


def selection_probability(params: dict, query: np.ndarray, key: np.ndarray) -> float:
    """Probability that hard attention stops on this single encoded frame."""
    e, _ = reference_energies(params, "sel", query, np.asarray(key)[None, :])
    return float(nn.sigmoid(e)[0])


def infer_step(params, cfg, query, frames, state, force=False) -> AttentionStepResult:
    """A hard-attention step for a raw decoder state over raw encoded frames:
    ``mocha_infer_step``'s scan, then ``chunk_attend`` on its selection unless
    the step is exhausted or forced."""
    sel_query, chunk_query = project_queries(params, np.asarray(query)[None])
    sel_keys, chunk_keys = project_keys(params, frames)
    att = mocha_infer_step(params, cfg, sel_query[0], frames, state, force, keys=sel_keys)
    if att.status == "selected" and not att.forced:
        [att.context], [att.peak_index] = chunk_attend(params, chunk_query, [att.selected_index], frames, chunk_keys,
                                                       cfg.chunk_size)
    return att


def add_grads(total: dict, part: dict, scale: float = 1.0) -> None:
    for k, v in part.items():
        total[k] += scale * v


Z, R, N = range(3)  # the gates' places in a gate-stacked GRU tensor


def reference_gru_step(params: dict, prefix: str, x: np.ndarray, h: np.ndarray):
    """One GRU step, one matrix-vector product per gate and weight. Returns
    (h_new, cache) with everything backward needs."""
    W, U, b = (params[f"{prefix}.{t}"] for t in "WUb")
    z = reference_sigmoid(W[Z] @ x + U[Z] @ h + b[Z])
    r = reference_sigmoid(W[R] @ x + U[R] @ h + b[R])
    uh = U[N] @ h
    n = np.tanh(W[N] @ x + r * uh + b[N])
    h_new = (1.0 - z) * n + z * h
    return h_new, (x, h, z, r, uh, n)


def reference_gru_step_backward(params: dict, prefix: str, cache, dh_new: np.ndarray, grads: dict,
                                magnitude: bool = False):
    """Backward through one GRU step; accumulates into grads, returns (dx, dh).

    With ``magnitude`` the step runs on absolute values: every parameter, input,
    state and signed factor (``h - n``, ``U[n] @ h``) enters as its magnitude, so
    given ``|dh_new|`` each gradient becomes the sum of the magnitudes of the
    terms that make it up, the scale of its rounding error.
    """
    a = np.abs if magnitude else (lambda v: v)
    x, h, z, r, uh, n = cache
    dn = dh_new * (1.0 - z)
    dz = dh_new * a(h - n)
    dh = dh_new * z
    x, h = a(x), a(h)

    W, U = a(params[f"{prefix}.W"]), a(params[f"{prefix}.U"])
    dW, dU, db = (grads[f"{prefix}.{t}"] for t in "WUb")  # gate g's gradient is the view dW[g]

    dan = dn * (1.0 - n * n)
    dW[N] += np.outer(dan, x)
    db[N] += dan
    dx = W[N].T @ dan
    dr = dan * a(uh)
    danh = dan * r
    dU[N] += np.outer(danh, h)
    dh += U[N].T @ danh

    daz = dz * z * (1.0 - z)
    dW[Z] += np.outer(daz, x)
    dU[Z] += np.outer(daz, h)
    db[Z] += daz
    dx += W[Z].T @ daz
    dh += U[Z].T @ daz

    dar = dr * r * (1.0 - r)
    dW[R] += np.outer(dar, x)
    dU[R] += np.outer(dar, h)
    db[R] += dar
    dx += W[R].T @ dar
    dh += U[R].T @ dar
    return dx, dh


def reference_energies(params: dict, kind: str, query: np.ndarray, keys: np.ndarray):
    """Additive energies of ``query`` against each key row. Returns (e, cache)."""
    prefix = f"att.{kind}"
    pre = keys @ params[f"{prefix}.Wk"].T + (params[f"{prefix}.Wq"] @ query + params[f"{prefix}.b"])
    act = np.tanh(pre)
    e = act @ params[f"{prefix}.v"]
    if kind == "sel":
        e = e + params["att.sel.r"][0]
    return e, (act, keys, query)


def reference_energies_backward(params: dict, kind: str, cache, de: np.ndarray, grads: dict, terms=None):
    """Accumulate parameter grads; returns (d_query, d_keys). ``terms``, if
    given, gains the magnitude of every term added into grads."""
    prefix = f"att.{kind}"
    act, keys, query = cache
    de = np.asarray(de)
    if kind == "sel":
        grads["att.sel.r"][0] += de.sum()
    grads[f"{prefix}.v"] += de @ act
    dpre = (de[:, None] * params[f"{prefix}.v"][None, :]) * (1.0 - act * act)
    grads[f"{prefix}.Wk"] += dpre.T @ keys
    dsum = dpre.sum(axis=0)
    grads[f"{prefix}.Wq"] += np.outer(dsum, query)
    grads[f"{prefix}.b"] += dsum
    if terms is not None:
        if kind == "sel":
            terms["att.sel.r"][0] += np.abs(de).sum()
        terms[f"{prefix}.v"] += np.abs(de) @ np.abs(act)
        terms[f"{prefix}.Wk"] += np.abs(dpre).T @ np.abs(keys)
        terms[f"{prefix}.Wq"] += np.outer(np.abs(dpre).sum(axis=0), np.abs(query))
        terms[f"{prefix}.b"] += np.abs(dpre).sum(axis=0)
    d_query = params[f"{prefix}.Wq"].T @ dsum
    d_keys = dpre @ params[f"{prefix}.Wk"]
    return d_query, d_keys


def reference_decoder_loss(cfg, params, H, reference, label_smoothing):
    """``forward_loss`` over encoded frames ``H`` with the per-vector
    references, without scheduled sampling or selection noise. Returns
    (loss, steps): what ``reference_decoder_backward`` needs of each step."""
    vocab_size = params["out.b"].size
    s = np.zeros(cfg.decoder_hidden)
    c = np.zeros(cfg.context_dim)
    alpha = initial_alpha(H.shape[0])
    steps = []
    total = 0.0
    for prev, target in zip(reference[:-1], reference[1:]):
        s, gcache = reference_gru_step(params, "dec", np.concatenate([params["emb.E"][prev], c]), s)
        e_sel, sel_cache = reference_energies(params, "sel", s, H)
        u, chunk_cache = reference_energies(params, "chunk", s, H)
        alpha, beta, soft_cache = soft_step(nn.sigmoid(e_sel), u, alpha, cfg.attention.chunk_size)
        c = beta @ H
        pre_out = np.concatenate([s, c])
        logp = nn.log_softmax(params["out.W"] @ pre_out + params["out.b"])
        q = smoothed_targets(target, vocab_size, label_smoothing)
        total -= float(q @ logp)
        steps.append({"prev": prev, "gcache": gcache, "sel_cache": sel_cache, "chunk_cache": chunk_cache,
                      "soft_cache": soft_cache, "beta": beta, "pre_out": pre_out, "probs": np.exp(logp), "q": q})
    return total / len(steps), steps


def reference_decoder_backward(cfg, params, H, steps):
    """Gradients of ``reference_decoder_loss``, with per-step outer products.
    Returns (grads, the gradient of ``H``, terms): ``terms`` holds, entry by
    entry, the sum of the magnitudes of the terms each gradient sums. Through
    the GRU recurrence the magnitudes are carried back
    (``reference_gru_step_backward``); elsewhere a step's term enters with the
    magnitude of its value."""
    grads, terms = nn.zero_grads(params), nn.zero_grads(params)
    scale = 1.0 / len(steps)
    dH = np.zeros_like(H)
    ds_carry, ds_terms = np.zeros(cfg.decoder_hidden), np.zeros(cfg.decoder_hidden)
    dc_carry = np.zeros(cfg.context_dim)
    dalpha_carry = np.zeros(H.shape[0])
    for st in reversed(steps):
        dlogits = (st["probs"] - st["q"]) * scale
        grads["out.W"] += np.outer(dlogits, st["pre_out"])
        grads["out.b"] += dlogits
        dlogits_terms = (st["probs"] + st["q"]) * scale
        terms["out.W"] += np.outer(dlogits_terms, np.abs(st["pre_out"]))
        terms["out.b"] += dlogits_terms
        dpre = params["out.W"].T @ dlogits
        dpre_terms = np.abs(params["out.W"]).T @ dlogits_terms
        ds = dpre[: cfg.decoder_hidden] + ds_carry
        dc = dpre[cfg.decoder_hidden :] + dc_carry
        dH += np.outer(st["beta"], dc)
        dp, du, dalpha_carry = soft_step_backward(st["soft_cache"], dalpha_carry, H @ dc)
        p = st["soft_cache"][0]
        dq_sel, dk_sel = reference_energies_backward(params, "sel", st["sel_cache"], dp * p * (1.0 - p), grads,
                                                     terms)
        dq_chunk, dk_chunk = reference_energies_backward(params, "chunk", st["chunk_cache"], du, grads, terms)
        ds_terms += dpre_terms[: cfg.decoder_hidden] + np.abs(dq_sel) + np.abs(dq_chunk)
        ds += dq_sel + dq_chunk
        dH += dk_sel + dk_chunk
        dx, ds_carry = reference_gru_step_backward(params, "dec", st["gcache"], ds, grads)
        dx_terms, ds_terms = reference_gru_step_backward(params, "dec", st["gcache"], ds_terms, terms, magnitude=True)
        grads["emb.E"][st["prev"]] += dx[: cfg.embed_dim]
        terms["emb.E"][st["prev"]] += dx_terms[: cfg.embed_dim]
        dc_carry = dx[cfg.embed_dim :]
    return grads, dH, terms


def reference_soft_step(p, u, alpha_prev, chunk_size: int):
    """``soft_step`` with its carry loop on numpy scalars, its first form; the
    window sums are the library's."""
    n = len(p)
    q = np.empty(n)
    carry = 0.0
    for t in range(n):
        carry = (1.0 - p[t - 1]) * carry + alpha_prev[t] if t else alpha_prev[0]
        q[t] = carry
    alpha = p * q
    if chunk_size == 1:
        return alpha, alpha.copy(), (p, q, alpha, None, None, None, chunk_size)
    expu = np.exp(u - (np.max(u) if n else 0.0))
    denom = np.maximum(_moving_sum_back(expu, chunk_size), 1e-300)
    spread = _moving_sum_fwd(alpha / denom, chunk_size)
    return alpha, expu * spread, (p, q, alpha, expu, denom, spread, chunk_size)


def reference_soft_step_backward(cache, d_alpha, d_beta):
    """``soft_step_backward`` with its carry loop on numpy scalars, its first
    form; the window sums are the library's."""
    p, q, alpha, expu, denom, spread, w = cache
    n = len(p)
    d_alpha = np.array(d_alpha, dtype=np.float64)
    if w == 1:
        d_alpha += d_beta
        du = np.zeros(n)
    else:
        d_ratio = _moving_sum_back(d_beta * expu, w)
        d_alpha += d_ratio / denom
        du = (d_beta * spread + _moving_sum_fwd(-d_ratio * alpha / denom / denom, w)) * expu
    dp = d_alpha * q
    dq = d_alpha * p
    d_alpha_prev = np.zeros(n)
    for t in range(n - 1, -1, -1):
        d_alpha_prev[t] += dq[t]
        if t:
            dp[t - 1] -= q[t - 1] * dq[t]
            dq[t - 1] += (1.0 - p[t - 1]) * dq[t]
    return dp, du, d_alpha_prev


def flatten_params(params: dict) -> np.ndarray:
    return np.concatenate([params[k].ravel() for k in sorted(params)])


def unflatten_params(vector: np.ndarray, template: dict) -> dict:
    out = {}
    offset = 0
    for k in sorted(template):
        size = template[k].size
        out[k] = vector[offset : offset + size].reshape(template[k].shape).copy()
        offset += size
    return out


def first_selection(probs: np.ndarray) -> int:
    """Index of the first probability at or above 0.5, or -1."""
    hits = np.nonzero(np.asarray(probs) >= 0.5)[0]
    return int(hits[0]) if hits.size else -1


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    ex = np.exp(shifted)
    return ex / np.sum(ex)


def reference_mocha_step(params, cfg, query, frames, prev_index: int, force: bool) -> AttentionStepResult:
    n = frames.shape[0]
    start = max(prev_index, 0)
    selected = -1
    if n > 0 and start < n:
        e, _ = reference_energies(params, "sel", query, frames[start:])
        hits = np.nonzero(e >= 0.0)[0]
        if hits.size:
            selected = start + int(hits[0])
    if selected < 0:
        if not force or n == 0 or prev_index >= n:
            return EXHAUSTED
        return AttentionStepResult(status="selected", context=np.zeros(frames.shape[1]),
                                   selected_index=n - 1, peak_index=n - 1, forced=True)
    lo = max(0, selected - cfg.chunk_size + 1)
    u, _ = reference_energies(params, "chunk", query, frames)
    weights = reference_softmax(u[lo : selected + 1])
    return AttentionStepResult(status="selected", context=weights @ frames[lo : selected + 1],
                               selected_index=selected, peak_index=lo + int(np.argmax(weights)))


@dataclass(frozen=True)
class RefHyp:
    tokens: tuple[int, ...]
    log_score: float
    dec_state: tuple
    prev_index: int
    selected: tuple[int, ...] = ()
    peaks: tuple[int, ...] = ()
    finished: bool = False


def reference_start(model) -> RefHyp:
    return RefHyp((model.vocab.bos_id,), 0.0, model.decode_start(), -1)


def reference_decode_step(model, beam: list[RefHyp], frames, beam_size: int, cap: int,
                          force: bool, block_eos: bool) -> list[RefHyp]:
    """One beam step with one ``NeuralModel`` step per hypothesis, in the
    order the batched decoder must reproduce."""
    p = model.params
    eos = model.vocab.eos_id
    kept, expansions = [], []
    for hyp in beam:
        if hyp.finished:
            kept.append(hyp)
            continue
        if len(hyp.tokens) - 1 >= cap:
            kept.append(RefHyp(hyp.tokens + (eos,), hyp.log_score, hyp.dec_state, hyp.prev_index,
                               hyp.selected + (hyp.prev_index,), hyp.peaks + (hyp.prev_index,), True))
            continue
        s, c_prev = hyp.dec_state
        s_new, _ = reference_gru_step(p, "dec", np.concatenate([p["emb.E"][hyp.tokens[-1]], c_prev]), s)
        att = reference_mocha_step(p, model.cfg.attention, s_new, frames, hyp.prev_index, force)
        if att.status == "exhausted":
            kept.append(hyp)
            continue
        log_probs = nn.log_softmax(p["out.W"] @ np.concatenate([s_new, att.context]) + p["out.b"])
        taken = 0
        for token in np.argsort(-log_probs, kind="stable")[: beam_size + 1]:
            token = int(token)
            if block_eos and token == eos:
                continue
            expansions.append(RefHyp(
                hyp.tokens + (token,), hyp.log_score + float(log_probs[token]), (s_new, att.context),
                att.selected_index, hyp.selected + (att.selected_index,), hyp.peaks + (att.peak_index,),
                token == eos,
            ))
            taken += 1
            if taken >= beam_size:
                break
    expansions.sort(key=lambda h: -h.log_score)
    return kept + expansions[: max(0, beam_size - len(kept))]


def hyp_tokens(hyp) -> tuple[int, ...]:
    """Every token of ``hyp``'s history, BOS first."""
    return tuple(node.token for node in hyp.history.nodes_after(None))


def hyp_timeline(hyp) -> tuple:
    """The emissions of ``hyp``'s history, oldest first."""
    return tuple(node.emission for node in hyp.history.nodes_after(None) if node.emission is not None)


def final_best(session):
    """The best hypothesis of a session's last beam; under ``restart``, of its last segment."""
    return best_hypothesis(session.beam)


def offline_best(model, features, cfg):
    """The best hypothesis the session of ``decode_offline(model, features, cfg)`` ends on."""
    session = StreamSession(model, StreamConfig(), cfg, frame_shift_ms=features.frame_shift_ms)
    session.push(features.frames, is_last=True)
    return final_best(session)


def reference_display(session) -> tuple[int, ...]:
    """The display of ``session`` now, rebuilt from scratch: the committed
    tokens of the closed segments, then every token of the best hypothesis,
    stripped of BOS/EOS/SIL."""
    best = final_best(session).history
    closed = list(session.committed)
    while closed and best.ancestor(closed[-1].length) is closed[-1]:
        closed.pop()  # committed in the current segment
    vocab = session.model.vocab
    return tuple(strip_nonscoring([node.token for node in closed], vocab)
                 + strip_nonscoring([node.token for node in best.nodes_after(None)], vocab))


class FreshOutputs:
    """``model`` whose ``decode_steps`` hands each hypothesis a fresh copy of
    its step output (log probs, context and attention result); every other
    attribute is the model's."""

    def __init__(self, model):
        self._model = model

    def decode_steps(self, *args, **kwargs):
        def copy(out):
            log_probs = None if out.log_probs is None else out.log_probs.copy()
            context = None if out.att.context is None else out.att.context.copy()
            return StepOutput(log_probs, out.dec_state, dataclasses.replace(out.att, context=context))

        return [copy(out) for out in self._model.decode_steps(*args, **kwargs)]

    def __getattr__(self, name):
        return getattr(self._model, name)


class Declared:
    """``model`` with its ``stable_steps`` declaration replaced by ``stable``;
    every other attribute is the model's."""

    def __init__(self, model, stable: bool):
        self._model = model
        self.stable_steps = stable

    def __getattr__(self, name):
        return getattr(self._model, name)


def silence_token_count(oracle) -> int:
    """How many silence tokens an aware oracle narrates for its utterance."""
    return sum(1 for entry in oracle._schedule if entry.token == oracle.vocab.sil_id)


def alignment_frames(alignment) -> int:
    return alignment.segments[-1].end if alignment.segments else 0


def reference_encoded_owners(alignment, r: int) -> list[int]:
    """Majority owner segment of each encoded frame (ties to the earlier one)."""
    t_raw = alignment_frames(alignment)
    owners = []
    for j in range(math.ceil(t_raw / r)):
        lo, hi = j * r, (j + 1) * r
        counts: dict[int, int] = {}
        for idx, seg in enumerate(alignment.segments):
            overlap = min(hi, seg.end) - max(lo, seg.start)
            if overlap > 0:
                counts[idx] = counts.get(idx, 0) + overlap
        if hi > t_raw:  # finish() pads with copies of the final frame
            last = len(alignment.segments) - 1
            counts[last] = counts.get(last, 0) + (hi - t_raw)
        best = max(counts.values())
        owners.append(min(k for k, v in counts.items() if v == best))
    if owners != sorted(owners):
        raise RuntimeError("non-monotone encoded-frame ownership")
    return owners


def reference_segment_spans(owners: list[int], num_segments: int) -> list[tuple[int, int]]:
    spans = []
    for idx in range(num_segments):
        js = [j for j, o in enumerate(owners) if o == idx]
        spans.append((js[0], js[-1] + 1) if js else (0, 0))
    return spans


def reference_schedule(oracle, spans) -> list[_Emission]:
    """The oracle's emission schedule over segment ``spans``: a word at its
    last encoded frame; a silence of m >= ``min_silence_encoded`` frames gets
    a token every d frames, or one at its last frame when m < d."""
    d = oracle.mode.sil_duration_encoded
    schedule = []
    for seg, (s, e) in zip(oracle.alignment.segments, spans):
        m = e - s
        if m <= 0:
            continue
        if not seg.is_silence:
            schedule.append(_Emission(pos=e - 1, token=oracle.vocab.id_of(seg.label), onset=s))
        elif oracle.silence_aware:
            if m < oracle.mode.min_silence_encoded:
                continue
            if m // d >= 1:
                for k in range(1, m // d + 1):
                    schedule.append(_Emission(pos=s + k * d - 1, token=oracle.vocab.sil_id, onset=None))
            else:
                schedule.append(_Emission(pos=e - 1, token=oracle.vocab.sil_id, onset=None))
    return schedule


def reference_oracle_step(oracle, owners, spans, n: int, prev: int, buffer_complete: bool, force: bool):
    """``OracleModel.decode_step`` over ``n`` encoded frames with the scan at
    ``prev``, as ``(status, selected, peak, forced, token)``: a linear search
    of the schedule, and a per-frame scan for the skipping oracle's end."""
    segments = oracle.alignment.segments

    def dead(j: int) -> bool:
        """Frame j offers nothing recognizable once the scan sits at prev."""
        idx = owners[j]
        return segments[idx].is_silence or spans[idx][0] <= prev  # word onset already scanned past

    def emit(token, pos, forced=False):
        return ("selected", pos, pos, forced, token)

    eos = oracle.vocab.eos_id
    nxt = next((e for e in oracle._schedule if e.pos > prev and (e.onset is None or e.onset > prev)), None)
    if nxt is not None and nxt.pos < n:
        return emit(nxt.token, nxt.pos)
    if not oracle.silence_aware:
        if n - 1 > prev and all(dead(j) for j in range(prev + 1, n)):
            return emit(eos, prev + 1)
        if nxt is None and buffer_complete and n > 0 and prev >= n - 1:
            return emit(eos, n - 1)
    elif nxt is None and buffer_complete and n > 0:
        return emit(eos, n - 1)
    if force and n > 0:
        return emit(eos, n - 1, forced=True)
    return (EXHAUSTED.status, EXHAUSTED.selected_index, EXHAUSTED.peak_index, EXHAUSTED.forced, None)


def reference_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_encode_with_cache(params, cfg, frames):
    """Encode one utterance one ``reference_gru_step`` at a time. Returns (encoded, cache):
    per layer, its input count and the (GRU cache, new state) of every step.
    Step j reads inputs 2j and 2j + 1, or its last input twice if that has
    no partner."""
    current = list(frames)
    cache = []
    for k in range(cfg.num_layers):
        h = np.zeros(cfg.hidden)
        steps, outs = [], []
        for j in range((len(current) + 1) // 2):
            pair = np.concatenate([current[2 * j], current[min(2 * j + 1, len(current) - 1)]])
            h, gru_cache = reference_gru_step(params, f"enc{k}", pair, h)
            steps.append((gru_cache, h))
            outs.append(params[f"enc{k}.P"] @ h + params[f"enc{k}.pb"])
        cache.append((len(current), steps))
        current = outs
    return np.array(current).reshape(len(current), cfg.proj), cache


def reference_encode_backward(params, cfg, cache, d_encoded, grads, magnitude: bool = False) -> None:
    """Backprop through ``reference_encode_with_cache``; accumulates into grads.

    With ``magnitude`` (and ``|d_encoded|``) every step runs on absolute values
    (``reference_gru_step_backward``), so grads gains, entry by entry, the sum
    of the magnitudes of the terms each gradient sums: the scale of the
    rounding error of any order of summing them.
    """
    a = np.abs if magnitude else (lambda v: v)
    d_outs = [np.asarray(d) for d in d_encoded]
    for k in reversed(range(cfg.num_layers)):
        n_inputs, steps = cache[k]
        in_dim = cfg.layer_input_dim(k) // 2
        d_inputs = [np.zeros(in_dim) for _ in range(n_inputs)]
        dh_carry = np.zeros(cfg.hidden)
        for j in reversed(range(len(steps))):
            gru_cache, h = steps[j]
            dout = d_outs[j]
            grads[f"enc{k}.P"] += np.outer(dout, a(h))
            grads[f"enc{k}.pb"] += dout
            dh = a(params[f"enc{k}.P"]).T @ dout + dh_carry
            dx, dh_carry = reference_gru_step_backward(params, f"enc{k}", gru_cache, dh, grads, magnitude)
            d_inputs[2 * j] += dx[:in_dim]
            d_inputs[min(2 * j + 1, n_inputs - 1)] += dx[in_dim:]
        d_outs = d_inputs


def reference_train(cfg, params, vocab, examples, tcfg):
    """``train`` (without checkpoints) with a forward and
    backward pass, encoder included, per utterance: each utterance is
    encoded alone, its decoder back-propagated as a minibatch of one and
    its encoder on its own."""
    params = {k: v.copy() for k, v in params.items()}
    last_good = {k: v.copy() for k, v in params.items()}
    rng = np.random.default_rng(tcfg.seed)
    velocity = nn.zero_grads(params)
    history = {"train_loss": [], "diverged": False}
    for _ in range(tcfg.epochs):
        order = rng.permutation(len(examples))
        epoch_losses = []
        diverged = False
        for lo in range(0, len(order), tcfg.batch_size):
            batch = order[lo : lo + tcfg.batch_size]
            weight = 1.0 / len(batch)
            batch_grads = nn.zero_grads(params)
            batch_loss = 0.0
            try:
                with np.errstate(all="ignore"):
                    for idx in batch:
                        feats, ref = examples[int(idx)]
                        H, enc_cache = encode_with_cache(params, cfg.encoder, feats.frames, [feats.num_frames])
                        loss, cache = forward_loss(cfg, params, H, ref, tcfg, vocab, rng=rng)
                        grads, dH = backward(cfg, params, [cache])
                        encode_backward(params, cfg.encoder, enc_cache, dH, grads)
                        add_grads(batch_grads, grads, scale=weight)
                        batch_loss += loss * weight
            except FloatingPointError:
                diverged = True
                break
            if not math.isfinite(batch_loss):
                diverged = True
                break
            for k in params:
                velocity[k] = tcfg.momentum * velocity[k] + batch_grads[k]
                params[k] -= tcfg.learning_rate * velocity[k]
            epoch_losses.append(batch_loss)
        if diverged:
            history["diverged"] = True
            return last_good, history
        history["train_loss"].append(float(np.mean(epoch_losses)))
        last_good = {k: v.copy() for k, v in params.items()}
    return params, history


def corpus_loss(cfg, params, examples, tcfg, vocab) -> float:
    """Deterministic mean loss (scheduled sampling and selection noise off),
    encoding ``tcfg.batch_size`` utterances at a time as training does."""
    plain = dataclasses.replace(tcfg, scheduled_sampling=0.0, selection_noise_std=0.0)
    losses = []
    for lo in range(0, len(examples), tcfg.batch_size):
        batch = examples[lo : lo + tcfg.batch_size]
        encoded, _ = _encode(cfg, params, batch)
        losses += [forward_loss(cfg, params, H, ref, plain, vocab)[0] for H, (_, ref) in zip(encoded, batch)]
    return float(np.mean(losses))


def finite_difference_errors(cfg, params, examples, tcfg, vocab, grads, step: float = 1e-4) -> dict[str, float]:
    """Each parameter group's largest error of ``grads`` against central
    differences of ``corpus_loss``, relative to the larger of the two
    gradients' largest magnitudes (at least 1e-8). ``params`` is perturbed
    one entry at a time and left as it was."""
    worst = dict.fromkeys(PARAM_GROUPS, 0.0)
    for name in sorted(params):
        g_fd = np.zeros_like(params[name])
        it = np.nditer(params[name], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = params[name][idx]
            params[name][idx] = orig + step
            up = corpus_loss(cfg, params, examples, tcfg, vocab)
            params[name][idx] = orig - step
            dn = corpus_loss(cfg, params, examples, tcfg, vocab)
            params[name][idx] = orig
            g_fd[idx] = (up - dn) / (2 * step)
        denom = max(np.abs(g_fd).max(), np.abs(grads[name]).max(), 1e-8)
        group = group_of(name)
        worst[group] = max(worst[group], float(np.abs(grads[name] - g_fd).max() / denom))
    return worst


def reference_cer(reference: list[int], hypothesis: list[int], vocab) -> CerReport:
    """``metrics.cer`` with the first form's operation table and backtrace,
    which counts each kind of edit along the alignment it recovers."""
    ref = strip_nonscoring(reference, vocab)
    hyp = strip_nonscoring(hypothesis, vocab)
    R, H = len(ref), len(hyp)
    dp = [[(0, 0)] * (H + 1) for _ in range(R + 1)]
    ops = [[""] * (H + 1) for _ in range(R + 1)]
    for i in range(1, R + 1):
        dp[i][0] = (i, 0)
        ops[i][0] = "D"
    for j in range(1, H + 1):
        dp[0][j] = (j, 0)
        ops[0][j] = "I"
    for i in range(1, R + 1):
        for j in range(1, H + 1):
            sub_cost = 0 if ref[i - 1] == hyp[j - 1] else 1
            diag = (dp[i - 1][j - 1][0] + sub_cost, dp[i - 1][j - 1][1] - sub_cost)
            dele = (dp[i - 1][j][0] + 1, dp[i - 1][j][1])
            ins = (dp[i][j - 1][0] + 1, dp[i][j - 1][1])
            best = min(diag, dele, ins)
            dp[i][j] = best
            ops[i][j] = "=S"[sub_cost] if best == diag else ("D" if best == dele else "I")
    report = CerReport(ref_len=R)
    i, j = R, H
    while i > 0 or j > 0:
        op = ops[i][j]
        if op in ("=", "S"):
            report.substitutions += op == "S"
            i, j = i - 1, j - 1
        elif op == "D":
            report.deletions += 1
            i -= 1
        else:
            report.insertions += 1
            j -= 1
    return report
