"""Toy-scale training with soft (expected-alignment) attention.

Cross entropy against label-smoothed targets, scheduled sampling on the
decoder inputs, plain gradient descent with optional momentum. Every
backward pass is hand-written; the test suite checks each parameter group
against central finite differences.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import nn
from .attention import energies, initial_alpha, project_keys, project_queries, soft_step, soft_step_backward
from .data import FeatureSequence
from .encoder import encode_backward, encode_with_cache
from .model import ModelConfig, NeuralModel, param_shapes, save_checkpoint
from .vocab import Vocab

@dataclass(frozen=True)
class TrainConfig:
    label_smoothing: float = 0.2
    scheduled_sampling: float = 0.2
    learning_rate: float = 0.05
    epochs: int = 10
    batch_size: int = 8
    seed: int = 0
    momentum: float = 0.0
    # Pre-sigmoid noise on selection energies during training. Expected
    # alignments only stay informative under noise if the energies saturate,
    # so this is what makes the learned selection usable by the hard scan.
    selection_noise_std: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        if not 0.0 <= self.scheduled_sampling <= 1.0:
            raise ValueError("scheduled_sampling must be in [0, 1]")
        if not (math.isfinite(self.selection_noise_std) and self.selection_noise_std >= 0):
            raise ValueError("selection_noise_std must be finite and >= 0")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")


def smoothed_targets(target: int, vocab_size: int, epsilon: float) -> np.ndarray:
    q = np.full(vocab_size, epsilon / vocab_size)
    q[target] += 1.0 - epsilon
    return q


def forward_loss(
    cfg: ModelConfig,
    params: dict,
    features: np.ndarray,
    reference: list[int],
    tcfg: TrainConfig,
    vocab: Vocab,
    rng: np.random.Generator | None = None,
):
    """Mean per-step cross entropy of one utterance. Returns (loss, cache).

    ``features`` holds the utterance's encoded frames: its rows of a
    minibatch encode (``_encode``). ``reference`` must start with BOS and
    end with EOS. With scheduled sampling an ``rng`` is required; the
    sampled tokens are recorded in the cache so backward treats them as
    constants. A decoder step has the arithmetic of inference
    (``NeuralModel.decode_steps``) on one row.
    """
    if len(reference) < 2 or reference[0] != vocab.bos_id or reference[-1] != vocab.eos_id:
        raise ValueError("reference must be [BOS, ..., EOS]")
    if (tcfg.scheduled_sampling > 0 or tcfg.selection_noise_std > 0) and rng is None:
        raise ValueError("scheduled sampling and selection noise need an rng")
    H = features
    if len(H) == 0:
        raise ValueError("cannot train on an empty utterance")
    sel_keys, chunk_keys = project_keys(params, H)
    vocab_size = params["out.b"].size

    states = [np.zeros(cfg.decoder_hidden)]
    c = np.zeros(cfg.context_dim)
    alpha = initial_alpha(len(H))
    prev = reference[0]
    steps = []
    total = 0.0
    n_steps = len(reference) - 1
    acts = np.empty((2, n_steps, len(H), cfg.attention.energy_hidden))  # the selection and chunk tanh of each step
    for i in range(1, len(reference)):
        x = np.concatenate([params["emb.E"][prev], c])
        s_new, gates = nn.gru_step(params, "dec", x, states[-1])
        sel_query, chunk_query = project_queries(params, s_new[None])
        e_sel, acts[0, i - 1] = energies(params, "sel", sel_query[0], sel_keys)
        u, acts[1, i - 1] = energies(params, "chunk", chunk_query[0], chunk_keys)
        if rng is not None and tcfg.selection_noise_std > 0:
            e_sel = e_sel + rng.normal(0.0, tcfg.selection_noise_std, size=e_sel.shape)
        p = nn.sigmoid(e_sel)
        alpha, beta, soft_cache = soft_step(p, u, alpha, cfg.attention.chunk_size)
        c = beta @ H
        pre_out = np.concatenate([s_new, c])
        logp = nn.log_softmax(params["out.W"] @ pre_out + params["out.b"])
        q = smoothed_targets(reference[i], vocab_size, tcfg.label_smoothing)
        total -= float(q @ logp)
        probs = np.exp(logp)
        steps.append(dict(prev=prev, x=x, gates=gates, soft_cache=soft_cache, beta=beta, pre_out=pre_out,
                          dlogits=probs - q))
        prev = reference[i]
        if i < n_steps and rng is not None and tcfg.scheduled_sampling > 0:
            if rng.random() < tcfg.scheduled_sampling:
                prev = int(rng.choice(vocab_size, p=probs / probs.sum()))
        states.append(s_new)
    loss = total / n_steps
    if not math.isfinite(loss):
        raise FloatingPointError("non-finite training loss")
    return loss, {"H": H, "steps": steps, "states": np.array(states), "acts": acts}


def backward(cfg: ModelConfig, params: dict, cache: list, scale: float = 1.0) -> tuple[dict, np.ndarray]:
    """``scale`` times the gradients of forward_loss: ``(grads, dH)``, the
    parameter gradients and the gradient of the encoded frames, which the
    caller back-propagates through the encoder.

    ``cache`` is a minibatch of forward_loss caches (a list); ``dH`` holds
    their frames back to back, in the order of ``cache``. Only the step
    loop runs per utterance, on the utterance's rows of one
    ``nn.GruBackward`` over the minibatch's steps; each weight gradient is
    one product over the minibatch's steps or frames, except attention
    ``v`` and the offset, summed per utterance.
    """
    grads = nn.zero_grads(params)
    steps = [st for c in cache for st in c["steps"]]
    counts = [len(c["steps"]) for c in cache]
    hidden, embed, units, kinds = cfg.decoder_hidden, cfg.embed_dim, cfg.attention.energy_hidden, ("sel", "chunk")
    H = np.concatenate([c["H"] for c in cache])
    S = np.concatenate([c["states"][:-1] for c in cache])  # the state each step started from
    dlogits = np.array([st["dlogits"] for st in steps]) * np.repeat([scale / n for n in counts], counts)[:, None]
    grads["out.W"] += dlogits.T @ np.array([st["pre_out"] for st in steps])
    grads["out.b"] += dlogits.sum(axis=0)
    d_pre = dlogits @ params["out.W"]
    gru = nn.GruBackward(params, "dec", tuple(map(np.concatenate, zip(*(st["gates"] for st in steps)))), S)
    v = np.array([params[f"att.{kind}.v"] for kind in kinds])[:, None, None]
    w_query, w_context = np.concatenate([params[f"att.{kind}.Wq"] for kind in kinds]), gru.W[:, embed:]
    d_query = np.empty((len(steps), 2, units))
    d_context = np.empty((len(steps), cfg.context_dim))
    dk = np.empty((2, len(H), units))  # the gradient of each frame's key terms
    dv = np.zeros((2, units))
    dH = np.empty_like(H)
    row = frame = 0
    for c, n in zip(cache, counts):
        Hu, acts = c["H"], c["acts"]  # acts: (selection or chunk, step, frame, unit)
        rows, frames = slice(row, row + n), slice(frame, frame + len(Hu))
        de = np.empty(acts.shape[:3])  # the gradient of each step's selection and chunk energies
        # the energies' slopes v * (1 - act^2), in place and per utterance: the minibatch's at once raise peak memory
        slopes = acts * acts
        np.subtract(1.0, slopes, out=slopes)
        slopes *= v
        ds_carry, dc_carry, dalpha_carry = np.zeros((1, hidden)), np.zeros(cfg.context_dim), np.zeros(len(Hu))
        for i in reversed(range(n)):
            r, soft_cache = row + i, c["steps"][i]["soft_cache"]
            d_context[r] = dc = d_pre[r, hidden:] + dc_carry
            p = soft_cache[0]
            dp, de[1, i], dalpha_carry = soft_step_backward(soft_cache, dalpha_carry, Hu @ dc)
            de[0, i] = dp * p * (1.0 - p)
            d_query[r] = np.matmul(de[:, i, None], slopes[:, i])[:, 0]
            ds_carry = gru.carry(r, r + 1, d_pre[r, :hidden] + ds_carry + d_query[r].ravel() @ w_query)
            dc_carry = gru.gate_deltas[r] @ w_context
        np.einsum("jit,jite->jte", de, slopes, out=dk[:, frames])
        dv += np.einsum("jit,jite->je", de, acts)
        grads["att.sel.r"] += de[0].sum()
        dH[frames] = np.array([st["beta"] for st in c["steps"]]).T @ d_context[rows]  # the key terms' share follows
        row, frame = row + n, frame + len(Hu)
    gru.param_grads(np.array([st["x"] for st in steps]), grads)
    np.add.at(grads["emb.E"], [st["prev"] for st in steps], gru.gate_deltas @ gru.W[:, :embed])
    S_new = np.concatenate([c["states"][1:] for c in cache])
    for j, kind in enumerate(kinds):
        grads[f"att.{kind}.v"] += dv[j]
        grads[f"att.{kind}.Wq"] += d_query[:, j].T @ S_new
        grads[f"att.{kind}.b"] += d_query[:, j].sum(axis=0)
        grads[f"att.{kind}.Wk"] += dk[j].T @ H
        dH += dk[j] @ params[f"att.{kind}.Wk"]
    return grads, dH


def _encode(cfg: ModelConfig, params: dict, batch: list[tuple[FeatureSequence, list[int]]]):
    """Encode a batch's utterances as one stack. Returns each utterance's
    encoded rows and the ``EncoderCache``."""
    H, enc_cache = encode_with_cache(params, cfg.encoder, np.concatenate([f.frames for f, _ in batch]),
                                     [f.num_frames for f, _ in batch])
    return np.split(H, np.cumsum(enc_cache.lengths)[:-1]), enc_cache


def _minibatch_gradients(
    cfg: ModelConfig,
    params: dict,
    batch: list[tuple[FeatureSequence, list[int]]],
    tcfg: TrainConfig,
    vocab: Vocab,
    rng: np.random.Generator,
) -> tuple[float, dict]:
    """Mean loss of a minibatch and its gradients.

    The batch is encoded as one stack, its decoder back-propagated as one
    minibatch and the encoder once. The decoder's forward runs per utterance
    in batch order, so the random draws come in the order of training one
    utterance at a time.
    """
    weight = 1.0 / len(batch)
    encoded, enc_cache = _encode(cfg, params, batch)
    caches, loss = [], 0.0
    for H, (_, ref) in zip(encoded, batch):
        utt_loss, cache = forward_loss(cfg, params, H, ref, tcfg, vocab, rng=rng)
        caches.append(cache)
        loss += utt_loss * weight
    grads, dH = backward(cfg, params, caches, scale=weight)
    del caches, cache  # the decoder caches need not outlive the encoder backward
    encode_backward(params, cfg.encoder, enc_cache, dH, grads)
    return loss, grads


def train(
    cfg: ModelConfig,
    params: dict,
    vocab: Vocab,
    examples: list[tuple[FeatureSequence, list[int]]],
    tcfg: TrainConfig,
    checkpoint_dir: str | None = None,
    silence_aware: bool = False,
):
    """Gradient-descent training loop. Returns (params, history).

    Refuses parameters whose tensors do not match ``cfg`` and ``vocab``
    (checked once, here). Deterministic for a fixed seed. If the loss goes
    non-finite the loop aborts and the parameters from the last completed
    epoch are returned (matching the last checkpoint on disk).
    """
    if not examples:
        raise ValueError("empty training corpus")
    nn.check_shapes(params, param_shapes(cfg, vocab.size))
    params = {k: v.copy() for k, v in params.items()}
    last_good = {k: v.copy() for k, v in params.items()}
    rng = np.random.default_rng(tcfg.seed)
    velocity = nn.zero_grads(params)
    history = {"train_loss": [], "diverged": False}

    for epoch in range(tcfg.epochs):
        order = rng.permutation(len(examples))
        epoch_losses = []
        diverged = False
        for lo in range(0, len(order), tcfg.batch_size):
            batch = [examples[int(idx)] for idx in order[lo : lo + tcfg.batch_size]]
            try:
                # saturating arithmetic is fine here; the explicit finiteness
                # check in forward_loss is the divergence detector
                with np.errstate(all="ignore"):
                    batch_loss, batch_grads = _minibatch_gradients(cfg, params, batch, tcfg, vocab, rng)
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
        if checkpoint_dir:
            os.makedirs(checkpoint_dir, exist_ok=True)
            model = NeuralModel(cfg, params, vocab, silence_aware=silence_aware)
            save_checkpoint(model, os.path.join(checkpoint_dir, f"epoch_{epoch:03d}.ckpt"))
    return params, history
