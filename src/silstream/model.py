"""The trainable encoder-attention-decoder model and its checkpoint format.

Any object with the same surface (``vocab``, ``total_reduction``,
``silence_aware``, ``stable_steps``, ``encoder_reset/push/finish``,
``decode_start``, ``decode_steps``, ``decode_step``) can drive the decoder
and streamer; the synthetic oracle implements it too, so decoding machinery
cannot tell them apart.

``stable_steps`` declares that a selected, unforced step over frames
``0..n-1`` stays bit-identical when frames are appended. A session then
retries a voided step from its kept result instead of running the model
again. ``NeuralModel`` is stable: its key terms are row-wise, and the hard
scan stops at the first crossing at or after ``prev_index``.

``decode_steps`` is the call the decoder makes: it steps every live hypothesis
of a beam at once over one ``EncodedBuffer`` and returns one ``StepOutput``
per hypothesis; it forces an attention step only when asked to by ``force``. A
model may return the same ``StepOutput`` object for several hypotheses whose
step it knows to be equal (the oracle does for hypotheses at one attention
position); the decoder then ranks its tokens once. Nobody mutates a
``StepOutput`` or its arrays after the model returns it. ``NeuralModel``
returns a fresh one per hypothesis: it runs the decoder GRU, the attention
query terms and the output layer once over the stacked beam, reads each
frame's attention key terms from the buffer, which computes them once per
frame, scans once per hypothesis, and scores the chunks the scans select in
one stacked chunk stage. ``decode_step`` is the same step of one hypothesis
over a raw frame matrix. Training steps its soft-attention decoder with the
same GRU, projections and ``attention.energies`` on one row, so a state it
computes is bit for bit the state inference computes from the same inputs.
"""
from __future__ import annotations

import base64
import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import nn
from .attention import (
    AttentionConfig,
    AttentionState,
    AttentionStepResult,
    chunk_attend,
    init_attention_params,
    mocha_infer_step,
    project_keys,
    project_queries,
)
from .encoder import EncoderConfig, PyramidalEncoder, init_encoder_params
from .vocab import Vocab

CHECKPOINT_VERSION = 3


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    attention: AttentionConfig = field(default_factory=AttentionConfig)
    decoder_hidden: int = 32
    embed_dim: int = 8

    @property
    def context_dim(self) -> int:
        return self.encoder.proj

    @property
    def decoder_input_dim(self) -> int:
        return self.embed_dim + self.context_dim

    @property
    def output_input_dim(self) -> int:
        return self.decoder_hidden + self.context_dim


def init_params(cfg: ModelConfig, vocab_size: int, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    params = init_encoder_params(cfg.encoder, rng)
    params.update(init_attention_params(cfg.attention, cfg.decoder_hidden, cfg.encoder.proj, rng))
    nn.init_gru(params, "dec", cfg.decoder_input_dim, cfg.decoder_hidden, rng)
    params["emb.E"] = rng.normal(0.0, 0.1, size=(vocab_size, cfg.embed_dim))
    params["out.W"] = nn.glorot(rng, vocab_size, cfg.output_input_dim)
    params["out.b"] = np.zeros(vocab_size)
    return params


@dataclass
class StepOutput:
    """Result of one decoding step: of one hypothesis, or of several whose
    steps the model shares (see the module docstring). Read-only."""

    log_probs: np.ndarray | None
    dec_state: object
    att: AttentionStepResult

    @property
    def stalled(self) -> bool:
        return self.att.status == "exhausted"


class NeuralModel:
    """Wraps a parameter dict behind the shared decoding interface."""

    stable_steps = True

    def __init__(self, cfg: ModelConfig, params: dict, vocab: Vocab, silence_aware: bool = False):
        nn.check_shapes(params, init_params(cfg, vocab.size))
        bad = sorted(name for name, value in params.items() if not np.isfinite(value).all())
        if bad:
            raise ValueError(f"non-finite values in {bad}")
        self.cfg = cfg
        self.params = params
        self.vocab = vocab
        self.silence_aware = silence_aware
        self._encoder = PyramidalEncoder(cfg.encoder, params)

    @property
    def total_reduction(self) -> int:
        return self.cfg.encoder.total_reduction

    def encoder_reset(self):
        return self._encoder.reset()

    def encoder_push(self, enc_state, frames: np.ndarray) -> np.ndarray:
        return self._encoder.push(enc_state, frames)

    def encoder_finish(self, enc_state) -> np.ndarray:
        return self._encoder.finish(enc_state)

    def decode_start(self):
        return (np.zeros(self.cfg.decoder_hidden), np.zeros(self.cfg.context_dim))

    def decode_steps(
        self,
        dec_states: list,
        prev_tokens: list[int],
        buffer,
        att_states: list[AttentionState],
        buffer_complete: bool,
        force: bool = False,
    ) -> list[StepOutput]:
        """One decoding step of every hypothesis over ``buffer`` (an ``EncodedBuffer``)."""
        keys = buffer.keys(functools.partial(project_keys, self.params))
        return self._steps(dec_states, prev_tokens, buffer.array, keys, att_states, force)

    def decode_step(
        self,
        dec_state,
        prev_token: int,
        frames: np.ndarray,
        att_state: AttentionState,
        buffer_complete: bool,
        force: bool = False,
    ) -> StepOutput:
        if len(frames) == 0:
            frames = np.zeros((0, self.cfg.context_dim))  # an empty buffer may have no width
        keys = project_keys(self.params, frames)
        return self._steps([dec_state], [prev_token], frames, keys, [att_state], force)[0]

    def _steps(self, dec_states, prev_tokens, frames, keys, att_states, force) -> list[StepOutput]:
        # stacked matrix-vector products and the chunk stage's unpadded rows keep every row
        # bit-identical to a one-hypothesis step, so beam width cannot change a hypothesis' scores
        p, att_cfg = self.params, self.cfg.attention
        S = np.array([s for s, _ in dec_states])
        X = np.concatenate([p["emb.E"][prev_tokens], np.array([c for _, c in dec_states])], axis=1)
        S_new, _ = nn.gru_steps(p, "dec", nn.gru_inputs(p, "dec", X), S)
        sel_q, chunk_q = project_queries(p, S_new)
        atts = [mocha_infer_step(p, att_cfg, sel_q[i], frames, att_state, force, keys=keys[0])
                for i, att_state in enumerate(att_states)]
        live = [i for i, att in enumerate(atts) if att.status == "selected"]
        chunked = [i for i in live if not atts[i].forced]
        chunks = chunk_attend(p, chunk_q[chunked], [atts[i].selected_index for i in chunked], frames, keys[1],
                              att_cfg.chunk_size)
        for i, (context, peak) in zip(chunked, chunks):
            atts[i].context, atts[i].peak_index = context, peak
        log_probs = {}
        if live:
            Z = np.concatenate([S_new[live], np.array([atts[i].context for i in live])], axis=1)
            log_probs = dict(zip(live, nn.log_softmax(nn.matvecs(p["out.W"], Z) + p["out.b"])))
        return [StepOutput(log_probs[i], (S_new[i], att.context), att) if i in log_probs
                else StepOutput(None, state, att) for i, (state, att) in enumerate(zip(dec_states, atts))]


def _checkpoint_body(model: NeuralModel) -> dict:
    tensors = {
        name: {
            "shape": list(arr.shape),
            "data": base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii"),
        }
        for name, arr in sorted(model.params.items())
    }
    return {
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.cfg),
        "vocab": list(model.vocab.tokens),
        "silence_aware": model.silence_aware,
        "tensors": tensors,
    }


def save_checkpoint(model: NeuralModel, path: str) -> None:
    body = _checkpoint_body(model)
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"checksum": digest, **body}, f, indent=1)


def load_checkpoint(path: str) -> NeuralModel:
    """The saved model; a ValueError naming ``path`` unless ``save_checkpoint`` of it writes the same JSON."""
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
        stored = payload.pop("checksum", None)
        body = json.dumps(payload, sort_keys=True)
        if stored != hashlib.sha256(body.encode("utf-8")).hexdigest():
            raise ValueError("checkpoint checksum mismatch")
        if payload["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {payload['version']}")
        c = payload["config"]
        cfg = ModelConfig(**c | {k: cls(**{n: int(x) for n, x in c[k].items()})
                                 for k, cls in (("encoder", EncoderConfig), ("attention", AttentionConfig))})
        params = {name: np.frombuffer(base64.b64decode(spec["data"]), dtype="<f8").reshape(spec["shape"]).astype(float)
                  for name, spec in payload["tensors"].items()}
        model = NeuralModel(cfg, params, Vocab(tuple(map(str, payload["vocab"]))), bool(payload["silence_aware"]))
        if json.dumps(_checkpoint_body(model), sort_keys=True) != body:  # an extra key, or a value a cast changed
            raise ValueError("checkpoint body has a key or value type its version does not write")
    except (KeyError, TypeError, AttributeError, ValueError) as exc:  # a key missing, renamed or retyped
        raise ValueError(f"{path}: {exc if isinstance(exc, ValueError) else repr(exc)}") from None
    return model
