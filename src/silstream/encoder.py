"""Streaming pyramidal recurrent encoder.

Each layer consumes consecutive pairs of its input frames (concatenated), so
every layer halves the sequence length; K layers give a total reduction of
2^K. Incremental pushes produce exactly the frames a one-shot encode would,
because each layer keeps its recurrent state and at most one unpaired
leftover frame between pushes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int = 2
    input_dim: int = 8
    hidden: int = 32
    proj: int = 16
    reduction: int = 2  # per-layer; only 2 is supported

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if min(self.input_dim, self.hidden, self.proj) < 1:
            raise ValueError("encoder dims must be positive")
        if self.reduction != 2:
            raise ValueError("only a per-layer reduction of 2 is supported")

    @property
    def total_reduction(self) -> int:
        return self.reduction**self.num_layers

    def layer_input_dim(self, k: int) -> int:
        base = self.input_dim if k == 0 else self.proj
        return self.reduction * base


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator, params: dict | None = None) -> dict:
    params = {} if params is None else params
    for k in range(cfg.num_layers):
        nn.init_gru(params, f"enc{k}", cfg.layer_input_dim(k), cfg.hidden, rng)
        params[f"enc{k}.P"] = nn.glorot(rng, cfg.proj, cfg.hidden)
        params[f"enc{k}.pb"] = np.zeros(cfg.proj)
    return params


@dataclass
class EncoderState:
    hidden: list[np.ndarray]
    leftover: list[np.ndarray | None]
    emitted: int = 0
    consumed: int = 0
    finished: bool = False
    # per layer, (GRU cache, hidden state) of every step, for encode_backward
    cache: list[list[tuple]] | None = None


class PyramidalEncoder:
    """Stateless module; all per-utterance state lives in EncoderState."""

    def __init__(self, cfg: EncoderConfig, params: dict):
        self.cfg = cfg
        self.params = params
        self._check_shapes()

    def _check_shapes(self):
        for k in range(self.cfg.num_layers):
            want = (self.cfg.hidden, self.cfg.layer_input_dim(k))
            got = self.params[f"enc{k}.Wz"].shape
            if got != want:
                raise ValueError(f"enc{k}.Wz has shape {got}, config wants {want}")
            if self.params[f"enc{k}.P"].shape != (self.cfg.proj, self.cfg.hidden):
                raise ValueError(f"enc{k}.P shape mismatch")

    def reset(self) -> EncoderState:
        return EncoderState(
            hidden=[np.zeros(self.cfg.hidden) for _ in range(self.cfg.num_layers)],
            leftover=[None] * self.cfg.num_layers,
        )

    def _layer_step(self, k: int, pair: np.ndarray, state: EncoderState) -> np.ndarray:
        h, gru_cache = nn.gru_step(self.params, f"enc{k}", pair, state.hidden[k])
        state.hidden[k] = h
        if state.cache is not None:
            state.cache[k].append((gru_cache, h))
        return self.params[f"enc{k}.P"] @ h + self.params[f"enc{k}.pb"]

    def _layer_push(self, k: int, frames: list[np.ndarray], state: EncoderState) -> list[np.ndarray]:
        if state.leftover[k] is not None:
            frames = [state.leftover[k]] + frames
            state.leftover[k] = None
        outs = []
        i = 0
        while i + 1 < len(frames):
            outs.append(self._layer_step(k, np.concatenate([frames[i], frames[i + 1]]), state))
            i += 2
        if i < len(frames):
            state.leftover[k] = frames[i]
        return outs

    def push(self, state: EncoderState, frames: np.ndarray) -> np.ndarray:
        """Feed raw feature rows; returns newly encoded frames (n, proj)."""
        if state.finished:
            raise RuntimeError("push after finish")
        frames = np.asarray(frames, dtype=np.float64)
        if frames.size == 0:
            return np.zeros((0, self.cfg.proj))
        if frames.ndim != 2 or frames.shape[1] != self.cfg.input_dim:
            raise ValueError(f"expected (n, {self.cfg.input_dim}) frames, got {frames.shape}")
        if not np.all(np.isfinite(frames)):
            raise ValueError("non-finite feature values")
        state.consumed += frames.shape[0]
        current = list(frames)
        for k in range(self.cfg.num_layers):
            current = self._layer_push(k, current, state)
        state.emitted += len(current)
        return np.array(current).reshape(len(current), self.cfg.proj)

    def finish(self, state: EncoderState) -> np.ndarray:
        """Flush leftovers by pairing each with a copy of itself, bottom-up."""
        if state.finished:
            raise RuntimeError("encoder already finished")
        state.finished = True
        pending: list[np.ndarray] = []
        for k in range(self.cfg.num_layers):
            outs = self._layer_push(k, pending, state)
            if state.leftover[k] is not None:
                f = state.leftover[k]
                state.leftover[k] = None
                outs.append(self._layer_step(k, np.concatenate([f, f]), state))
            pending = outs
        state.emitted += len(pending)
        return np.array(pending).reshape(len(pending), self.cfg.proj)


def encode_with_cache(params: dict, cfg: EncoderConfig, frames: np.ndarray):
    """Offline encode (push everything, then finish) keeping the backward cache."""
    encoder = PyramidalEncoder(cfg, params)
    state = encoder.reset()
    state.cache = [[] for _ in range(cfg.num_layers)]
    head = encoder.push(state, frames)
    return np.vstack([head, encoder.finish(state)]), state


def encode_backward(params: dict, cfg: EncoderConfig, cache: EncoderState, d_encoded: np.ndarray,
                    grads: dict) -> None:
    """Backprop through the cached offline encode; accumulates into grads.

    Step j of a layer read its inputs 2j and 2j + 1, or 2j twice when that
    was the layer's last input and had no partner."""
    d_outs = [np.asarray(d) for d in d_encoded]
    for k in reversed(range(cfg.num_layers)):
        steps = cache.cache[k]
        n_inputs = cache.consumed if k == 0 else len(cache.cache[k - 1])
        in_dim = cfg.layer_input_dim(k) // 2
        d_inputs = [np.zeros(in_dim) for _ in range(n_inputs)]
        dh_carry = np.zeros(cfg.hidden)
        for j in reversed(range(len(steps))):
            gru_cache, h = steps[j]
            dout = d_outs[j]
            grads[f"enc{k}.P"] += np.outer(dout, h)
            grads[f"enc{k}.pb"] += dout
            dh = params[f"enc{k}.P"].T @ dout + dh_carry
            dx, dh_carry = nn.gru_step_backward(params, f"enc{k}", gru_cache, dh, grads)
            d_inputs[2 * j] += dx[:in_dim]
            d_inputs[min(2 * j + 1, n_inputs - 1)] += dx[in_dim:]
        d_outs = d_inputs
