"""Streaming pyramidal recurrent encoder.

Each layer consumes consecutive pairs of its input frames (concatenated), so
every layer halves the sequence length; K layers give a total reduction of
2^K. Incremental pushes produce exactly the frames a one-shot encode would,
because each layer keeps its recurrent state and at most one unpaired
leftover frame between pushes.

One layer routine runs a stack of rows with per-row lengths. Streaming is
the one-row case; ``encode_with_cache`` encodes a training minibatch as one
stack, each row bit-identical to encoding it alone. A stack is packed
time-major with its rows sorted longest first: step i holds one entry for
each row longer than i, so the rows alive at a step are a prefix of those
alive at the step before, and a row that has ended takes no memory or work.

The routine works through blocks of about ``BLOCK_ENTRIES`` entries: one
gate-batched product projects a block's input pairs through the gate-stacked
input weights, one per step gives the recurrent terms, and one projects the
block's new states. ``encode_with_cache`` keeps each layer's input pairs and
every step's gates in arrays allocated once per layer, which ``nn.gru_steps``
writes the gates into; ``encode_backward``
builds a block's ``nn.GruBackward`` from slices of them, steps back (one
product per step) and takes each weight gradient as one product over the
block. Streaming keeps nothing. Blocks bound the memory of a long push and
of the backward's coefficients; the results do not depend on them, except
for the order in which gradients are summed.
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

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if min(self.input_dim, self.hidden, self.proj) < 1:
            raise ValueError("encoder dims must be positive")

    @property
    def total_reduction(self) -> int:
        return 2**self.num_layers

    def layer_input_dim(self, k: int) -> int:
        return 2 * (self.input_dim if k == 0 else self.proj)


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator) -> dict:
    params = {}
    for k in range(cfg.num_layers):
        nn.init_gru(params, f"enc{k}", cfg.layer_input_dim(k), cfg.hidden, rng)
        params[f"enc{k}.P"] = nn.glorot(rng, cfg.proj, cfg.hidden)
        params[f"enc{k}.pb"] = np.zeros(cfg.proj)
    return params


BLOCK_ENTRIES = 64  # a block is BLOCK_ENTRIES // rows steps (at least one)


@dataclass
class EncoderState:
    hidden: list[np.ndarray]  # per layer, the (rows, hidden) recurrent state
    leftover: list[np.ndarray | None]  # per layer, an unpaired input of a one-row stack
    finished: bool = False


@dataclass
class LayerCache:
    """What ``encode_backward`` needs of one layer's forward pass over a packed stack."""

    pairs: np.ndarray  # (entries, 2 * input): each entry's input pair
    gates: np.ndarray  # (4, entries, hidden): each entry's z, r, U[n] @ h and n
    h: np.ndarray  # (rows + entries, hidden): the rows' states before the first step, then each new one
    prev: np.ndarray  # (entries,), the row of h that each step started from
    left: np.ndarray  # (entries,), the two inputs each step read
    right: np.ndarray
    starts: np.ndarray  # where each step's entries begin


@dataclass
class EncoderCache:
    layers: list[LayerCache]
    lengths: np.ndarray  # encoded frames of each utterance
    positions: np.ndarray  # where each encoded frame, back to back, sits in the packed stack


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each step begins in a packed stack whose rows hold ``counts`` (longest first)."""
    return np.minimum(counts, np.arange(counts[0] + 1)[:, None]).sum(axis=1)


def _blocks(starts: np.ndarray, rows: int) -> list[list[int]]:
    """The step bounds of each block of ``BLOCK_ENTRIES // rows`` steps."""
    size, bounds = max(1, BLOCK_ENTRIES // rows), starts.tolist()
    return [bounds[i : i + size + 1] for i in range(0, len(bounds) - 1, size)]


def _packed_positions(counts: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Where each entry of rows laid back to back sits in their packed stack, in
    which row b (``counts[b]`` entries) is row ``rank[b]``."""
    ordered = np.empty_like(counts)
    ordered[rank] = counts
    row = np.repeat(np.arange(len(counts)), counts)
    step = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return _starts(ordered)[step] + rank[row]


def _entries(n: np.ndarray, m: np.ndarray):
    """The entries of a layer call over a packed stack whose row b holds
    ``n[b]`` inputs and takes ``m[b]`` steps: where each step begins, each
    entry's step and row, and the two inputs each entry reads (2j and 2j + 1,
    or a final odd last input twice)."""
    starts = _starts(m)
    step, row = np.nonzero(np.arange(m[0])[:, None] < m)  # every entry, in packed order
    inputs = _starts(n)
    left = inputs[2 * step] + row
    right = inputs[np.minimum(2 * step + 1, n[row] - 1)] + row
    return starts, step, row, left, right


def _pairs(x: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    return np.concatenate([x[left], x[right]], axis=1)


class PyramidalEncoder:
    """Stateless module; all per-utterance state lives in EncoderState."""

    def __init__(self, cfg: EncoderConfig, params: dict):
        self.cfg = cfg
        self.params = params

    def _check_frames(self, frames) -> np.ndarray:
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != self.cfg.input_dim:
            raise ValueError(f"expected (n, {self.cfg.input_dim}) frames, got {frames.shape}")
        if not np.all(np.isfinite(frames)):
            raise ValueError("non-finite feature values")
        return frames

    def reset(self, rows: int = 1) -> EncoderState:
        return EncoderState(
            hidden=[np.zeros((rows, self.cfg.hidden)) for _ in range(self.cfg.num_layers)],
            leftover=[None] * self.cfg.num_layers,
        )

    def _layer(self, k: int, state: EncoderState, x: np.ndarray, n: np.ndarray, final: bool,
               cache: list | None) -> tuple[np.ndarray, np.ndarray]:
        """Layer k over the packed stack ``x`` whose row b holds ``n[b]`` inputs.

        Row b pairs its inputs (2j, 2j + 1). Its odd last input is paired
        with itself when ``final``; otherwise it waits in ``state.leftover``
        for the next call, which only a one-row (streaming) stack makes.
        Returns the packed outputs and the count of each row; with ``cache``
        (a list), appends the layer's ``LayerCache`` to it.
        """
        p, pre = self.params, f"enc{k}"
        if state.leftover[k] is not None:
            x, n = np.concatenate([state.leftover[k], x]), n + 1
            state.leftover[k] = None
        m = (n + 1) // 2 if final else n // 2
        if not final and n[0] % 2:
            state.leftover[k] = x[-1:]
        if m[0] == 0 and cache is None:  # nothing to step and no layer cache to record
            return np.zeros((0, self.cfg.proj)), m
        rows = len(n)
        starts, step, row, left, right = _entries(n, m)
        entries = int(starts[-1])
        hs = np.empty((rows + entries, self.cfg.hidden))
        hs[:rows] = state.hidden[k]
        out = np.empty((entries, self.cfg.proj))
        last = state.hidden[k].copy()  # a row that has ended keeps the state of its last step
        if cache is not None:
            prev = np.where(step > 0, rows + starts[step - 1] + row, row)
            kept = LayerCache(pairs=_pairs(x, left, right), gates=np.empty((4, entries, self.cfg.hidden)), h=hs,
                              prev=prev, left=left, right=right, starts=starts)
            cache.append(kept)
        before = 0  # where the rows' previous states begin in hs
        for bounds in _blocks(starts, rows):
            lo, hi = bounds[0], bounds[-1]
            wx = nn.gru_inputs(p, pre, _pairs(x, left[lo:hi], right[lo:hi]) if cache is None else kept.pairs[lo:hi])
            for a, b in zip(bounds[:-1], bounds[1:]):
                h, _ = nn.gru_steps(p, pre, wx[:, a - lo : b - lo], hs[before : before + b - a],
                                    None if cache is None else kept.gates[:, a:b])
                hs[rows + a : rows + b] = last[: b - a] = h
                before = rows + a
            out[lo:hi] = nn.matvecs(p[f"{pre}.P"], hs[rows + lo : rows + hi]) + p[f"{pre}.pb"]
        state.hidden[k] = last
        return out, m

    def _layers(self, state: EncoderState, x: np.ndarray, n: np.ndarray, final: bool,
                cache: list | None = None) -> tuple[np.ndarray, np.ndarray]:
        for k in range(self.cfg.num_layers):
            x, n = self._layer(k, state, x, n, final, cache)
        return x, n

    def push(self, state: EncoderState, frames: np.ndarray) -> np.ndarray:
        """Feed raw feature rows; returns newly encoded frames (n, proj)."""
        if state.finished:
            raise RuntimeError("push after finish")
        frames = np.asarray(frames, dtype=np.float64)
        if frames.size == 0:
            return np.zeros((0, self.cfg.proj))
        frames = self._check_frames(frames)
        return self._layers(state, frames, np.array([frames.shape[0]]), final=False)[0]

    def finish(self, state: EncoderState) -> np.ndarray:
        """Flush leftovers by pairing each with a copy of itself, bottom-up."""
        if state.finished:
            raise RuntimeError("encoder already finished")
        state.finished = True
        return self._layers(state, np.zeros((0, self.cfg.input_dim)), np.zeros(1, dtype=int), final=True)[0]


def encode_with_cache(params: dict, cfg: EncoderConfig, frames: np.ndarray, lengths):
    """Offline encode (push everything, then finish) keeping the backward cache.

    ``frames`` holds utterances laid back to back, ``lengths[b]`` rows for
    utterance b; they are encoded as one stack, each bit-identical to
    encoding it alone. Returns the encoded frames, back to back, and an
    ``EncoderCache`` whose ``lengths`` counts them per utterance.
    """
    encoder = PyramidalEncoder(cfg, params)
    frames = encoder._check_frames(frames)
    lengths = np.array(lengths, dtype=int)
    if lengths.ndim != 1 or not lengths.size or np.any(lengths < 0) or lengths.sum() != frames.shape[0]:
        raise ValueError(f"lengths {lengths.tolist()} do not split {frames.shape[0]} frames")
    order = np.argsort(-lengths, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    stack = np.empty_like(frames)
    stack[_packed_positions(lengths, rank)] = frames
    layers: list[LayerCache] = []
    out, m = encoder._layers(encoder.reset(len(lengths)), stack, lengths[order], final=True, cache=layers)
    encoded = np.empty_like(m)
    encoded[order] = m
    positions = _packed_positions(encoded, rank)
    return out[positions], EncoderCache(layers, encoded, positions)


def encode_backward(params: dict, cfg: EncoderConfig, cache: EncoderCache, d_encoded: np.ndarray,
                    grads: dict) -> None:
    """Backprop through ``encode_with_cache``; accumulates into grads.

    ``d_encoded`` is the gradient of its encoded frames, in the same order.
    Block by block from the end, ``nn.GruBackward`` turns the block's kept
    gates into delta coefficients, so a step back is one multiply and one
    product with the stacked recurrent weights. Each weight gradient is one
    product over the block (the output projection's, over the layer).
    """
    d_out = np.zeros((len(cache.positions), cfg.proj))
    d_out[cache.positions] = d_encoded
    for k in reversed(range(cfg.num_layers)):
        c, pre = cache.layers[k], f"enc{k}"
        rows = len(c.h) - len(c.prev)
        d_in = np.zeros((len(cache.layers[k - 1].prev), cfg.proj)) if k else None  # the frames need none
        carry = np.zeros((0, cfg.hidden))
        grads[f"{pre}.P"] += d_out.T @ c.h[rows:]
        grads[f"{pre}.pb"] += d_out.sum(axis=0)
        for bounds in reversed(_blocks(c.starts, rows)):
            lo, hi = bounds[0], bounds[-1]
            gru = nn.GruBackward(params, pre, c.gates[:, lo:hi], c.h[c.prev[lo:hi]])
            dh = d_out[lo:hi] @ params[f"{pre}.P"]
            for a, b in zip(bounds[-2::-1], bounds[:0:-1]):
                a, b = a - lo, b - lo
                dh[a : a + len(carry)] += carry  # rows whose last step this is carry nothing
                carry = gru.carry(a, b, dh[a:b])
            gru.param_grads(c.pairs[lo:hi], grads)
            if k:
                d_pairs = gru.gate_deltas @ gru.W
                d_in[c.left[lo:hi]] += d_pairs[:, : cfg.proj]
                d_in[c.right[lo:hi]] += d_pairs[:, cfg.proj :]
        d_out = d_in
