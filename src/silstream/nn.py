"""Small float64 neural-net primitives with hand-written backward passes.

Parameters live in flat ``dict[str, np.ndarray]`` maps keyed by dotted names
("enc0.Wz", "att.sel.v", ...). Gradients use the same keys, which makes
per-group finite-difference checks straightforward.
"""
from __future__ import annotations

import numpy as np

GRU_GATES = ("z", "r", "n")


def sigmoid(x):
    """Logistic function ``exp(min(x, 0)) / (1 + exp(-|x|))``; exp never sees a
    positive argument, so it cannot overflow."""
    x = np.asarray(x, dtype=np.float64)
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, so a stack of rows normalizes row by row."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    ex = np.exp(logits - logits.max())
    return ex / ex.sum()


def matvecs(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``W @ x`` for every row ``x`` of ``X``.

    Stacked matrix-vector products give each row bit for bit what ``W @ x``
    gives it alone, whatever the other rows; ``X @ W.T`` does not.
    """
    if len(X) == 1:  # the same product, without the cost of a stacked call
        return (W @ X[0])[None]
    return np.matmul(W[None], X[:, :, None])[:, :, 0]


def glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    scale = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-scale, scale, size=(fan_out, fan_in))


def init_gru(params: dict, prefix: str, input_dim: int, hidden: int, rng: np.random.Generator):
    for g in GRU_GATES:
        params[f"{prefix}.W{g}"] = glorot(rng, hidden, input_dim)
        params[f"{prefix}.U{g}"] = glorot(rng, hidden, hidden)
        params[f"{prefix}.b{g}"] = np.zeros(hidden)


def gru_step(params: dict, prefix: str, x: np.ndarray, h: np.ndarray):
    """One GRU step of the state vector ``h`` on the input vector ``x``: ``gru_steps``
    on one row. Returns (h_new, gates), the gates as one-row arrays."""
    h_new, gates = gru_steps(params, prefix, gru_inputs(params, prefix, x[None]), h[None])
    return h_new[0], gates


def gru_inputs(params: dict, prefix: str, X: np.ndarray) -> tuple[np.ndarray, ...]:
    """The input terms ``W{z,r,n} @ x`` of every row ``x`` of ``X``, for ``gru_steps``.

    They do not depend on the hidden state, so a recurrence computes them for
    all its steps at once.
    """
    return tuple(matvecs(params[f"{prefix}.W{g}"], X) for g in GRU_GATES)


def gru_steps(params: dict, prefix: str, wx: tuple[np.ndarray, ...], H: np.ndarray):
    """One GRU step of every row of ``H``, given its input's terms ``wx`` from ``gru_inputs``.

    A row's new state does not depend on the other rows, bit for bit
    (``matvecs``). Returns (H_new, (z, r, uh, n)), the gates ``gru_step_grads`` needs.
    One ``sigmoid`` squashes the z and r pre-activations stacked row-wise.
    """
    wz, wr, wn = wx
    zr = sigmoid(np.concatenate((wz + matvecs(params[f"{prefix}.Uz"], H) + params[f"{prefix}.bz"],
                                 wr + matvecs(params[f"{prefix}.Ur"], H) + params[f"{prefix}.br"])))
    z, r = zr[: len(H)], zr[len(H) :]
    uh = matvecs(params[f"{prefix}.Un"], H)
    n = np.tanh(wn + r * uh + params[f"{prefix}.bn"])
    return (1.0 - z) * n + z * H, (z, r, uh, n)


def gru_step_grads(params: dict, prefix: str, gates: tuple, H: np.ndarray, dH_new: np.ndarray):
    """Back through a ``gru_steps`` call on ``H`` that gave ``gates``, given the
    gradient of its new states. Returns (deltas, dH): the gradients of the z
    and r pre-activations, of ``Un @ h`` and of the n pre-activation, and of ``H``.

    A recurrence carries dH back step by step; ``gru_input_grads`` and
    ``gru_param_grads`` then take products over as many steps as it likes.
    """
    z, r, uh, n = gates
    dan = dH_new * (1.0 - z) * (1.0 - n * n)
    duh = dan * r
    daz = dH_new * (H - n) * z * (1.0 - z)
    dar = dan * uh * r * (1.0 - r)
    dH = dH_new * z + duh @ params[f"{prefix}.Un"] + daz @ params[f"{prefix}.Uz"] + dar @ params[f"{prefix}.Ur"]
    return (daz, dar, duh, dan), dH


def gru_input_grads(params: dict, prefix: str, deltas: tuple) -> np.ndarray:
    """The gradient of the inputs of the GRU steps whose ``gru_step_grads`` are ``deltas``."""
    daz, dar, _, dan = deltas
    return daz @ params[f"{prefix}.Wz"] + dar @ params[f"{prefix}.Wr"] + dan @ params[f"{prefix}.Wn"]


def gru_param_grads(params: dict, prefix: str, deltas: tuple, X: np.ndarray, H: np.ndarray, grads: dict):
    """Add the weight and bias gradients of a stack of GRU steps into grads: row
    i of ``deltas`` (from ``gru_step_grads``), ``X`` and ``H`` is one step's
    deltas, input and previous state."""
    daz, dar, duh, dan = deltas
    for g, da, da_u in (("z", daz, daz), ("r", dar, dar), ("n", dan, duh)):
        grads[f"{prefix}.W{g}"] += da.T @ X
        grads[f"{prefix}.U{g}"] += da_u.T @ H
        grads[f"{prefix}.b{g}"] += da.sum(axis=0)


def zero_grads(params: dict) -> dict:
    return {k: np.zeros_like(v) for k, v in params.items()}

