"""Small float64 neural-net primitives with hand-written backward passes.

Parameters live in flat ``dict[str, np.ndarray]`` maps keyed by dotted names
("enc0.Wz", "att.sel.v", ...). Gradients use the same keys, which makes
per-group finite-difference checks straightforward.
"""
from __future__ import annotations

import numpy as np

GRU_GATES = ("z", "r", "n")


def sigmoid(x):
    """Logistic function; exp only ever sees -|x|, so it cannot overflow."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, so a stack of rows normalizes row by row."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    ex = np.exp(shifted)
    return ex / np.sum(ex)


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
    """One GRU step. Returns (h_new, cache) with everything backward needs."""
    z = sigmoid(params[f"{prefix}.Wz"] @ x + params[f"{prefix}.Uz"] @ h + params[f"{prefix}.bz"])
    r = sigmoid(params[f"{prefix}.Wr"] @ x + params[f"{prefix}.Ur"] @ h + params[f"{prefix}.br"])
    uh = params[f"{prefix}.Un"] @ h
    n = np.tanh(params[f"{prefix}.Wn"] @ x + r * uh + params[f"{prefix}.bn"])
    h_new = (1.0 - z) * n + z * h
    return h_new, (x, h, z, r, uh, n)


def gru_inputs(params: dict, prefix: str, X: np.ndarray) -> tuple[np.ndarray, ...]:
    """The input terms ``W{z,r,n} @ x`` of every row ``x`` of ``X``, for ``gru_steps``.

    They do not depend on the hidden state, so a recurrence computes them for
    all its steps at once.
    """
    return tuple(matvecs(params[f"{prefix}.W{g}"], X) for g in GRU_GATES)


def gru_steps(params: dict, prefix: str, wx: tuple[np.ndarray, ...], H: np.ndarray):
    """``gru_step`` on every row of ``H``, given its input's terms ``wx`` from ``gru_inputs``.

    Row for row the new state is bit-identical to ``gru_step``. Returns
    (H_new, (z, r, uh, n)), the gate values a backward pass needs.
    """
    wz, wr, wn = wx
    z = sigmoid(wz + matvecs(params[f"{prefix}.Uz"], H) + params[f"{prefix}.bz"])
    r = sigmoid(wr + matvecs(params[f"{prefix}.Ur"], H) + params[f"{prefix}.br"])
    uh = matvecs(params[f"{prefix}.Un"], H)
    n = np.tanh(wn + r * uh + params[f"{prefix}.bn"])
    return (1.0 - z) * n + z * H, (z, r, uh, n)


def gru_step_backward(params: dict, prefix: str, cache, dh_new: np.ndarray, grads: dict):
    """Backward through one GRU step; accumulates into grads, returns (dx, dh)."""
    x, h, z, r, uh, n = cache
    dn = dh_new * (1.0 - z)
    dz = dh_new * (h - n)
    dh = dh_new * z

    dan = dn * (1.0 - n * n)
    grads[f"{prefix}.Wn"] += np.outer(dan, x)
    grads[f"{prefix}.bn"] += dan
    dx = params[f"{prefix}.Wn"].T @ dan
    dr = dan * uh
    danh = dan * r
    grads[f"{prefix}.Un"] += np.outer(danh, h)
    dh += params[f"{prefix}.Un"].T @ danh

    daz = dz * z * (1.0 - z)
    grads[f"{prefix}.Wz"] += np.outer(daz, x)
    grads[f"{prefix}.Uz"] += np.outer(daz, h)
    grads[f"{prefix}.bz"] += daz
    dx += params[f"{prefix}.Wz"].T @ daz
    dh += params[f"{prefix}.Uz"].T @ daz

    dar = dr * r * (1.0 - r)
    grads[f"{prefix}.Wr"] += np.outer(dar, x)
    grads[f"{prefix}.Ur"] += np.outer(dar, h)
    grads[f"{prefix}.br"] += dar
    dx += params[f"{prefix}.Wr"].T @ dar
    dh += params[f"{prefix}.Ur"].T @ dar
    return dx, dh


def zero_grads(params: dict) -> dict:
    return {k: np.zeros_like(v) for k, v in params.items()}


def add_grads(total: dict, part: dict, scale: float = 1.0) -> None:
    for k, v in part.items():
        total[k] += scale * v
