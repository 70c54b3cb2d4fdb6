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
    (``matvecs``). Returns (H_new, (z, r, uh, n)), the gates ``GruBackward`` needs.
    One ``sigmoid`` squashes the z and r pre-activations stacked row-wise.
    """
    wz, wr, wn = wx
    zr = sigmoid(np.concatenate((wz + matvecs(params[f"{prefix}.Uz"], H) + params[f"{prefix}.bz"],
                                 wr + matvecs(params[f"{prefix}.Ur"], H) + params[f"{prefix}.br"])))
    z, r = zr[: len(H)], zr[len(H) :]
    uh = matvecs(params[f"{prefix}.Un"], H)
    n = np.tanh(wn + r * uh + params[f"{prefix}.bn"])
    return (1.0 - z) * n + z * H, (z, r, uh, n)


class GruBackward:
    """Back through a run of ``gru_steps``: row i of ``gates`` and ``H`` is one
    step's gates and the state it started from.

    A step's gradients of h through the z gate, of ``Un @ h`` and of the z, r
    and n pre-activations are the gradient of its new state times
    coefficients of its gates, computed here for the whole run as five blocks
    of ``hidden`` per row of ``deltas``; ``carry`` turns them into the deltas.
    """

    def __init__(self, params: dict, prefix: str, gates: tuple, H: np.ndarray):
        z, r, uh, n = gates
        self.coef = c = np.empty((len(H), 5, H.shape[1]))  # filled in place: fewer temporaries at peak
        c[:, 0] = z
        np.multiply(1.0 - z, 1.0 - n * n, out=c[:, 4])
        np.multiply(c[:, 4], r, out=c[:, 1])
        np.multiply((H - n) * z, 1.0 - z, out=c[:, 2])
        np.multiply(c[:, 1] * uh, 1.0 - r, out=c[:, 3])
        self.deltas = c.reshape(len(H), -1)  # the same memory, one row per step
        self.prefix, self.H, self.hidden = prefix, H, H.shape[1]
        self.U = np.concatenate([np.eye(self.hidden)] + [params[f"{prefix}.U{g}"] for g in "nzr"])
        self.W = np.concatenate([params[f"{prefix}.W{g}"] for g in GRU_GATES])  # acts on ``gate_deltas``

    def carry(self, a: int, b: int, dH_new: np.ndarray) -> np.ndarray:
        """The deltas of rows a..b from the gradient of their new states; returns the
        gradient of the states they started from, one product with ``[I; Un; Uz; Ur]``."""
        np.multiply(self.coef[a:b], dH_new[:, None], out=self.coef[a:b])
        return self.deltas[a:b, : 4 * self.hidden] @ self.U

    @property
    def gate_deltas(self) -> np.ndarray:
        """The gradients of the z, r and n pre-activations, row by row."""
        return self.deltas[:, 2 * self.hidden :]

    def param_grads(self, X: np.ndarray, grads: dict):
        """Add the weight and bias gradients into grads; row i of ``X`` is step i's input."""
        h, d_gates = self.hidden, self.gate_deltas
        dW, dU, db = d_gates.T @ X, self.deltas[:, h : 4 * h].T @ self.H, d_gates.sum(axis=0)
        for i, (g, u) in enumerate(zip(GRU_GATES, "nzr")):
            grads[f"{self.prefix}.W{g}"] += dW[i * h : (i + 1) * h]
            grads[f"{self.prefix}.b{g}"] += db[i * h : (i + 1) * h]
            grads[f"{self.prefix}.U{u}"] += dU[i * h : (i + 1) * h]


def zero_grads(params: dict) -> dict:
    return {k: np.zeros_like(v) for k, v in params.items()}

