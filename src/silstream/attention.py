"""Monotonic chunkwise attention.

Two modes share one parameterization:

* hard mode (inference): scan encoded frames left to right from the previous
  selection; the first frame whose selection probability crosses 0.5 is
  chosen, and a softmax over the chunk ending there yields the context.
  The scan scores windows of ``chunk_size``, then twice as many rows, and so
  on, and stops at the first window with a crossing, so a step costs about
  the distance it moves rather than the whole buffer tail. The crossing is
  decided on the selection energies (``first_crossing``), without squashing
  them, and selects the frame the probabilities would.
* soft mode (training): expected-alignment recurrence over selection
  probabilities, followed by the induced chunkwise distribution.

Energies are additive (tanh) with a learned scalar offset on the selection
energy, initialized negative so early training attends broadly. Both modes
score with the same ``energies`` on projected terms: each frame's key terms
``Wk @ h`` are computed once (``project_keys``) and each decoder state's
query terms ``Wq @ s + b`` once (``project_queries``), so a step adds and
squashes but multiplies no frame by ``Wk``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn

SELECT_THRESHOLD = 0.5
CROSSING_BAND = 1e-15  # holds the negative energies whose probability rounds to 0.5 (about 5e-17 wide)


@dataclass(frozen=True)
class AttentionConfig:
    chunk_size: int = 3
    energy_hidden: int = 16

    def __post_init__(self):
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.energy_hidden < 1:
            raise ValueError("energy_hidden must be positive")


@dataclass
class AttentionState:
    prev_index: int = -1


@dataclass
class AttentionStepResult:
    status: str  # "selected" or "exhausted"
    context: np.ndarray | None = None
    selected_index: int = -1
    peak_index: int = -1
    forced: bool = False


EXHAUSTED = AttentionStepResult(status="exhausted")


def init_attention_params(
    cfg: AttentionConfig, query_dim: int, key_dim: int, rng: np.random.Generator, params: dict | None = None
) -> dict:
    params = {} if params is None else params
    for name in ("sel", "chunk"):
        prefix = f"att.{name}"
        params[f"{prefix}.Wq"] = nn.glorot(rng, cfg.energy_hidden, query_dim)
        params[f"{prefix}.Wk"] = nn.glorot(rng, cfg.energy_hidden, key_dim)
        params[f"{prefix}.b"] = np.zeros(cfg.energy_hidden)
        params[f"{prefix}.v"] = nn.glorot(rng, 1, cfg.energy_hidden)[0]
    params["att.sel.r"] = np.array([-1.0])
    return params


def project_keys(params: dict, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Selection and chunk key terms ``Wk @ h`` of every frame row.

    Rows are projected one by one (``nn.matvecs``), so a frame's keys do not
    depend on which frames are projected with it.
    """
    return nn.matvecs(params["att.sel.Wk"], frames), nn.matvecs(params["att.chunk.Wk"], frames)


def project_queries(params: dict, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Selection and chunk query terms ``Wq @ s + b`` of every query row."""
    return tuple(nn.matvecs(params[f"att.{kind}.Wq"], queries) + params[f"att.{kind}.b"] for kind in ("sel", "chunk"))


def energies(params: dict, kind: str, query: np.ndarray, keys: np.ndarray):
    """Additive energies ``v . tanh(k + q)`` of one query term ``q`` (a row of
    ``project_queries``) against key term rows ``k`` (``project_keys``), plus
    the selection offset. Returns (e, tanh activations, which ``trainer.backward`` reads).
    """
    act = np.tanh(keys + query)
    e = act @ params[f"att.{kind}.v"]
    if kind == "sel":
        e = e + params["att.sel.r"][0]
    return e, act


def first_crossing(e: np.ndarray) -> int:
    """Index of the first selection energy whose probability ``nn.sigmoid(e)``
    is at or above the threshold, or -1.

    That probability reaches 0.5 exactly when ``e >= 0``, except on a band of
    tiny negative energies whose ``exp`` rounds to 1. The band's edge depends
    on numpy's ``exp``, so an energy within ``CROSSING_BAND`` below zero is
    confirmed with ``nn.sigmoid`` itself.
    """
    for i in (e > -CROSSING_BAND).nonzero()[0]:
        if e[i] >= 0.0 or nn.sigmoid(e[i]) >= SELECT_THRESHOLD:
            return int(i)
    return -1


def chunk_attend(chunk_energies: np.ndarray, frames: np.ndarray, lo: int):
    """Softmax over the chunk of frames starting at ``lo`` that ``chunk_energies``
    scores; returns (context, peak_index).

    Argmax ties resolve to the lowest index.
    """
    weights = nn.softmax(chunk_energies)
    context = weights @ frames[lo : lo + len(weights)]
    peak = lo + int(weights.argmax())
    return context, peak


def mocha_infer_step(
    params: dict,
    cfg: AttentionConfig,
    query: tuple[np.ndarray, np.ndarray],
    frames: np.ndarray,
    state: AttentionState,
    force: bool = False,
    *,
    keys: tuple[np.ndarray, np.ndarray],
) -> AttentionStepResult:
    """Hard-mode step: monotonic scan then chunk softmax.

    ``force`` converts an exhausted scan into a forced step so decoding can
    always make progress (e.g. at finalization): the position pins to the
    last frame but the context is zero, mirroring what soft training
    produces when the expected alignment runs off the end of the input.

    ``query`` is the pair of selection and chunk query terms (one row of
    each of ``project_queries``) and ``keys`` the key terms of ``frames``
    (``project_keys``), so callers stepping many queries over one buffer
    project every frame once. Selection energies are scored in windows from
    the previous selection (``chunk_size`` rows, then each twice the last)
    up to the first crossing; they are row-wise, so the frame selected is
    the one a whole-tail scan selects. The crossing is found on the
    energies (``first_crossing``), which selects the frame whose
    ``nn.sigmoid`` probability first reaches the threshold, without
    computing the probabilities. Chunk energies are computed on the chunk
    only.
    """
    n = frames.shape[0]
    if n == 0:
        return EXHAUSTED
    sel_query, chunk_query = query
    sel_keys, chunk_keys = keys
    start, width = max(state.prev_index, 0), cfg.chunk_size
    selected = -1
    while selected < 0 and start < n:
        stop = min(n, start + width)
        rel = first_crossing(energies(params, "sel", sel_query, sel_keys[start:stop])[0])
        if rel >= 0:
            selected = start + rel
        start, width = stop, 2 * width
    if selected < 0:
        if not force or state.prev_index >= n:
            return EXHAUSTED
        return AttentionStepResult(
            status="selected",
            context=np.zeros(frames.shape[1]),
            selected_index=n - 1,
            peak_index=n - 1,
            forced=True,
        )
    lo = max(0, selected - cfg.chunk_size + 1)
    u = energies(params, "chunk", chunk_query, chunk_keys[lo : selected + 1])[0]
    context, peak = chunk_attend(u, frames, lo)
    return AttentionStepResult(status="selected", context=context, selected_index=selected, peak_index=peak)


def _moving_sum_back(x: np.ndarray, w: int) -> np.ndarray:
    """out[k] = sum of x[max(0, k-w+1) .. k], as w - 1 shifted adds: differences of
    a running sum cancel to nothing for a window far below the sum's largest terms."""
    out = x.copy()
    for s in range(1, w):
        out[s:] += x[:-s]
    return out


def _moving_sum_fwd(x: np.ndarray, w: int) -> np.ndarray:
    """out[j] = sum of x[j .. min(len-1, j+w-1)], as w - 1 shifted adds."""
    out = x.copy()
    for s in range(1, w):
        out[:-s] += x[s:]
    return out


def soft_step(p: np.ndarray, u: np.ndarray, alpha_prev: np.ndarray, chunk_size: int):
    """Expected-alignment step.

    Given selection probabilities ``p``, chunk energies ``u`` and the previous
    step's expected alignment, returns (alpha, beta, cache). Mass that scans
    past the last frame is dropped, so sum(alpha) <= sum(alpha_prev). The
    carry runs on Python floats, which round as numpy's float64 scalars do.
    """
    n = len(p)
    keep, q = (1.0 - p).tolist(), alpha_prev[:1].tolist()
    for t, a in enumerate(alpha_prev[1:].tolist()):
        q.append(keep[t] * q[t] + a)
    q = np.array(q)
    alpha = p * q
    if chunk_size == 1:
        beta = alpha.copy()
        cache = (p, q, alpha, None, None, None, chunk_size)
        return alpha, beta, cache
    shift = np.max(u) if n else 0.0
    expu = np.exp(u - shift)
    denom = np.maximum(_moving_sum_back(expu, chunk_size), 1e-300)
    ratio = alpha / denom
    spread = _moving_sum_fwd(ratio, chunk_size)
    beta = expu * spread
    cache = (p, q, alpha, expu, denom, spread, chunk_size)
    return alpha, beta, cache


def soft_step_backward(cache, d_alpha: np.ndarray, d_beta: np.ndarray):
    """Backward of soft_step. Returns (dp, du, d_alpha_prev)."""
    p, q, alpha, expu, denom, spread, w = cache
    n = len(p)
    d_alpha = np.array(d_alpha, dtype=np.float64)
    if w == 1:
        d_alpha += d_beta
        du = np.zeros(n)
    else:
        d_expu = d_beta * spread
        d_spread = d_beta * expu
        d_ratio = _moving_sum_back(d_spread, w)
        d_alpha += d_ratio / denom
        d_denom = -d_ratio * alpha / denom / denom
        d_expu += _moving_sum_fwd(d_denom, w)
        du = d_expu * expu
    dp, dq = (d_alpha * q).tolist(), (d_alpha * p).tolist()
    keep, q = (1.0 - p).tolist(), q.tolist()
    for t in range(n - 1, 0, -1):
        dp[t - 1] -= q[t - 1] * dq[t]
        dq[t - 1] += keep[t - 1] * dq[t]
    return np.array(dp), du, np.array(dq) + 0.0  # + 0.0 as in accumulating onto zeros: -0.0 becomes 0.0


def initial_alpha(n: int) -> np.ndarray:
    """Expected alignment before the first output step: all mass at frame 0."""
    a = np.zeros(n)
    if n:
        a[0] = 1.0
    return a
