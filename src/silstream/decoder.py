"""Asynchronous beam-search decoding over a (possibly partial) encoded buffer.

This module holds the beam step and its data: the shared encoded buffer,
hypotheses and their histories, and the decode result. The decode loop that
drives the step, with its end-symbol policies, is ``streamer.StreamSession``.

Each survivor of a kept beam step builds an ``Emission``, a ``History`` node
and a ``Hypothesis``: named tuples, immutable and cheap to build.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .attention import AttentionState, AttentionStepResult

if TYPE_CHECKING:
    from .model import StepOutput

EOS_POLICIES = ("defer", "restart", "accept")
CAP_BASE, CAP_PER_FRAME = 8, 2  # the token cap: a hypothesis that reaches it is finished as a runaway


def max_tokens(encoded_frames: int) -> int:
    """The most tokens a hypothesis may emit over ``encoded_frames`` frames."""
    return CAP_BASE + CAP_PER_FRAME * encoded_frames


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int = 8
    eos_policy: str = "defer"

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.eos_policy not in EOS_POLICIES:
            raise ValueError(f"eos_policy must be one of {EOS_POLICIES}")


def _reserve(store: np.ndarray, used: int, rows: int, width: int) -> np.ndarray:
    """``store`` if it has room for ``rows`` rows, else a copy of its first
    ``used`` rows with room for twice as many, so appends copy amortised O(1)."""
    if store.shape[0] >= rows:
        return store
    grown = np.empty((2 * rows, width))
    if used:
        grown[:used] = store[:used]
    return grown


class EncodedBuffer:
    """Append-only store of encoded frames shared by all hypotheses.

    Frames live in a preallocated array that doubles when full. The attention
    key terms of each frame are computed once, the first time the model
    decoding over the buffer asks for them, and kept the same way.
    """

    def __init__(self):
        self._rows = np.zeros((0, 0))
        self._n = 0
        self._keys = (np.zeros((0, 0)), np.zeros((0, 0)))
        self._projected = 0

    def append(self, encoded: np.ndarray) -> None:
        if encoded.size == 0:
            return
        n = self._n + encoded.shape[0]
        self._rows = _reserve(self._rows, self._n, n, encoded.shape[1])
        self._rows[self._n : n] = encoded
        self._n = n

    def __len__(self) -> int:
        return self._n

    @property
    def array(self) -> np.ndarray:
        return self._rows[: self._n]

    def keys(self, project) -> tuple[np.ndarray, np.ndarray]:
        """Key terms of every frame; ``project`` maps frame rows to the pair of
        key-term rows and runs only on frames not projected before."""
        done, n = self._projected, self._n
        if done < n:
            fresh = project(self._rows[done:n])
            self._keys = tuple(
                _reserve(store, done, n, part.shape[1]) for store, part in zip(self._keys, fresh)
            )
            for store, part in zip(self._keys, fresh):
                store[done:n] = part
            self._projected = n
        return tuple(store[:n] for store in self._keys)


class Emission(NamedTuple):
    token: int
    selected_index: int
    peak_index: int
    clock_ms: float
    log_prob: float
    forced: bool = False


class History(NamedTuple):
    """A hypothesis' token history as a parent-pointer chain.

    Expansions share their parent's chain instead of copying it, so one
    step costs O(1) per hypothesis whatever the history length. Nodes hold
    no decoder state: voided steps keep older beams alive, and their states
    must not be kept with them.

    ``jump`` is a skew-binary jump pointer (Myers, "An applicative
    random-access stack", 1983): the parent, or the parent's jump's jump when
    the parent's two jumps span equal distances. Its length depends only on
    the node's, and greedy jumps reach any ancestor in O(log distance) hops.
    """

    token: int
    emission: Emission | None  # None for BOS and for an EOS appended without a step
    parent: History | None
    length: int  # tokens from BOS through this one
    jump: History | None = None  # None for BOS

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__  # identity: tuple == walks the chain

    def extend(self, token: int, emission: Emission | None = None) -> History:
        j = self.jump
        far = j is not None and j.jump is not None and self.length - j.length == j.length - j.jump.length
        return History(token, emission, self, self.length + 1, j.jump if far else self)

    def ancestor(self, length: int) -> History:
        """The node of this chain holding ``length >= 1`` tokens, or this node
        if it holds no more, in O(log(self.length - length)) hops."""
        node = self
        while node.length > length:
            node = node.jump if node.jump.length >= length else node.parent
        return node

    def nodes_after(self, ancestor: History | None) -> list[History]:
        """The nodes after ``ancestor`` (exclusive) through this one, oldest first.

        Raises ValueError if ``ancestor`` is not on this chain.
        """
        depth = 0 if ancestor is None else ancestor.length
        out = []
        node = self
        while node is not None and node.length > depth:
            out.append(node)
            node = node.parent
        if node is not ancestor:
            raise ValueError("not an ancestor of this history")
        out.reverse()
        return out


class Hypothesis(NamedTuple):
    history: History
    log_score: float
    dec_state: object
    att_state: AttentionState
    finished: bool = False
    runaway: bool = False

    @property
    def emitted(self) -> int:
        return self.history.length - 1

    def with_eos(self, eos_id: int) -> Hypothesis:
        """This hypothesis closed by an end symbol that no decoding step produced."""
        return self._replace(history=self.history.extend(eos_id), finished=True)


def common_ancestor(histories: list[History], floor: History) -> History:
    """The deepest node on every chain of ``histories``, each of which
    extends ``floor``, folded until it reaches ``floor``. Each fold lifts two
    nodes to one length, then in lockstep: by their jumps while those differ
    (the answer lies above both), else to their parents; O(log depth) hops."""
    common = histories[0]
    for other in histories[1:]:
        if common is floor:
            break
        a, b = common.ancestor(other.length), other.ancestor(common.length)
        while a is not b:
            a, b = (a.parent, b.parent) if a.jump is b.jump else (a.jump, b.jump)
        common = a
    return common


def initial_hypothesis(model, prev_index: int = -1) -> Hypothesis:
    bos = History(model.vocab.bos_id, None, None, 1)
    return Hypothesis(bos, 0.0, model.decode_start(), AttentionState(prev_index))


def _finish_runaway(hyp: Hypothesis, eos_id: int, clock_ms: float) -> Hypothesis:
    em = Emission(eos_id, hyp.att_state.prev_index, hyp.att_state.prev_index, clock_ms, 0.0, forced=True)
    return hyp._replace(history=hyp.history.extend(eos_id, em), finished=True, runaway=True)


def _expand(hyp: Hypothesis, out: StepOutput, token: int, score: float, log_prob: float,
            clock_ms: float, eos_id: int) -> Hypothesis:
    att = out.att
    em = Emission(token, att.selected_index, att.peak_index, clock_ms, log_prob, att.forced)
    return Hypothesis(hyp.history.extend(token, em), score, out.dec_state, AttentionState(att.selected_index),
                      token == eos_id, hyp.runaway)


class VoidedStep(NamedTuple):
    """Why a step was voided, and its survivors: ``kept``, which take no token
    (finished, stalled or closed at the token cap), then the expansions
    ``chosen``, best first, unbuilt; ``atts``, the attention result of each."""

    reason: str
    kept: list[Hypothesis]
    chosen: list[tuple[float, Hypothesis, StepOutput, int, float]]
    atts: list[AttentionStepResult | None]


def decode_step(
    model,
    beam: list[Hypothesis],
    buffer: EncodedBuffer,
    buffer_complete: bool,
    cfg: BeamConfig,
    clock_ms: float = 0.0,
    force: bool = False,
    block_eos: bool = False,
    void=None,
    reuse: VoidedStep | None = None,
) -> tuple[list[Hypothesis] | None, list[AttentionStepResult | None], VoidedStep | None]:
    """Expand every live hypothesis by one token: rank, check, then build.
    Returns the new beam, each hypothesis' attention result (None if it took
    no step) and None; for a voided step, None, the results and the step.

    Hypotheses whose attention cannot select a frame yet are kept as-is
    (stalled, signalled through the returned attention results) rather than
    dropped. ``force`` converts such stalls into a forced selection of the
    last frame so decoding can always make progress at finalization.

    The model may hand one ``StepOutput`` object to several hypotheses (the
    oracle does, for all hypotheses at one attention position); its token
    ranking is then computed once and read by each of them, and nothing here
    writes to it.

    ``void``, the caller's void rule, reads the (token before the step,
    attention result) pair of each chosen expansion and returns the reason
    to void the step, or None; only a kept step builds its survivors (a
    hypothesis at the token cap is closed as it is ranked). ``reuse`` is a
    voided step of this beam over a shorter buffer, from a model with
    ``stable_steps``, that kept only finished hypotheses, none at the token
    cap, and chose only unforced expansions: the step would rank the same
    survivors again, so the model and the ranking do not run; the rule checks
    them again, and they are built with emissions at ``clock_ms``.
    """
    if not beam:
        raise ValueError("empty beam")
    eos_id = model.vocab.eos_id
    if reuse is not None:
        kept, chosen, atts = reuse.kept, reuse.chosen, reuse.atts
    else:
        cap = max_tokens(len(buffer))
        live = [hyp for hyp in beam if not hyp.finished and hyp.emitted < cap]
        steps = iter(model.decode_steps(
            [h.dec_state for h in live], [h.history.token for h in live], buffer,
            [h.att_state for h in live], buffer_complete, force=force,
        ) if live else ())
        kept, atts = [], []
        # every candidate expansion, in beam order then token order; only the survivors become hypotheses
        ranked: list[tuple[float, Hypothesis, StepOutput, int, float]] = []
        # each distinct step output's log probs and beam_size best tokens (no end symbol
        # while it is blocked), by id: hypotheses the model gave one output share its ranking
        rankings: dict[int, tuple[list[float], list[int]]] = {}
        for hyp in beam:
            if hyp.finished or hyp.emitted >= cap:
                kept.append(hyp if hyp.finished else _finish_runaway(hyp, eos_id, clock_ms))
                atts.append(None)
                continue
            out = next(steps)
            if out.stalled:
                kept.append(hyp)
                atts.append(out.att)
                continue
            ranking = rankings.get(id(out))
            if ranking is None:
                log_probs = out.log_probs.tolist()
                # the order of a stable argsort of -log_probs: ties keep their index order
                order = heapq.nlargest(cfg.beam_size + 1, range(len(log_probs)), key=log_probs.__getitem__)
                if block_eos and eos_id in order:
                    order.remove(eos_id)
                ranking = rankings[id(out)] = (log_probs, order[: cfg.beam_size])
            log_probs, order = ranking
            for token in order:
                ranked.append((hyp.log_score + log_probs[token], hyp, out, token, log_probs[token]))
        ranked.sort(key=itemgetter(0), reverse=True)  # stable, like a sort on -score
        chosen = ranked[: max(0, cfg.beam_size - len(kept))]
        atts += [out.att for _, _, out, _, _ in chosen]
    if void is not None:
        reason = void([(hyp.history.token, out.att) for _, hyp, out, _, _ in chosen])
        if reason is not None:
            return None, atts, VoidedStep(reason, kept, chosen, atts)
    return kept + [_expand(hyp, out, token, score, log_prob, clock_ms, eos_id)
                   for score, hyp, out, token, log_prob in chosen], atts, None


def best_hypothesis(beam: list[Hypothesis]) -> Hypothesis:
    return max(beam, key=attrgetter("log_score"))


@dataclass
class DecodeResult:
    tokens: list[int]
    emissions: list[Emission] = field(default_factory=list)
    restarts: list[float] = field(default_factory=list)
    display_log: list[tuple[float, tuple[int, ...]]] = field(default_factory=list)
    forced_steps: int = 0
