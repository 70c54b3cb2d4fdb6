"""Token vocabulary with reserved begin/end/silence symbols."""
from __future__ import annotations

from dataclasses import dataclass, field

BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
SIL_TOKEN = "<sil>"
RESERVED_TOKENS = (BOS_TOKEN, EOS_TOKEN, SIL_TOKEN)

# Label used for silence segments in alignment files.
SIL_LABEL = "SIL"


@dataclass(frozen=True)
class Vocab:
    """Dense token inventory. Ids are positions in ``tokens``."""

    tokens: tuple[str, ...]
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)
    reserved: frozenset[int] = field(init=False, repr=False, compare=False)  # BOS, EOS and SIL ids

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")
        for special in RESERVED_TOKENS:
            if special not in self.tokens:
                raise ValueError(f"vocabulary is missing reserved token {special!r}")
        if len(self.tokens) < 4:
            raise ValueError("vocabulary needs at least one non-reserved token")
        object.__setattr__(self, "_ids", {t: i for i, t in enumerate(self.tokens)})
        object.__setattr__(self, "reserved", frozenset(self._ids[t] for t in RESERVED_TOKENS))

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def bos_id(self) -> int:
        return self._ids[BOS_TOKEN]

    @property
    def eos_id(self) -> int:
        return self._ids[EOS_TOKEN]

    @property
    def sil_id(self) -> int:
        return self._ids[SIL_TOKEN]

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise ValueError(f"unknown token {token!r}") from None

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.tokens):
            raise ValueError(f"token id {token_id} out of range [0, {len(self.tokens)})")
        return self.tokens[token_id]

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.id_of(t) for t in tokens]

    def decode(self, ids: list[int]) -> list[str]:
        return [self.token_of(i) for i in ids]


def make_vocab(content_tokens: list[str]) -> Vocab:
    """Build a vocabulary with the reserved symbols up front."""
    return Vocab(RESERVED_TOKENS + tuple(content_tokens))


def strip_nonscoring(ids: list[int], vocab: Vocab) -> list[int]:
    """Drop BOS/EOS/SIL ids, keeping the order of the remaining tokens.

    Silence is an auxiliary modeling token, not transcript content, so it
    never counts toward error rates.
    """
    out = []
    for i in ids:
        if not 0 <= i < vocab.size:
            raise ValueError(f"token id {i} not valid for vocabulary of size {vocab.size}")
        if i not in vocab.reserved:
            out.append(i)
    return out


def load_vocab(path: str) -> Vocab:
    with open(path, encoding="utf-8") as f:
        tokens = [line.strip() for line in f if line.strip()]
    return Vocab(tuple(tokens))


def save_vocab(vocab: Vocab, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for t in vocab.tokens:
            f.write(t + "\n")
