"""The words w_n = x1 y1^t of the systems b_n = w_n(d_{n+1}, b_{n+1}).

A word is its exponent t: t >= 1 stands for x1 y1^t, of length 1 + t, and
t = 0 for the trivial word y1, of length 1.  An exponent sequence nu gives
the word sequence, and evaluate substitutes group elements for x1 and y1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union


@dataclass(frozen=True)
class GroupOps:
    """The group operations a word is evaluated through."""

    multiply: Callable
    inverse: Callable
    identity: object


def evaluate(t: int, x, y, ops: GroupOps):
    """The word of exponent t at x1 = x and y1 = y: x y^t for t >= 1, and
    y for the trivial word at t = 0."""
    acc = x if t else y
    for _ in range(t):
        acc = ops.multiply(acc, y)
    return acc


@dataclass(frozen=True)
class WordSeq:
    """An infinite word sequence given by index: gen(n) is the exponent of
    word n.

    trivial_from, when not None, declares that every word from that index
    on is the trivial word y1.  The truncations at every depth k at or past
    it then have the same rows, which is what lets the limit read its
    values off one table.  None declares nothing."""

    gen: Callable[[int], int]
    trivial_from: Optional[int] = None


def nu_at(nu: Sequence[int], n: int) -> int:
    """Entry n of an exponent prefix, zero beyond its end."""
    return nu[n] if n < len(nu) else 0


def nu_words(nu: Union[Callable[[int], int], Sequence[int]]) -> WordSeq:
    """The word sequence driven by an exponent sequence: word n is
    x1 y1^nu(n), read as the trivial word y1 when nu(n) = 0.

    A list is copied, and its words are declared trivial from its length
    on; a callable declares nothing, so a list that grows after the call
    is passed as a callable view of it."""
    if callable(nu):

        def gen(n: int) -> int:
            t = nu(n)
            if t < 0:
                raise ValueError("exponent entries must be naturals")
            return t

        return WordSeq(gen=gen)
    entries = tuple(nu)
    size = len(entries)

    def gen(n: int) -> int:
        t = entries[n] if n < size else 0
        if t < 0:
            raise ValueError("exponent entries must be naturals")
        return t

    return WordSeq(gen=gen, trivial_from=size)


_SHOWN_LIMIT = 100


def shown(value) -> str:
    """repr(value) for an error line, cut to _SHOWN_LIMIT characters plus
    "..." when longer, so a huge rejected input gives a short line."""
    text = repr(value)
    return text if len(text) <= _SHOWN_LIMIT else text[:_SHOWN_LIMIT] + "..."


def random_sparse_nu_prefix(rng, *, span: int = 20, length: int = 24) -> list[int]:
    """A random exponent prefix that stays easy to obey: one to four nonzero
    entries inside the span, each 1 to 3, zeros elsewhere, and a zero tail
    beyond the prefix.  The zero stretches are what witness searches feed
    on."""
    if length <= span:
        raise ValueError("length must exceed span so the tail stretch exists")
    entries = [0] * length
    for p in rng.sample(range(span), rng.randint(1, 4)):
        entries[p] = rng.randint(1, 3)
    return entries
