"""Group words over two indexed families of variables.

A word is a canonical product of factors v^e where v is a parameter slot
x1, x2, ... or an unknown slot y1, y2, ...  Canonical means adjacent factors
on the same variable are merged and zero exponents are dropped, so equality
of words is plain structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union


# A factor is (kind, index, exponent) with kind "x" or "y", index >= 1 and
# exponent != 0 once canonical.
Factor = tuple[str, int, int]


@dataclass(frozen=True)
class Word:
    factors: tuple[Factor, ...] = ()

    def length(self) -> int:
        """Sum of absolute exponents, the unit-letter count."""
        return sum(abs(e) for _, _, e in self.factors)

    @property
    def is_trivial(self) -> bool:
        """True exactly for the single factor y1 with exponent 1."""
        return self.factors == (("y", 1, 1),)

    def arities(self) -> tuple[int, int]:
        """Highest mentioned x index and y index, zero when absent."""
        lx = max((i for k, i, _ in self.factors if k == "x"), default=0)
        ly = max((i for k, i, _ in self.factors if k == "y"), default=0)
        return lx, ly


TRIVIAL_WORD = Word((("y", 1, 1),))


def canonicalize(raw: Iterable[Sequence]) -> Word:
    """Merge adjacent same-variable factors and drop vanished ones.

    A single left-to-right pass with a stack reaches the fixpoint: a merge
    that cancels to exponent zero pops the stack and exposes the previous
    factor to further merging.
    """
    out: list[list] = []
    for item in raw:
        kind, index, exp = item
        if kind not in ("x", "y"):
            raise ValueError(f"unknown variable family {kind!r}")
        if index < 1:
            raise ValueError("variable indices start at 1")
        if exp == 0:
            continue
        if out and out[-1][0] == kind and out[-1][1] == index:
            out[-1][2] += exp
            if out[-1][2] == 0:
                out.pop()
        else:
            out.append([kind, index, exp])
    return Word(tuple((k, i, e) for k, i, e in out))


@dataclass(frozen=True)
class GroupOps:
    """The group operations a word is evaluated through."""

    multiply: Callable
    inverse: Callable
    identity: object


def _power(base, exp: int, ops: GroupOps):
    step = base if exp >= 0 else ops.inverse(base)
    acc = ops.identity
    for _ in range(abs(exp)):
        acc = ops.multiply(acc, step)
    return acc


def evaluate(word: Word, xs: Sequence, ys: Sequence, ops: GroupOps):
    """Substitute xs for the x-slots and ys for the y-slots (1-indexed).
    The caller sizes xs and ys from word.arities()."""
    acc = ops.identity
    for kind, index, exp in word.factors:
        base = xs[index - 1] if kind == "x" else ys[index - 1]
        acc = ops.multiply(acc, _power(base, exp, ops))
    return acc


@dataclass(frozen=True)
class WordSeq:
    """An infinite word sequence given by index, with a declared variable
    budget bounding every mentioned slot index.

    trivial_from, when not None, declares that every word from that index
    on is the trivial word y1.  The truncations at every depth k at or past
    it then have the same rows, which is what lets the limit read its
    values off one table.  None declares nothing."""

    gen: Callable[[int], Word]
    var_budget: int
    trivial_from: Optional[int] = None


NuLike = Union[Callable[[int], int], Sequence[int]]


def nu_at(nu: NuLike, n: int) -> int:
    """Entry n of an exponent sequence; list inputs are zero beyond the end."""
    if callable(nu):
        return nu(n)
    return nu[n] if n < len(nu) else 0


def nu_words(nu: NuLike) -> WordSeq:
    """The one-parameter one-unknown family driven by an exponent sequence:
    entry 0 gives the trivial word y1, entry t >= 1 gives x1 y1^t.  Each
    distinct exponent makes one Word, which every later index reuses.

    A list is copied, and its words are declared trivial from its length
    on; a callable declares nothing, so a list that grows after the call
    is passed as a callable view of it."""
    trivial_from = None
    if not callable(nu):
        nu = tuple(nu)
        trivial_from = len(nu)
    words = {0: TRIVIAL_WORD}

    def gen(n: int) -> Word:
        t = nu_at(nu, n)
        word = words.get(t)
        if word is None:
            if t < 0:
                raise ValueError("exponent entries must be naturals")
            word = words[t] = Word((("x", 1, 1), ("y", 1, t)))
        return word

    return WordSeq(gen=gen, var_budget=1, trivial_from=trivial_from)


_SHOWN_LIMIT = 100


def shown(value) -> str:
    """repr(value) for an error line, cut to _SHOWN_LIMIT characters plus
    "..." when longer, so a huge rejected input gives a short line."""
    text = repr(value)
    return text if len(text) <= _SHOWN_LIMIT else text[:_SHOWN_LIMIT] + "..."


def naturals(values, what: str) -> list[int]:
    """Check that a loaded JSON value is a list of naturals and return a
    copy.  Booleans are rejected although Python counts them as ints."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a JSON list")
    for t in values:
        if isinstance(t, bool) or not isinstance(t, int) or t < 0:
            raise ValueError(f"{what} entries must be naturals, got {shown(t)}")
    return list(values)


def known_fields(obj: dict, fields: tuple[str, ...], what: str) -> None:
    """Reject a loaded JSON object with a field outside fields, so that a
    misspelled field is an error and not an absent one."""
    for key in obj:
        if key not in fields:
            names = " and ".join(f'"{f}"' for f in fields)
            raise ValueError(f"unknown field {shown(key)}; {what} holds {names}")


def nu_from_json(obj) -> list[int]:
    """Validate {"prefix": [t0, t1, ...], "tail": "zero"} and return the
    prefix, which nu_words reads as zero beyond its end.  "prefix" is
    required (KeyError when absent), "tail" may be left out, and any other
    field is a ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("an exponent sequence must be a JSON object")
    known_fields(obj, ("prefix", "tail"), "an exponent sequence")
    if obj.get("tail", "zero") != "zero":
        raise ValueError("only zero tails are supported")
    return naturals(obj["prefix"], "prefix")


def nu_to_json(prefix: Sequence[int]) -> dict:
    return {"prefix": list(prefix), "tail": "zero"}


def random_sparse_nu_prefix(
    rng,
    *,
    span: int = 20,
    max_positions: int = 4,
    max_exp: int = 3,
    length: int = 24,
) -> list[int]:
    """A random exponent prefix that stays easy to obey: a handful of nonzero
    entries inside the span, zeros elsewhere, and a zero tail beyond the
    prefix.  The zero stretches are what witness searches feed on."""
    if length <= span:
        raise ValueError("length must exceed span so the tail stretch exists")
    entries = [0] * length
    for p in rng.sample(range(span), rng.randint(1, max_positions)):
        entries[p] = rng.randint(1, max_exp)
    return entries
