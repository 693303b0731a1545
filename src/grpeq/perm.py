"""Finitely supported permutations of the naturals and their convergence metric.

Everything here is exact. Permutations are finite mappings, the metric is a
dyadic rational, and null sequences carry an explicit mover bound so that
"every later term fixes m" is checkable rather than merely semi-decidable.
Reading a sequence from its JSON form, a Cauchy prefix's quotients among
them, is grpeq.load's part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence, Union

from .words import shown

if TYPE_CHECKING:
    from fractions import Fraction


class NotNull(ValueError):
    """A sequence meant to converge to the identity contains the identity,
    or a Cauchy prefix leaves its last term without a partner."""


class NoBound(ValueError):
    """No mover bound is available, or a declared bound fails on the prefix."""


class ShortPrefix(IndexError):
    """A term was asked for past the end of a finite driving prefix."""


def _checked_moves(pairs: Iterable[Sequence[int]]) -> dict[int, int]:
    """The moves of the map given by (point, image) pairs, fixed points
    dropped: the one validation rule behind Perm and grpeq.load's pair
    lists.

    Checks come in a fixed order: a duplicate point anywhere, then a point
    that is not a natural (booleans, floats and strings included), then a
    map that is not a permutation of its support.  A pair that is not a
    list or tuple of two values fails at once.  Every failure is a
    ValueError.
    """
    moves: dict[int, int] = {}
    bad = fixed = False
    for pair in pairs:
        try:
            p, q = pair
        except (TypeError, ValueError):  # not iterable, or not two values
            raise ValueError(f"not a [point, image] pair: {shown(pair)}") from None
        if type(p) is not int or type(q) is not int or p < 0 or q < 0:
            if not isinstance(pair, (list, tuple)):  # "ab" or {"a": 0, "b": 1}
                raise ValueError(f"not a [point, image] pair: {shown(pair)}")
            if isinstance(p, (list, dict)):  # unhashable, so no duplicate check
                raise ValueError("points must be naturals")
            bad = True  # reported once every pair is checked for duplicates
        if p in moves:
            raise ValueError(f"duplicate point {p}")
        moves[p] = q
        fixed = fixed or p == q
    if bad:
        raise ValueError("points must be naturals")
    if fixed:
        moves = {p: q for p, q in moves.items() if p != q}
    if moves.keys() != set(moves.values()):
        raise ValueError("mapping is not a permutation of its support")
    return moves


class Perm:
    """A permutation of the naturals moving only finitely many points.

    One map holds the moves, and fixed points are never stored, so two
    values are equal exactly when they are equal as functions.  Instances
    are immutable and hashable.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: Optional[dict[int, int]] = None):
        object.__setattr__(self, "_map", _checked_moves(mapping.items()) if mapping else {})

    @classmethod
    def _trusted(cls, moves: dict[int, int]) -> "Perm":
        """A Perm on moves, which must already be a permutation of its
        support with no fixed points; nothing is revalidated."""
        p = object.__new__(cls)
        object.__setattr__(p, "_map", moves)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    def apply(self, m: int) -> int:
        return self._map.get(m, m)

    def inverse_apply(self, m: int) -> int:
        """The point before m on its cycle, found by walking the cycle: no
        inverse map is kept."""
        moves = self._map
        prev, nxt = m, moves.get(m, m)
        while nxt != m:
            prev, nxt = nxt, moves[nxt]
        return prev

    def images(self, points: Sequence[int]) -> list[int]:
        """[self.apply(m) for m in points], in one pass at C speed."""
        return list(map(self._map.get, points, points))

    def inverse(self) -> "Perm":
        return Perm._trusted({v: k for k, v in self._map.items()})

    @property
    def is_identity(self) -> bool:
        return not self._map

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._map))

    def cycles(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        out = []
        for start in sorted(self._map):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self._map[start]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self._map[nxt]
            out.append(tuple(cyc))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        if not self._map:
            return "e"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in self.cycles())


IDENTITY = Perm()


def compose(f: Perm, g: Perm) -> Perm:
    """The permutation m -> f(g(m)), so the right factor acts first."""
    # a composition of permutations is a permutation: nothing to revalidate
    return Perm._trusted(_product(f._map, g._map))


def _product(fm: dict[int, int], gm: dict[int, int]) -> dict[int, int]:
    """The moves of m -> fm(gm(m)), for the moves of two permutations."""
    moves = {}
    for m in fm.keys() | gm.keys():
        x = gm.get(m, m)
        y = fm.get(x, x)
        if y != m:
            moves[m] = y
    return moves


def metric(f: Perm, g: Perm) -> Fraction:
    """Distance 2**(-n) where n is the least disagreement point of the two
    permutations or of their inverses, and 0 when they are equal.

    Values are exact dyadic rationals, so the ultrametric inequality and the
    identity-of-indiscernibles law can be asserted with equality.  fractions
    is imported here, on the first call: no command needs it, and it pulls
    in decimal, about 0.4 MiB in every process that imports grpeq.
    """
    from fractions import Fraction

    candidates = set(f._map) | set(g._map)
    disagree = [
        m
        for m in candidates
        if f.apply(m) != g.apply(m) or f.inverse_apply(m) != g.inverse_apply(m)
    ]
    if not disagree:
        return Fraction(0)
    return Fraction(1, 2 ** min(disagree))


class NullSequence:
    """A sequence of non-identity permutations converging to the identity.

    Convergence is certified by a mover bound K: for every point m and every
    index k >= K(m), the k-th term fixes m.  The bound makes membership
    checks finite.  Sequences may be infinite (generated) or finite prefixes
    loaded from data.

    gap_decides declares that the budget gap decides every step of a scale
    over the sequence, so its scale is j_n = (budget + 1) * n (see
    scale.build_scale).  Only transpositions() sets it; a copy such as
    NullSequence(d.perm, d.mover_bound) declares nothing.
    """

    gap_decides = False

    def __init__(
        self,
        gen: Callable[[int], Perm],
        mover_bound: Callable[[int], int],
        length: Optional[int] = None,
    ):
        self._gen = gen
        self._mover_bound = mover_bound
        self.length = length

    def perm(self, n: int) -> Perm:
        if n < 0:
            raise IndexError("negative index")
        if self.length is not None and n >= self.length:
            raise ShortPrefix(f"null sequence prefix has {self.length} terms, asked for {n}")
        return self._gen(n)

    def mover_bound(self, m: int) -> int:
        return self._mover_bound(m)

    @classmethod
    def transpositions(cls) -> "NullSequence":
        """The built-in family: term n swaps 2n and 2n+1.  It keeps no
        terms: a term is built on each read.

        Term k moves only {2k, 2k+1}, so every k >= m//2 + 1 fixes m.  A
        term is a transposition by construction (perm() rejects n < 0), so
        it is built trusted, as compose builds its products.

        The sequence declares gap_decides: every term sends a point m < j_n
        to at most m + 1 <= j_n, and its mover bound m//2 + 1 is at most
        j_n, so both lie below the gap j_n + budget + 1, the next entry.
        """

        def term(n: int) -> Perm:
            return Perm._trusted({2 * n: 2 * n + 1, 2 * n + 1: 2 * n})

        d = cls(gen=term, mover_bound=lambda m: m // 2 + 1, length=None)
        d.gap_decides = True
        return d

    @classmethod
    def explicit(
        cls,
        perms: Sequence[Perm],
        mover_bounds: Union[dict[int, int], Iterable[Sequence[int]]],
    ) -> "NullSequence":
        """A finite prefix with a declared mover bound, given as a dict from
        points to bounds or as (m, K) pairs of naturals.

        The declared bound is validated against the prefix: for each listed
        (m, K), every term from K on must fix m.  Points without a listed
        bound raise NoBound when queried.
        """
        terms = list(perms)
        for i, p in enumerate(terms):
            if p.is_identity:
                raise NotNull(f"term {i} is the identity")
        bounds = dict(mover_bounds)
        # one pass over the supports finds the points whose bound fails; a
        # scan from the bound names the first failing term, only on error
        failing = {m for i, p in enumerate(terms) for m in p._map if bounds.get(m, i + 1) <= i}
        for m, k in bounds.items():
            if m in failing:
                idx = next(idx for idx in range(k, len(terms)) if terms[idx].apply(m) != m)
                raise NoBound(f"declared bound {k} for point {m} fails at term {idx}")

        def lookup(m: int) -> int:
            if m in bounds:
                return bounds[m]
            raise NoBound(f"no mover bound declared for point {m}")

        return cls(gen=lambda n: terms[n], mover_bound=lookup, length=len(terms))


@dataclass(frozen=True)
class Structure:
    """A decidable automorphism test over the naturals.

    check_window validates an arbitrary pointwise-given map on an initial
    segment, which is what lazily evaluated limits can offer.
    """

    name: str
    check_window: Callable[[Callable[[int], int], int], bool]


def _matching_check_window(apply_fn: Callable[[int], int], window: int) -> bool:
    for t in range(window // 2):
        a, b = 2 * t, 2 * t + 1
        if apply_fn(b) != apply_fn(a) ^ 1:
            return False
    return True


TRIVIAL_STRUCTURE = Structure(
    name="trivial",
    check_window=lambda apply_fn, window: True,
)

MATCHING_STRUCTURE = Structure(
    name="matching",
    check_window=_matching_check_window,
)

