"""Finitely supported permutations of the naturals and their convergence metric.

Everything here is exact. Permutations are finite mappings, the metric is a
dyadic rational, and null sequences carry an explicit mover bound so that
"every later term fixes m" is checkable rather than merely semi-decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .words import shown


class NotNull(ValueError):
    """A sequence meant to converge to the identity contains the identity,
    or a Cauchy prefix leaves its last term without a partner."""


class NoBound(ValueError):
    """No mover bound is available, or a declared bound fails on the prefix."""


class ShortPrefix(IndexError):
    """A term was asked for past the end of a finite driving prefix."""


def _checked_moves(pairs: Iterable[Sequence[int]]) -> dict[int, int]:
    """The moves of the map given by (point, image) pairs, fixed points
    dropped: the one validation rule behind Perm and Perm.from_pairs.

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

    Fixed points are never stored, so two values are equal exactly when they
    are equal as functions.  Instances are immutable and hashable.
    """

    __slots__ = ("_map", "_inv")

    def __init__(self, mapping: Optional[dict[int, int]] = None):
        moves = _checked_moves(mapping.items()) if mapping else {}
        object.__setattr__(self, "_map", moves)
        object.__setattr__(self, "_inv", {v: k for k, v in moves.items()})

    @classmethod
    def _trusted(cls, moves: dict[int, int]) -> "Perm":
        """A Perm on moves, which must already be a permutation of its
        support with no fixed points; nothing is revalidated."""
        p = object.__new__(cls)
        object.__setattr__(p, "_map", moves)
        object.__setattr__(p, "_inv", {v: k for k, v in moves.items()})
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @classmethod
    def transposition(cls, a: int, b: int) -> "Perm":
        if a == b:
            raise ValueError("transposition needs two distinct points")
        return cls({a: b, b: a})

    @classmethod
    def from_cycle(cls, points: Sequence[int]) -> "Perm":
        if len(set(points)) != len(points):
            raise ValueError("cycle points must be distinct")
        if len(points) < 2:
            return cls()
        mapping = {points[i]: points[(i + 1) % len(points)] for i in range(len(points))}
        return cls(mapping)

    def apply(self, m: int) -> int:
        return self._map.get(m, m)

    def inverse_apply(self, m: int) -> int:
        return self._inv.get(m, m)

    def inverse(self) -> "Perm":
        inv = Perm()
        object.__setattr__(inv, "_map", dict(self._inv))
        object.__setattr__(inv, "_inv", dict(self._map))
        return inv

    def __mul__(self, other: "Perm") -> "Perm":
        return compose(self, other)

    @property
    def is_identity(self) -> bool:
        return not self._map

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._map))

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[int]]) -> "Perm":
        return cls._trusted(_checked_moves(pairs))

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
    fm, gm = f._map, g._map
    moves = {}
    for m in fm.keys() | gm.keys():
        x = gm.get(m, m)
        y = fm.get(x, x)
        if y != m:
            moves[m] = y
    # a composition of permutations is a permutation: nothing to revalidate
    return Perm._trusted(moves)


def metric(f: Perm, g: Perm) -> Fraction:
    """Distance 2**(-n) where n is the least disagreement point of the two
    permutations or of their inverses, and 0 when they are equal.

    Values are exact dyadic rationals, so the ultrametric inequality and the
    identity-of-indiscernibles law can be asserted with equality.
    """
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
    """

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
        """The built-in family: term n swaps 2n and 2n+1.

        Term k moves only {2k, 2k+1}, so every k >= m//2 + 1 fixes m.  A
        term is a transposition by construction (perm() rejects n < 0), so
        it is built trusted, as compose builds its products.
        """
        return cls(
            gen=lambda n: Perm._trusted({2 * n: 2 * n + 1, 2 * n + 1: 2 * n}),
            mover_bound=lambda m: m // 2 + 1,
            length=None,
        )

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
        for m, k in bounds.items():
            for idx in range(k, len(terms)):
                if terms[idx].apply(m) != m:
                    raise NoBound(f"declared bound {k} for point {m} fails at term {idx}")

        def lookup(m: int) -> int:
            if m in bounds:
                return bounds[m]
            raise NoBound(f"no mover bound declared for point {m}")

        return cls(gen=lambda n: terms[n], mover_bound=lookup, length=len(terms))


def cauchy_to_null(c: Sequence[Perm]) -> NullSequence:
    """Turn a Cauchy sequence prefix into a null sequence of quotients.

    Term n is inverse(c[2n]) composed with c[2n+1].  Consecutive pair members
    must differ, otherwise some quotient is the identity and the result
    cannot converge to the identity through non-identity terms.

    Term n moves m exactly when c[2n](m) != c[2n+1](m), and only points
    that a member of the pair moves can differ.  So one pass over each
    pair's moved points gives the mover bound of every point (one past the
    last pair that moves it, 0 when no pair does) and the collapse check,
    without composing anything.  Term n is built the first time it is
    fetched and kept for later fetches.
    """
    return _quotients([p._map for p in c])


def _quotients(c: list[dict[int, int]]) -> NullSequence:
    """cauchy_to_null on the moves of the members of c."""
    if len(c) % 2:
        raise NotNull(f"cauchy prefix has odd length {len(c)}: c[{len(c) - 1}] has no partner")
    count = len(c) // 2
    bounds: dict[int, int] = {}
    for n in range(count):
        a, b = c[2 * n], c[2 * n + 1]
        moved = False
        for m in a.keys() | b.keys():
            if a.get(m, m) != b.get(m, m):
                bounds[m] = n + 1
                moved = True
        if not moved:
            raise NotNull(f"pair {n} collapses: c[{2 * n}] equals c[{2 * n + 1}]")
    terms: list[Optional[Perm]] = [None] * count

    def quotient(n: int) -> Perm:
        d = terms[n]
        if d is None:
            a, b = Perm._trusted(c[2 * n]), Perm._trusted(c[2 * n + 1])
            d = terms[n] = compose(a.inverse(), b)
        return d

    return NullSequence(
        gen=quotient,
        mover_bound=lambda m: bounds.get(m, 0),
        length=count,
    )


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


def structure_by_name(name: str) -> Structure:
    if name == "trivial":
        return TRIVIAL_STRUCTURE
    if name == "matching":
        return MATCHING_STRUCTURE
    raise ValueError(f"unknown structure {name!r}")
