"""Finite approximants and lazy limits for forward-referencing equation
systems over finitely supported permutations.

The system assigns row n the equation b_n = w_n(d_{n+1}, ...; b_{n+1}, ...),
where every unknown on the right has a higher row index.  Truncating at k
(rows beyond k become the identity) makes each table finite; an obeys
witness turns truncation into stabilization: past the bound derived from the
witness, raising k stops changing the watched values, so the limit can be
read off a single finite table.
"""

from __future__ import annotations

from .perm import IDENTITY, NullSequence, Perm, Structure, compose
from .scale import ObeysSegment, Scale, WitnessIndex
from .words import GroupOps, WordSeq, evaluate

PERM_OPS = GroupOps(
    multiply=compose,
    inverse=lambda p: p.inverse(),
    identity=IDENTITY,
)


class WitnessNotFound(Exception):
    """No stabilization witness below the search bound for a queried point."""

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        super().__init__(f"no witness for point (n={n}, m={m}) within the search bound")


class ApproxTable:
    """Rows 0..k of the truncated system, solved by downward substitution."""

    def __init__(self, k: int, rows: list[Perm]):
        self.k = k
        self._rows = rows

    def row(self, n: int) -> Perm:
        if n < 0:
            raise IndexError("negative row")
        return self._rows[n] if n <= self.k else IDENTITY


def approx(d: NullSequence, w: WordSeq, k: int) -> ApproxTable:
    """Solve the truncation at k.  Row n substitutes the parameter terms
    d_{n+1}, d_{n+2}, ... and the already-solved rows n+1, n+2, ...; rows
    beyond k are the identity.  A trivial word's row is the row above it,
    shared rather than recomposed, so the rows above the last nontrivial
    word cost nothing."""
    rows: list[Perm] = [IDENTITY] * (k + 1)
    for n in range(k, -1, -1):
        word = w.gen(n)
        if word.is_trivial:
            # y1 evaluates to its argument, so the row is the one above it
            if n < k:
                rows[n] = rows[n + 1]
            continue
        lx, ly = word.arities()
        xs = [d.perm(n + i) for i in range(1, lx + 1)]
        ys = [rows[n + i] if n + i <= k else IDENTITY for i in range(1, ly + 1)]
        rows[n] = evaluate(word, xs, ys, PERM_OPS)
    return ApproxTable(k, rows)


def stabilization_bound(wit: ObeysSegment, s: Scale) -> int:
    """The truncation depth past which the witnessed point stops moving:
    the scale value one step beyond the witness interval."""
    return s.value(wit.i1 + 1)


class LimitAutomorphism:
    """Pointwise access to the limit rows b*_n.

    A query (n, m) takes the least witness for the pair from self.index,
    reads the image and preimage off the table at the witness's
    stabilization bound, and memoizes both.  When the words declare a
    trivial tail (w.trivial_from), a bound past it is read at trivial_from
    instead: every truncation from there on has the same rows, so the
    queries share one table per effective depth.  table(k) itself stays
    the real truncation at k.  The index reads each word once and keeps
    each row's scan; a caller that certifies pairs first through
    obeys_certificate(limit.index, ...) leaves each row's scan in the index,
    so a query on a certified pair reads its witness off the row with no
    new scale read.  The memos are optimizations only: cached and
    recomputed answers must coincide.
    """

    def __init__(self, d: NullSequence, w: WordSeq, s: Scale, search_bound: int = 128):
        self.d = d
        self.w = w
        self.s = s
        self.index = WitnessIndex(w, s, search_bound)
        self._tables: dict[int, ApproxTable] = {}
        # (n, m) -> (image, preimage) of m under row n
        self._points: dict[tuple[int, int], tuple[int, int]] = {}

    def witness(self, n: int, m: int) -> ObeysSegment:
        wit = self.index.find(n, m)
        if wit is None:
            raise WitnessNotFound(n, m)
        return wit

    def table(self, k: int) -> ApproxTable:
        if k not in self._tables:
            self._tables[k] = approx(self.d, self.w, k)
        return self._tables[k]

    def _point(self, n: int, m: int) -> tuple[int, int]:
        key = (n, m)
        if key not in self._points:
            k = stabilization_bound(self.witness(n, m), self.s)
            if self.w.trivial_from is not None:
                k = min(k, self.w.trivial_from)
            row = self.table(k).row(n)
            self._points[key] = (row.apply(m), row.inverse_apply(m))
        return self._points[key]

    def apply(self, n: int, m: int) -> int:
        return self._point(n, m)[0]

    def inverse_apply(self, n: int, m: int) -> int:
        return self._point(n, m)[1]


def _apply_word_pointwise(limit: LimitAutomorphism, n: int, m: int) -> int:
    """Evaluate row n's right side at the point m, chasing each unit letter
    through either a concrete parameter term or a lazy limit row."""
    current = m
    for kind, index, exp in reversed(limit.w.gen(n).factors):
        for _ in range(abs(exp)):
            if kind == "x":
                p = limit.d.perm(n + index)
                current = p.apply(current) if exp > 0 else p.inverse_apply(current)
            else:
                row = n + index
                current = (
                    limit.apply(row, current)
                    if exp > 0
                    else limit.inverse_apply(row, current)
                )
    return current


def verify_solution(limit: LimitAutomorphism, n_window: int, m_window: int) -> list[dict]:
    """Compare every limit value on the window against the pointwise
    evaluation of its defining equation.  Returns the discrepancy list,
    empty when the window checks out."""
    problems = []
    for n in range(n_window):
        for m in range(m_window):
            got = limit.apply(n, m)
            want = _apply_word_pointwise(limit, n, m)
            if got != want:
                problems.append({"n": n, "m": m, "limit": got, "equation": want})
    return problems


def closure_check(limit: LimitAutomorphism, structure: Structure, window: int) -> bool:
    """Each limit row, read pointwise on the window, passes the structure's
    window test."""
    for n in range(window):
        if not structure.check_window(lambda m: limit.apply(n, m), window):
            return False
    return True
