"""Finite approximants and lazy limits for forward-referencing equation
systems over finitely supported permutations.

The system assigns row n the equation b_n = w_n(d_{n+1}, b_{n+1}), so
the unknown on the right has a higher row index.  Truncating at k
(rows beyond k become the identity) makes each table finite; an obeys
witness turns truncation into stabilization: past the bound derived from the
witness, raising k stops changing the watched values, so the limit can be
read off a single finite table.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

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
    """Solve the truncation at k.  Row n substitutes the parameter term
    d_{n+1} and the already-solved row n+1; rows beyond k are the
    identity.  A trivial word's row is the row above it, shared rather
    than recomposed, so the rows above the last nontrivial word cost
    nothing."""
    rows: list[Perm] = [IDENTITY] * (k + 2)  # rows[k + 1] is the identity
    for n in range(k, -1, -1):
        t = w.gen(n)
        rows[n] = evaluate(t, d.perm(n + 1), rows[n + 1], PERM_OPS) if t else rows[n + 1]
    return ApproxTable(k, rows)


def stabilization_bound(wit: ObeysSegment, s: Scale) -> int:
    """The truncation depth past which the witnessed point stops moving:
    the scale value one step beyond the witness interval."""
    return s.value(wit.i1 + 1)


class LimitAutomorphism:
    """Access to the limit rows b*_n, a point or a row at a time.

    The least witness of a pair (n, m) in self.index gives its
    stabilization bound s.value(i1 + 1); table(k).row(n) at that depth
    holds the limit's value at m.  When the words declare a trivial tail
    (w.trivial_from), a bound past it is read at trivial_from instead:
    every truncation from there on has the same rows, so the reads share
    one table per effective depth.  table(k) itself stays the real
    truncation at k.

    apply(n, m) and inverse_apply(n, m) read one point and keep nothing.
    row(n, count) reads the images of 0..count-1 off one scan of the
    index's row n and one table row per distinct depth, and keeps the
    row, so a later read of it (the equation check's) costs nothing.  A
    caller that certifies pairs first through
    obeys_certificate(limit.index, ...) leaves each row's scan in the
    index, so a read on a certified pair reads its witness off the row
    with no new scale read.  The memos are optimizations only: cached and
    recomputed answers must coincide.
    """

    def __init__(self, d: NullSequence, w: WordSeq, s: Scale, search_bound: int = 128):
        self.d = d
        self.w = w
        self.s = s
        self.index = WitnessIndex(w, s, search_bound)
        self._tables: dict[int, ApproxTable] = {}
        self._rows: dict[int, list[int]] = {}  # n -> images of 0, 1, ... under row n

    def witness(self, n: int, m: int) -> ObeysSegment:
        wit = self.index.find(n, m)
        if wit is None:
            raise WitnessNotFound(n, m)
        return wit

    def table(self, k: int) -> ApproxTable:
        if k not in self._tables:
            self._tables[k] = approx(self.d, self.w, k)
        return self._tables[k]

    def _depth(self, i1: int) -> int:
        """The depth a pair with witness end i1 is read at: its
        stabilization bound, capped at the trivial tail."""
        k = self.s.value(i1 + 1)
        tail = self.w.trivial_from
        return k if tail is None else min(k, tail)

    def _row_at(self, n: int, m: int) -> Perm:
        """The table row that holds b*_n at m."""
        return self.table(self._depth(self.witness(n, m).i1)).row(n)

    def apply(self, n: int, m: int) -> int:
        return self._row_at(n, m).apply(m)

    def inverse_apply(self, n: int, m: int) -> int:
        return self._row_at(n, m).inverse_apply(m)

    def row(self, n: int, count: int) -> list[int]:
        """[apply(n, m) for m in range(count)], raising what that raises.

        The least witnesses' i1 do not decrease with m, so the pairs of
        one i1 form a run, and each run reads one bound and one table row,
        in the order apply would.  The row ends in WitnessNotFound at the
        first pair the index leaves without a witness.  A scan of the index
        that raises is repeated point by point, so that an earlier pair's
        failing table read raises first, as under apply.  The returned list
        is the kept one: do not change it."""
        images = self._rows.get(n)
        if images is None or len(images) < count:
            try:
                ends = self.index.ends(n, 1, count)
            except (ValueError, IndexError):
                for m in range(count):
                    self.apply(n, m)
                raise
            images = []
            for i1, run in groupby(ends, itemgetter(1)):
                points = range(len(images), len(images) + len(list(run)))
                images += self.table(self._depth(i1)).row(n).images(points)
            if len(ends) < count:
                raise WitnessNotFound(n, len(ends))
            self._rows[n] = images
        return images if len(images) == count else images[:count]


def _equation_row(limit: LimitAutomorphism, n: int, m_window: int) -> list[int]:
    """Row n's right side x1 y1^t at each point of the window, with
    x1 = d_{n+1} and y1 = the limit row n+1: each point is chased t times
    (once for the trivial word y1) through row n+1, then through d_{n+1}
    when t > 0.  Row n+1 is read on the window by limit.row; a point the
    chase takes to m_window or beyond is read through limit.apply."""
    t = limit.w.gen(n)
    ahead = limit.row(n + 1, m_window)
    if not t:
        return ahead
    d, want = limit.d.perm(n + 1), []
    for x in ahead:  # each chase's first step
        for _ in range(t - 1):
            x = ahead[x] if x < m_window else limit.apply(n + 1, x)
        want.append(d.apply(x))
    return want


def verify_solution(limit: LimitAutomorphism, n_window: int, m_window: int) -> list[dict]:
    """Compare each limit row on the window, read by limit.row, with its
    defining equation chased through row n+1 (see _equation_row).
    Returns the discrepancy list in row-major order, empty when the
    window checks out.

    It reads row n, then row n+1, then the points the chase takes out of
    the window.  On a fresh limit a read error may thus name another pair
    than one apply per point would.  A solve reads the certificate and the
    window's rows first, as cli does; the check then reads those rows back
    and raises what per-point reads in the chase's order raise, which
    tests/test_solver_oracle.py checks against such a chase."""
    problems: list[dict] = []
    if not m_window:  # no point to read, so nothing is read
        return problems
    for n in range(n_window):
        got = limit.row(n, m_window)
        want = _equation_row(limit, n, m_window)
        if got != want:
            problems += [{"n": n, "m": m, "limit": g, "equation": e}
                         for m, (g, e) in enumerate(zip(got, want)) if g != e]
    return problems


def closure_check(limit: LimitAutomorphism, structure: Structure, window: int) -> bool:
    """Each limit row passes the structure's window test, which reads the
    row through limit.row on its first point read."""
    for n in range(window):
        if not structure.check_window(lambda m: limit.row(n, window)[m], window):
            return False
    return True
