"""Growth scales over a null sequence, and witnesses that a word sequence
leaves room for stabilization.

A scale is a strictly increasing sequence of naturals j_0 = 0 < j_1 < ...
where each step is the least value that (a) bounds the images of all earlier
points under all earlier terms and their inverses, (b) dominates the mover
bound of all earlier points, and (c) clears a configured budget gap.  The
minimality of each step is what verify_scale rechecks.

build_scale extends incrementally.  A point m < j_n that a term fixes only
asks for m + 1 <= j_n, which clause (c) already exceeds, so only moved
points count: each moved point m of term idx raises the bound to
max(p(m), p^-1(m)) + 1 once, at the first entry where idx <= n and m < j_n,
and stays in force because n and j_n only grow.  Clause (b) is a running
maximum over the points j_n has passed.  Each entry therefore costs its new
term's support and the points it newly passes, not every earlier term times
every earlier point.  _next_scale_entry keeps the direct clause-by-clause
rule as the oracle verify_scale recomputes with.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional

from .perm import NullSequence
from .words import WordSeq


class NotObeying(Exception):
    """No witness exists below the search bound for some target pair."""

    def __init__(self, n_star: int, m_star: int):
        self.n_star = n_star
        self.m_star = m_star
        super().__init__(f"no witness for pair ({n_star}, {m_star})")


class ShortScale(IndexError):
    """An entry was asked for past the end of a loaded finite scale."""


class Scale:
    """A materialized scale prefix, optionally backed by an extender that
    returns the next entry each time it is called.  Reads are pure:
    extending the memo never changes previously returned values."""

    def __init__(
        self,
        values: list[int],
        budget: int,
        extend: Optional[Callable[[], int]] = None,
    ):
        self._values = list(values)
        self.budget = budget
        self._extend = extend

    def value(self, n: int) -> int:
        if n < 0:
            raise IndexError("negative scale index")
        while n >= len(self._values):
            if self._extend is None:
                raise ShortScale(
                    f"scale has {len(self._values)} loaded entries, asked for index {n}"
                )
            self._values.append(self._extend())
        return self._values[n]

    def prefix(self, count: int) -> list[int]:
        return [self.value(n) for n in range(count)]

    def materialized(self) -> list[int]:
        return list(self._values)

    @classmethod
    def from_values(cls, values, budget: int, validate: bool = True) -> "Scale":
        values = list(values)
        if validate:
            if not values or values[0] != 0:
                raise ValueError("a scale starts at 0")
            for a, b in zip(values, values[1:]):
                if b - a <= budget:
                    raise ValueError(f"gap {a} -> {b} does not clear budget {budget}")
        return cls(values, budget)


def _next_scale_entry(d: NullSequence, budget: int, js: list[int]) -> int:
    """The least admissible next entry after the prefix js.

    Admissibility is a conjunction of lower bounds, so the minimum is their
    maximum: the budget gap, strict bounds on where earlier terms send
    earlier points (both directions), and the mover bounds of earlier points.
    """
    jn = js[-1]
    n = len(js) - 1
    bound = jn + budget + 1
    for idx in range(n + 1):
        p = d.perm(idx)
        for m in range(jn):
            img = p.apply(m)
            pre = p.inverse_apply(m)
            if img + 1 > bound:
                bound = img + 1
            if pre + 1 > bound:
                bound = pre + 1
    for m in range(jn):
        k = d.mover_bound(m)
        if k > bound:
            bound = k
    return bound


class _Extension:
    """The rule of _next_scale_entry, kept as running state.

    Each call returns the entry after the last one it returned, starting
    from j_0 = 0.  Entry n+1 first fetches term n, so a short driving prefix
    fails at the same entry as the direct rule; then it folds in the mover
    bounds of the points below j_n not yet seen; then it releases from the
    pending heap every moved point of a fetched term that j_n has passed.
    A call that raises leaves the state consistent, so a retried read
    raises the same error.
    """

    def __init__(self, d: NullSequence, budget: int):
        self._d = d
        self._budget = budget
        self._last = 0  # j_n
        self._terms = 0  # terms 0 .. _terms - 1 are fetched
        self._reach = 0  # max(p(m), p^-1(m)) + 1 over released moved points
        self._bounded = 0  # mover bounds of points below this are in _mover
        self._mover = 0
        self._pending: list[tuple[int, int]] = []  # (moved point, its reach)

    def __call__(self) -> int:
        jn = self._last
        p = self._d.perm(self._terms)
        while self._bounded < jn:
            self._mover = max(self._mover, self._d.mover_bound(self._bounded))
            self._bounded += 1
        self._terms += 1
        for m in p.support():
            heapq.heappush(self._pending, (m, max(p.apply(m), p.inverse_apply(m)) + 1))
        while self._pending and self._pending[0][0] < jn:
            self._reach = max(self._reach, heapq.heappop(self._pending)[1])
        self._last = max(jn + self._budget + 1, self._reach, self._mover)
        return self._last


def build_scale(d: NullSequence, budget: int, count: int) -> Scale:
    """Build the scale over d with the given budget, materializing count
    entries.  Later entries are computed lazily on demand.

    Entries come from _Extension: fixed points never raise the bound (a
    fixed m < j_n gives m + 1 <= j_n), so each moved point enters once,
    when both its term and j_n have passed it, and the mover-bound clause
    is a prefix maximum.  verify_scale rechecks against the direct rule.
    """
    if budget < 0:
        raise ValueError("budget must be a natural")
    scale = Scale([0], budget, extend=_Extension(d, budget))
    scale.prefix(count)
    return scale


def verify_scale(d: NullSequence, s: Scale, up_to: int) -> bool:
    """Recheck the first up_to entries clause by clause, including that each
    step is the least admissible value, by recomputation from d."""
    if up_to <= 0:
        return True
    if s.value(0) != 0:
        return False
    js = [0]
    for n in range(1, up_to):
        expected = _next_scale_entry(d, s.budget, js)
        if s.value(n) != expected:
            return False
        js.append(expected)
    return True


@dataclass(frozen=True)
class ObeysWitness:
    """A certificate that zeros stretch far enough for the pair (n*, m*).

    The interval of scale values [j(i0), j(i1)] carries only trivial words,
    and the words between n* and j(i0) are jointly shorter than i1 - i0.
    cum_lengths[p] is the total length of words n*, ..., n*+p-1, so it runs
    from 0 at p = 0 up to index j(i0) - n*.
    """

    n_star: int
    m_star: int
    i0: int
    i1: int
    cum_lengths: tuple[int, ...]

    def as_json(self) -> dict:
        return {
            "nStar": self.n_star,
            "mStar": self.m_star,
            "i0": self.i0,
            "i1": self.i1,
        }


def _least_i1(w: WordSeq, s: Scale, n_star: int, i0: int, cum: list[int]) -> int:
    """The least i1 that the order and length-sum clauses admit for i0.

    cum holds the cumulative lengths of words n*, n*+1, ... and is extended
    in place up to index j(i0) - n*, so a search that raises i0 reuses the
    sums it already has.  When j(i0) < n* no word lies between them and the
    sum is empty, which keeps the result nondecreasing in i0.
    """
    j0 = s.value(i0)
    if j0 < n_star:
        return max(i0 + 1, n_star + 1)
    for i in range(n_star + len(cum) - 1, j0):
        cum.append(cum[-1] + w.gen(i).length())
    return max(i0 + cum[-1] + w.gen(j0).length() + 1, n_star + 1)


def _first_nontrivial(w: WordSeq, s: Scale, i0: int, i1: int) -> Optional[int]:
    """The first index in [j(i0), j(i1)] whose word is not trivial, or None."""
    for t in range(s.value(i0), s.value(i1) + 1):
        if not w.gen(t).is_trivial:
            return t
    return None


def make_witness(w: WordSeq, s: Scale, n_star: int, m_star: int, i0: int, i1: int) -> ObeysWitness:
    """Build and validate a witness for the given indices, raising ValueError
    when any clause fails.  Used by rechecks; find_witness applies the same
    clauses."""
    if not (0 <= m_star < i0):
        raise ValueError("need m_star < i0")
    if not (0 <= n_star < i1):
        raise ValueError("need n_star < i1")
    if not i0 < i1:
        raise ValueError("need i0 < i1")
    t = _first_nontrivial(w, s, i0, i1)
    if t is not None:
        raise ValueError(f"word at {t} is not trivial")
    cum = [0]
    if i1 < _least_i1(w, s, n_star, i0, cum):
        raise ValueError(f"words {n_star}..{s.value(i0)} are too long for gap {i1 - i0}")
    return ObeysWitness(n_star, m_star, i0, i1, tuple(cum))


def check_witness(w: WordSeq, s: Scale, wit: ObeysWitness) -> bool:
    """Independent recheck of every clause of an existing witness."""
    try:
        rebuilt = make_witness(w, s, wit.n_star, wit.m_star, wit.i0, wit.i1)
    except (ValueError, IndexError):
        return False
    return rebuilt.cum_lengths == wit.cum_lengths


def find_witness(
    w: WordSeq,
    s: Scale,
    n_star: int,
    m_star: int,
    search_bound: int,
) -> Optional[ObeysWitness]:
    """The lexicographically least witness pair (i0, i1) with i1 bounded by
    search_bound, or None.

    For a fixed i0 the length-sum clause pins the least admissible i1; a
    larger i1 only widens the triviality interval, so when the least i1
    fails triviality no i1 works for that i0 and the search advances i0.
    The least i1 does not decrease as i0 grows, so once it passes the bound
    the search ends.  For the same reason, once the least i1 fails at a
    nontrivial index t, every larger i0 with j(i0) <= t fails at t too: its
    least i1 is no smaller, so [j(i0), j(least i1)] still holds t.  The
    search passes those i0 without rescanning the words; it still reads
    j(i0) and j(i1) for each, exactly as the scan would, so a finite loaded
    scale runs out at the same index with or without the shortcut.
    When the words are trivial from some index on (nu_words over a list),
    the search ends without the bound: once j(i0) reaches that index the
    triviality clause passes, so a bound of sys.maxsize is never reached.
    """
    if w.var_budget > s.budget:
        raise ValueError("word budget exceeds the scale budget")
    cum = [0]
    t = -1  # the last nontrivial index a scan found
    for i0 in range(m_star + 1, search_bound + 1):
        i1 = _least_i1(w, s, n_star, i0, cum)
        if i1 > search_bound:
            break
        if s.value(i0) <= t <= s.value(i1):
            continue
        t = _first_nontrivial(w, s, i0, i1)
        if t is None:
            return ObeysWitness(n_star, m_star, i0, i1, tuple(cum))
    return None


def obeys_certificate(
    w: WordSeq,
    s: Scale,
    up_to: int,
    search_bound: int,
) -> list[ObeysWitness]:
    """Witnesses for every pair below up_to, in row-major pair order.
    Raises NotObeying at the first pair without a witness."""
    out = []
    for n_star in range(up_to):
        for m_star in range(up_to):
            wit = find_witness(w, s, n_star, m_star, search_bound)
            if wit is None:
                raise NotObeying(n_star, m_star)
            out.append(wit)
    return out
