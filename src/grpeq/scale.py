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
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

from .perm import NullSequence
from .words import WordSeq


class NotObeying(Exception):
    """No witness exists below the search bound for some target pair."""

    def __init__(self, n_star: int, m_star: int, detail: str = ""):
        self.n_star = n_star
        self.m_star = m_star
        super().__init__(f"no witness for pair ({n_star}, {m_star}){detail}")


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
class ObeysSegment:
    """A certificate that zeros stretch far enough for the pair (n*, m*),
    and its entry in a diagonalization log.

    The interval of scale values [j(i0), j(i1)] carries only trivial words,
    and the words between n* and j(i0) are jointly shorter than i1 - i0.
    """

    n_star: int
    m_star: int
    i0: int
    i1: int

    def as_json(self) -> dict:
        return {"kind": "obeys", "nStar": self.n_star, "mStar": self.m_star,
                "i0": self.i0, "i1": self.i1}


def make_witness(w: WordSeq, s: Scale, n_star: int, m_star: int, i0: int, i1: int) -> ObeysSegment:
    """Build and validate a witness for the given indices, raising ValueError
    when any clause fails and ShortScale when a loaded scale ends before
    j(i1).  Every clause is recomputed directly from the words, sharing
    nothing with WordSums, so rechecks and tests use it as the independent
    oracle for the search and the audit."""
    if not (0 <= m_star < i0):
        raise ValueError("need m_star < i0")
    if not (0 <= n_star < i1):
        raise ValueError("need n_star < i1")
    if not i0 < i1:
        raise ValueError("need i0 < i1")
    for t in range(s.value(i0), s.value(i1) + 1):
        if not w.gen(t).is_trivial:
            raise ValueError(f"word at {t} is not trivial")
    # the length of words n*..j(i0), word by word; none when j(i0) < n*
    total = sum(w.gen(i).length() for i in range(n_star, s.value(i0) + 1))
    if i1 < max(i0 + total + 1, n_star + 1):
        raise ValueError(f"words {n_star}..{s.value(i0)} are too long for gap {i1 - i0}")
    return ObeysSegment(n_star, m_star, i0, i1)


def check_witness(w: WordSeq, s: Scale, wit: ObeysSegment) -> bool:
    """Independent recheck of every clause of an existing witness."""
    try:
        make_witness(w, s, wit.n_star, wit.m_star, wit.i0, wit.i1)
    except (ValueError, IndexError):
        return False
    return True


class WordSums:
    """The witness clauses over one word sequence and scale, checked
    against two tables of the words, read once in index order.

    lens[x] is the total length of words 0..x-1, so the length sum for
    (n*, i0) is lens[j(i0)+1] - lens[n*]; one bisect in the sorted list of
    nontrivial indices read tells whether an interval holds only trivial
    words.  The search (WitnessIndex) and the audit (holds) share these
    tables and the two checks least_i1 and all_trivial.  Words from
    w.trivial_from on are never read: each is y1, of length 1, so a check
    costs the same whether j(i1) lies just past that index or far beyond.
    """

    def __init__(self, w: WordSeq, s: Scale):
        self.w = w
        self.s = s
        self._lens = [0]
        self._nontrivial: list[int] = []
        self._unread = 0  # the first word not read, sys.maxsize once the tail is reached

    @property
    def frontier(self) -> int:
        """The last word index read, -1 before any read.  The words past it
        may still change without making an answer stale."""
        return len(self._lens) - 2

    def _read_through(self, x: int) -> None:
        """Read the words up to index x, or up to w.trivial_from, into lens
        and the nontrivial list.  A word that is the same object as the one
        before it (a run of zeros under nu_words) reuses its length and
        triviality."""
        lens, nontrivial, gen = self._lens, self._nontrivial, self.w.gen
        tail = self.w.trivial_from
        if tail is not None:
            x = min(x, tail - 1)
        total = lens[-1]
        last = length = trivial = None
        for i in range(len(lens) - 1, x + 1):
            word = gen(i)
            if word is not last:
                last, length, trivial = word, word.length(), word.is_trivial
            total += length
            lens.append(total)
            if not trivial:
                nontrivial.append(i)
        self._unread = len(lens) - 1 if tail is None or x < tail - 1 else sys.maxsize

    def least_i1(self, n_star: int, i0: int, j0: int) -> int:
        """The least i1 that the order and length clauses allow for
        (n*, i0), where j0 = j(i0): the larger of n* + 1 and i0 + 1 plus
        the total length of words n*..j0 (none when j0 < n*)."""
        if j0 < n_star:
            return max(i0 + 1, n_star + 1)
        if j0 >= self._unread:  # past the frontier
            self._read_through(j0)
        lens = self._lens
        if j0 + 1 < len(lens):
            return max(i0 + lens[j0 + 1] - lens[n_star] + 1, n_star + 1)
        tail = len(lens) - 1  # j0 lies in the tail, whose words have length 1
        total = j0 + 1 - n_star if n_star >= tail else lens[tail] - lens[n_star] + j0 + 1 - tail
        return max(i0 + total + 1, n_star + 1)

    def all_trivial(self, j0: int, j1: int) -> bool:
        """Whether the words j0..j1 are all trivial: the first nontrivial
        index at or after j0 lies past j1.  No index from w.trivial_from on
        is nontrivial."""
        if j1 >= self._unread:
            self._read_through(j1)
        nontrivial = self._nontrivial
        k = bisect_left(nontrivial, j0)
        return k == len(nontrivial) or nontrivial[k] > j1

    def holds(self, seg: ObeysSegment) -> bool:
        """Whether seg passes every clause make_witness checks.  Once the
        order clauses pass it reads j(i0) and j(i1), so a loaded scale that
        ends before j(i1) raises ShortScale, as make_witness does."""
        n_star, i0, i1 = seg.n_star, seg.i0, seg.i1
        if not (0 <= seg.m_star < i0 and 0 <= n_star < i1 and i0 < i1):
            return False
        j0 = self.s.value(i0)
        return self.all_trivial(j0, self.s.value(i1)) and i1 >= self.least_i1(n_star, i0, j0)


class WitnessIndex(WordSums):
    """Least witnesses over one word sequence and scale, with the work
    shared between queries.  ends(n*, first, last) answers the pairs of row
    n* from m* = first - 1 to last - 1 with one scan; find(n*, m*) is that
    scan for one pair, and find_witness describes the search.  Unlike a
    bare WordSums, it refuses words that mention more slots than the
    scale's budget allows.

    Whether a candidate i0 passes, fails or stops the search depends on n*
    and i0 but not on m*: the pair (n*, m*) answers with the first i0 at or
    after its start m* + 1 that passes or stops.  So a row's scan checks
    the candidates in order, each once, and hands the end it reaches, the
    i0 and its least i1, to every start it walked.  Each row keeps these
    ends for every start resolved so far; a scan that reaches a resolved
    start takes its end and checks nothing again, so a repeated query reads
    no new entry.  A certificate's row is one scan from i0 = 1 (see
    obeys_certificate): it checks the candidates in the order, and reads
    the scale and the words in the order, that one query per pair in
    row-major order would, so a short driving prefix or a loaded scale
    raises at the same entry with the same message.  Its ends stay in the
    row, so the limit's later find calls on those pairs read no new entry.
    A walk that raises records nothing, so a repeated query reads the same
    entries and raises the same error.  ends builds no object per pair.
    """

    def __init__(self, w: WordSeq, s: Scale, search_bound: int):
        if w.var_budget > s.budget:
            raise ValueError("word budget exceeds the scale budget")
        super().__init__(w, s)
        self.search_bound = search_bound
        self._rows: dict[int, dict[int, tuple[int, int]]] = {}

    def find(self, n_star: int, m_star: int) -> Optional[ObeysSegment]:
        """The lexicographically least witness pair (i0, i1) for (n*, m*)
        with i1 within the search bound, or None."""
        ends = self.ends(n_star, m_star + 1, m_star + 1)
        return ObeysSegment(n_star, m_star, *ends[0]) if ends else None

    def ends(self, n_star: int, first: int, last: int) -> list[tuple[int, int]]:
        """The least witness (i0, i1) within the search bound of each pair
        (n*, m*) with first <= m* + 1 <= last, in order of m*, ending before
        the first pair that has none."""
        s, bound = self.s, self.search_bound
        least_i1, all_trivial = self.least_i1, self.all_trivial
        row = self._rows.setdefault(n_star, {})
        out: list[tuple[int, int]] = []
        start = first
        while start <= last:
            i0 = start
            end = row.get(i0)
            while end is None:
                if i0 > bound:  # only at a start: the candidate i0 = bound stops
                    return out
                j0 = s.value(i0)
                i1 = least_i1(n_star, i0, j0)
                if i1 <= bound and not all_trivial(j0, s.value(i1)):  # i0 fails
                    i0 += 1
                    end = row.get(i0)
                    continue
                end = row[i0] = (i0, i1)  # a witness, or the stop when i1 > bound
            for walked in range(start, i0):  # the other starts this walk resolved
                row[walked] = end
            i0, i1 = end
            if i1 > bound:
                return out
            # every start from this one to i0 ends at (i0, i1)
            out += [end] * (min(i0, last) - start + 1)
            start = i0 + 1
        return out


def find_witness(
    w: WordSeq,
    s: Scale,
    n_star: int,
    m_star: int,
    search_bound: int,
) -> Optional[ObeysSegment]:
    """The lexicographically least witness pair (i0, i1) with i1 bounded by
    search_bound, or None, as one query on a fresh WitnessIndex; callers
    with many queries over the same words keep one index instead.

    For a fixed i0 the order and length-sum clauses pin the least
    admissible i1: the larger of n* + 1 and i0 + 1 plus the total length of
    words n*..j(i0) (none when j(i0) < n*).  A larger i1 only widens the
    triviality interval, so when the least i1 fails triviality no i1 works
    for that i0 and the search advances i0.  The least i1 does not decrease
    as i0 grows, so once it passes the bound the search ends.  Each i0 reads
    j(i0), then j(i1) when i1 is within the bound, so a loaded finite scale
    runs out at the same index as a clause-by-clause loop.  Both clauses
    are lookups in tables read once (see WordSums), so an i0 costs no
    rescan of the words; an index shares them, and each row's scan,
    between queries (see WitnessIndex).  When the words are trivial from
    some index on, the search ends without the bound: once j(i0) reaches
    that index the triviality clause passes, so a bound of sys.maxsize is
    never reached.
    """
    return WitnessIndex(w, s, search_bound).find(n_star, m_star)


def obeys_certificate(index: WitnessIndex, up_to: int) -> list[list[tuple[int, int]]]:
    """For each row n* < up_to, the least witness (i0, i1) of every pair
    (n*, m*) with m* < up_to, in order of m*: one scan per row, with no
    object per pair (see WitnessIndex).  Raises NotObeying at the first
    pair, in row-major order, without a witness."""
    rows = []
    for n_star in range(up_to):
        ends = index.ends(n_star, 1, up_to)
        if len(ends) < up_to:
            raise NotObeying(n_star, len(ends))
        rows.append(ends)
    return rows
