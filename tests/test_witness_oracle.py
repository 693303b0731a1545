"""The one witness search against a brute-force oracle.

find_witness serves both sides: the permutation side's certificates and
the intervals diagonalize lays down.  The oracle tries every pair (i0, i1)
through make_witness in lexicographic order, with no shortcut.
"""

import itertools
import tracemalloc

from hypothesis import example, given, settings, strategies as st

from grpeq.freegrp import ObeysSegment, SubBasis, ascending_generators, diagonalize, enumerate_h
from grpeq.perm import NullSequence
from grpeq.scale import (
    Scale,
    ShortScale,
    WordSums,
    build_scale,
    check_witness,
    find_witness,
    make_witness,
)
from grpeq.words import WordSeq, nu_words

D = NullSequence.transpositions()
ASC = ascending_generators()
SEARCH = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def least_pair(w, s, n_star, m_star, bound):
    """The lexicographically least (i0, i1) with i1 <= bound that
    make_witness accepts, or None."""
    for i0 in range(bound + 1):
        for i1 in range(bound + 1):
            try:
                make_witness(w, s, n_star, m_star, i0, i1)
            except ValueError:
                continue
            return i0, i1
    return None


def found_pair(w, s, n_star, m_star, bound):
    wit = find_witness(w, s, n_star, m_star, bound)
    return None if wit is None else (wit.i0, wit.i1)


def plain_search(w, s, n_star, m_star, bound):
    """find_witness without its shortcuts: every i0 in turn, its least i1
    from a direct length sum, stopping once that passes the bound.  Reads
    j(i0) and then j(i1), as the scan in find_witness does."""
    for i0 in range(m_star + 1, bound + 1):
        j0 = s.value(i0)
        total = sum(1 + w.gen(t) for t in range(n_star, j0 + 1))
        i1 = max(i0 + total + 1, n_star + 1)
        if i1 > bound:
            return None
        j1 = s.value(i1)
        if all(w.gen(t) == 0 for t in range(j0, j1 + 1)):
            return i0, i1
    return None


def outcome(search, *args):
    try:
        return search(*args)
    except ShortScale as exc:
        return str(exc)


def enumeration(basis):
    sub = SubBasis.first(basis)
    return lambda r: enumerate_h(sub, r)


@SEARCH
@given(
    entries=st.lists(st.sampled_from([0, 0, 0, 1, 2, 3]), max_size=30),
    budget=st.integers(1, 3),
    gaps=st.lists(st.integers(0, 3), min_size=30, max_size=30),
    n_star=st.integers(0, 6),
    m_star=st.integers(0, 6),
)
def test_find_witness_is_least_pair(entries, budget, gaps, n_star, m_star):
    # an irregular scale: every gap clears the budget by a drawn margin
    values = [0]
    for g in gaps:
        values.append(values[-1] + budget + 1 + g)
    s = Scale.from_values(values, budget)
    w = nu_words(entries)
    bound = len(values) - 1
    assert found_pair(w, s, n_star, m_star, bound) == least_pair(w, s, n_star, m_star, bound)


@SEARCH
@given(
    entries=st.lists(st.sampled_from([0, 0, 0, 1, 2, 9]), max_size=30),
    budget=st.integers(1, 3),
    gaps=st.lists(st.integers(0, 3), min_size=1, max_size=30),
    overshoot=st.integers(-3, 3),
    n_star=st.integers(0, 6),
    m_star=st.integers(0, 6),
)
# scale [0, 2, 5, 8, 11], bound 7: i0 = 1 finds word 5 nontrivial, and the
# shortcut passes i0 = 2 (j(2) = 5); its least i1 is 7, past the five loaded
# entries, and the plain loop reads j(7) there, so the search must too
@example(
    entries=[1, 0, 0, 0, 0, 1, 0], budget=1, gaps=[0, 1, 1, 1], overshoot=3, n_star=3, m_star=0
)
def test_find_witness_on_loaded_scale_ending_near_the_bound(
    entries, budget, gaps, overshoot, n_star, m_star
):
    # the bound sits a few indices either side of the last loaded entry, so
    # some searches run out of scale: both must run out at the same index
    values = [0]
    for g in gaps:
        values.append(values[-1] + budget + 1 + g)
    s = Scale.from_values(values, budget)
    w = nu_words(entries)
    bound = len(values) - 1 + overshoot
    assert outcome(found_pair, w, s, n_star, m_star, bound) == outcome(
        plain_search, w, s, n_star, m_star, bound
    )


@SEARCH
@given(
    count=st.integers(1, 8),
    basis=st.integers(1, 4),
    cut=st.integers(0, 200),
    n_star=st.integers(0, 8),
    m_star=st.integers(0, 8),
)
def test_find_witness_is_least_pair_on_diagonal_prefixes(count, basis, cut, n_star, m_star):
    s = build_scale(D, 1, 1)
    entries = diagonalize(ASC, s, enumeration(basis), count).entries
    w = nu_words(entries[: cut % (len(entries) + 1)])
    assert found_pair(w, s, n_star, m_star, 40) == least_pair(w, s, n_star, m_star, 40)


def test_diagonalize_logs_least_pairs():
    for budget, basis, count in [(1, 4, 8), (1, 1, 6), (2, 2, 6), (3, 6, 5)]:
        s = build_scale(D, budget, 1)
        log = diagonalize(ASC, s, enumeration(basis), count).log
        segments = [seg for seg in log if isinstance(seg, ObeysSegment)]
        assert len(segments) == count
        for r, seg in enumerate(segments):
            # round r searches the entries that the first r rounds left
            before = diagonalize(ASC, s, enumeration(basis), r).entries
            want = least_pair(nu_words(before), s, r, r, 80)
            assert want is not None
            assert (seg.n_star, seg.m_star, seg.i0, seg.i1) == (r, r) + want


def audited(w, s, seg):
    """The audit's verdict on one segment: a scale that ends before j(i1)
    fails it."""
    try:
        return WordSums(w, s).holds(seg)
    except ShortScale:
        return False


def spread(entries, runs):
    """entries with a zero run after each nonzero one, its length taken
    from runs in turn: the long zero stretches that diagonalize lays down;
    entries as they are when runs is empty."""
    out, lengths = [], itertools.cycle(runs)
    for t in entries:
        out.append(t)
        if t and runs:
            out += [0] * next(lengths)
    return out


@SEARCH
@given(
    entries=st.lists(st.sampled_from([0, 0, 0, 1, 2]), max_size=30),
    runs=st.just([]) | st.lists(st.integers(100, 10_000), min_size=1, max_size=3),
    declared=st.booleans(),
    budget=st.integers(0, 3),
    n_star=st.integers(0, 12) | st.integers(0, 12_000),
    m_star=st.integers(0, 12),
    i0=st.integers(0, 14) | st.integers(0, 5_000),
    gap=st.integers(0, 40) | st.integers(0, 12_000),
    loaded=st.booleans(),
)
@example(entries=[0] * 9 + [1], runs=[], declared=True, budget=1, n_star=0, m_star=0, i0=1,
         gap=8, loaded=False)
@example(entries=[0] * 9 + [1], runs=[], declared=True, budget=1, n_star=0, m_star=0, i0=1,
         gap=3, loaded=False)
@example(entries=[0] * 9 + [1], runs=[], declared=True, budget=0, n_star=0, m_star=0, i0=3,
         gap=4, loaded=False)
@example(entries=[], runs=[], declared=True, budget=1, n_star=0, m_star=0, i0=1, gap=30,
         loaded=True)
# words 1 and 10 002 are nonzero, a zero run between them: at j(i0) = 2 a
# gap of 4 just covers the words 0..2 (length 4), and 3 does not
@example(entries=[0, 1, 1], runs=[10_000], declared=False, budget=1, n_star=0, m_star=0,
         i0=1, gap=4, loaded=False)
@example(entries=[0, 1, 1], runs=[10_000], declared=False, budget=1, n_star=0, m_star=0,
         i0=1, gap=3, loaded=False)
# j(i1) = 10 002 reaches the second nonzero word; a gap one shorter passes
@example(entries=[0, 1, 1], runs=[10_000], declared=True, budget=1, n_star=0, m_star=0,
         i0=1, gap=4999, loaded=False)
@example(entries=[0, 1, 1], runs=[10_000], declared=True, budget=1, n_star=0, m_star=0,
         i0=1, gap=4998, loaded=False)
def test_audit_verdict_matches_make_witness(
    entries, runs, declared, budget, n_star, m_star, i0, gap, loaded
):
    # the audit's verdict is make_witness's on the built-in scale and on a
    # loaded one, a loaded scale that ends before j(i1) included, over
    # declared lists and bare callables with no trivial tail
    s = build_scale(D, budget, 30)
    if loaded:
        s = Scale.from_values(s.prefix(30), budget)
    w = nu_words(spread(entries, runs))
    if not declared:
        w = WordSeq(gen=w.gen)
    seg = ObeysSegment(n_star, m_star, i0, i0 + 1 + gap)
    assert audited(w, s, seg) == check_witness(w, s, seg)


def test_a_zero_stretch_keeps_no_table():
    # one nonzero word, then 10^6 zero words read: the table grows only at
    # nonzero words, so it stays far below the 8 MiB a list entry per word
    # read would take
    sums = WordSums(WordSeq(gen=lambda n: 0 if n else 3), build_scale(D, 1, 1))
    tracemalloc.start()
    try:
        assert sums.holds(ObeysSegment(0, 0, 1, 500_000))  # j(i1) = 10^6
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums.frontier == 10**6
    assert peak < 2**20, f"{peak / 2**20:.1f} MiB"


def test_audit_decides_far_segments_on_the_builtin_scale():
    # a logged i1 far past the last nontrivial word fails when j(i1) reaches
    # that word and passes when no word past j(i0) is nontrivial; the closed
    # form reads j(10**31) with one multiplication, and a loaded scale
    # still fails what it cannot reach
    w = nu_words([0] * 9 + [1])
    for budget in range(4):
        s = build_scale(D, budget, 1)
        assert not audited(w, s, ObeysSegment(0, 0, 1, 10**31))
        assert audited(w, s, ObeysSegment(0, 0, 10, 10**31))  # j(10) >= 10 is past word 9
        assert audited(nu_words([]), s, ObeysSegment(0, 0, 1, 10**31))
        loaded = Scale.from_values(s.prefix(12), budget)
        assert not audited(nu_words([]), loaded, ObeysSegment(0, 0, 1, 10**31))
