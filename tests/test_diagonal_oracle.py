"""The linear diagonalization and audit against their per-round and
per-segment references.

diagonalize keeps one witness index over the live entry list for the whole
run; the reference below searches a fresh snapshot of the entries in every
round.  reverify checks every logged segment in one pass over the entries;
the reference rebuilds each segment with make_witness.
"""

import random
import sys
from itertools import islice

from hypothesis import given, settings, strategies as st

from grpeq.freegrp import (
    FreeElem,
    NuPrefix,
    ObeysSegment,
    SubBasis,
    ascending_generators,
    block,
    diagonalize,
    h_elements,
    reverify,
)
from grpeq.perm import NullSequence
from grpeq.scale import Scale, ShortScale, WordSums, build_scale, find_witness, make_witness
from grpeq.words import nu_words

D = NullSequence.transpositions()
ORACLE = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# two distinct, never-trivial driving sequences: every chain of H dies at
# the first block under the generators, while powers of z1 keep some alive
DRIVERS = {
    "ascending": ascending_generators(),
    "powers": lambda n: FreeElem.gen(1, n + 1),
}


def enumeration(basis, count):
    return list(islice(h_elements(SubBasis.first(basis)), count)).__getitem__


def reference_diagonalize(d, s, h, count):
    """Round by round, each witness searched on a fresh snapshot."""
    prefix = NuPrefix()
    for r in range(count):
        wit = find_witness(nu_words(list(prefix.entries)), s, r, r, sys.maxsize)
        j1 = s.value(wit.i1)
        if len(prefix.entries) < j1 + 1:
            prefix.entries.extend([0] * (j1 + 1 - len(prefix.entries)))
        prefix.log.append(ObeysSegment(r, r, wit.i0, wit.i1))
        prefix = block(h(r), prefix, d, target=r)
    return prefix


def outcome(run, *args):
    try:
        return run(*args).to_json()
    except ShortScale as exc:
        return str(exc)


def loaded_scale(budget, gaps):
    values = [0]
    for g in gaps:
        values.append(values[-1] + budget + 1 + g)
    return Scale.from_values(values, budget)


def drawn_gaps(seed, size):
    """size gap margins in 0..3, drawn from seed."""
    rng = random.Random(seed)
    return [rng.randint(0, 3) for _ in range(size)]


@ORACLE
@given(
    budget=st.integers(1, 3),
    basis=st.integers(1, 6),
    count=st.integers(0, 80),
    driver=st.sampled_from(sorted(DRIVERS)),
)
def test_diagonalize_matches_per_round_search_on_built_scales(budget, basis, count, driver):
    d, h = DRIVERS[driver], enumeration(basis, count)
    got = outcome(diagonalize, d, build_scale(D, budget, 1), h, count)
    want = outcome(reference_diagonalize, d, build_scale(D, budget, 1), h, count)
    assert got == want


@ORACLE
@given(
    budget=st.integers(1, 3),
    basis=st.integers(1, 6),
    count=st.integers(0, 80),
    driver=st.sampled_from(sorted(DRIVERS)),
    seed=st.integers(0, 2**32),
    size=st.integers(0, 500),
)
def test_diagonalize_matches_per_round_search_on_loaded_scales(
    budget, basis, count, driver, seed, size
):
    # irregular loaded scales, some too short: both must then stop at the
    # same index with the same message
    d, h = DRIVERS[driver], enumeration(basis, count)
    gaps = drawn_gaps(seed, size)
    got = outcome(diagonalize, d, loaded_scale(budget, gaps), h, count)
    want = outcome(reference_diagonalize, d, loaded_scale(budget, gaps), h, count)
    assert got == want


def per_segment_failures(prefix, s):
    """Every logged segment make_witness rejects, rebuilt one by one."""
    w = nu_words(list(prefix.entries))
    failures = []
    for seg in prefix.log:
        if isinstance(seg, ObeysSegment):
            try:
                make_witness(w, s, seg.n_star, seg.m_star, seg.i0, seg.i1)
            except (ValueError, IndexError):
                failures.append(seg.as_json())
    return failures


def audit_failures(prefix, s, d, count):
    report = reverify(prefix, d, s, enumeration(4, count), count)
    failures = report.get("witnessFailures", [])
    assert report["ok"] == (not failures and "survivor" not in report)
    return failures


# a corruption: (kind, which segment, which field or offset, amount)
CORRUPTIONS = st.tuples(
    st.sampled_from(["i0", "i1", "mStar", "nStar", "flip"]),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.integers(-3, 3),
)


def corrupt(prefix, s, kind, which, offset, amount):
    segments = [k for k, seg in enumerate(prefix.log) if isinstance(seg, ObeysSegment)]
    if not segments:
        return
    k = segments[which % len(segments)]
    seg = prefix.log[k]
    if kind == "flip":
        # a nonzero entry at either end of the segment's interval, just
        # outside it, or at a drawn index inside it; j(i0) >= 1 when i0 >= 1
        if not 0 < seg.i0 <= seg.i1:
            return
        lo, hi = s.value(seg.i0), s.value(seg.i1)
        x = [lo, hi, lo - 1, hi + 1, lo + offset % (hi - lo + 1)][offset % 5]
        if x >= len(prefix.entries):
            prefix.entries.extend([0] * (x + 1 - len(prefix.entries)))
        prefix.entries[x] = 1 + (offset % 3)
        return
    fields = seg.as_json()
    fields[kind] += amount
    prefix.log[k] = ObeysSegment(fields["nStar"], fields["mStar"], fields["i0"], fields["i1"])


@ORACLE
@given(
    budget=st.integers(1, 3),
    basis=st.integers(1, 6),
    count=st.integers(1, 40),
    driver=st.sampled_from(sorted(DRIVERS)),
    corruptions=st.lists(CORRUPTIONS, max_size=4),
    cut=st.one_of(st.none(), st.integers(1, 200)),
)
def test_one_pass_audit_matches_make_witness(budget, basis, count, driver, corruptions, cut):
    d = DRIVERS[driver]
    s = build_scale(D, budget, 1)
    prefix = diagonalize(d, s, enumeration(basis, count), count)
    for c in corruptions:
        corrupt(prefix, s, *c)
    if cut is not None:
        # a loaded copy of the scale that may end in the middle of the log
        s = Scale.from_values(s.prefix(cut), budget)
    assert audit_failures(prefix, s, d, count) == per_segment_failures(prefix, s)


@ORACLE
@given(
    entries=st.lists(st.sampled_from([0] * 8 + [1, 2, 5]), max_size=60),
    budget=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    size=st.integers(1, 150),
    segments=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(-2, 2), st.integers(-2, 2)),
        min_size=1,
        max_size=12,
    ),
)
def test_one_pass_audit_matches_make_witness_on_arbitrary_logs(entries, budget, seed, size, segments):
    # each segment is the least witness for its pair over these entries,
    # or (m* + 1, m* + 2) when there is none within the loaded scale,
    # with i0 and i1 moved by up to 2: the moves land on the boundaries
    # of every clause
    s = loaded_scale(budget, drawn_gaps(seed, size))
    w = nu_words(entries)
    log = []
    for n_star, m_star, a, b in segments:
        try:
            wit = find_witness(w, s, n_star, m_star, size)
        except ShortScale:
            wit = None
        i0, i1 = (m_star + 1, m_star + 2) if wit is None else (wit.i0, wit.i1)
        log.append(ObeysSegment(n_star, m_star, i0 + a, i1 + b))
    prefix = NuPrefix(list(entries), log)
    assert audit_failures(prefix, s, ascending_generators(), 0) == per_segment_failures(prefix, s)


def test_one_pass_audit_matches_make_witness_exhaustively_on_small_logs():
    # every segment with small fields over a single nonzero entry (or
    # none) near the start, so the clauses meet at each boundary: a nonzero
    # word at j(i0) or j(i1) exactly, j(i0) = n*, and sums that run past
    # the last entry; budget 0 gives j(i) = i, where j(i0) = n* = i0.
    # WordSums.holds, the audit's check, is also asked about each segment
    # directly; it has no budget clause, so budget 0 needs no WitnessIndex
    log = [
        ObeysSegment(n_star, m_star, i0, i1)
        for n_star in range(-1, 5)
        for m_star in range(-1, 3)
        for i0 in range(-1, 8)
        for i1 in range(-1, 24)
    ]
    for budget in (0, 1):
        s = build_scale(D, budget, 1)
        for entries in [[]] + [[0] * p + [t] for p in range(12) for t in (1, 3)]:
            prefix = NuPrefix(entries, log)
            failures = per_segment_failures(prefix, s)
            assert 0 < len(failures) < len(log)
            assert audit_failures(prefix, s, ascending_generators(), 0) == failures
            sums = WordSums(prefix.word_seq(), s)
            assert [seg.as_json() for seg in log if not sums.holds(seg)] == failures


def test_one_pass_audit_on_the_golden_log():
    # count 3 lays (0, 0, 1, 5), (1, 1, 6, 21), (2, 2, 6, 20) around the
    # entry 2 at index 11; each tampered copy fails as make_witness says
    s = build_scale(D, 1, 1)
    h = enumeration(4, 3)
    good = diagonalize(ascending_generators(), s, h, 3)
    assert audit_failures(good, s, ascending_generators(), 3) == []
    for seg, bad in [
        (ObeysSegment(0, 0, 1, 4), True),  # gap too short for words 0..2
        (ObeysSegment(0, 0, 2, 5), True),  # words 0..4 too long for gap 3
        (ObeysSegment(0, 0, 6, 5), True),  # i0 past i1
        (ObeysSegment(1, 1, 5, 21), True),  # [j(5), j(21)] holds index 11
        (ObeysSegment(1, 1, 6, 22), False),  # a wider interval still holds
        (ObeysSegment(0, 1, 1, 5), True),  # m* not below i0
    ]:
        tampered = NuPrefix(list(good.entries), [seg])
        want = [seg.as_json()] if bad else []
        assert per_segment_failures(tampered, s) == want
        assert audit_failures(tampered, s, ascending_generators(), 0) == want
