"""The incremental scale builder against the clause-by-clause rule.

build_scale keeps running maxima and a heap of pending moved points;
_next_scale_entry recomputes every entry from every earlier term and every
earlier point.  Both are read entry by entry until count entries or the
first error, and must agree on the entries and on the error: its type, its
message and the entry that raised it.

Over the built-in sequence the scale is the closed form
j_n = (budget + 1) * n, checked against both the rule and the extension of
an undeclared copy of the sequence; each Scale lists only its own reads.
"""

import functools
import gc
import random
import tracemalloc
import weakref

import pytest
from hypothesis import assume, given, settings, strategies as st

from grpeq.load import null_sequence_from_json
from grpeq.perm import IDENTITY, NoBound, NullSequence, ShortPrefix
from grpeq.scale import _Extension, _next_scale_entry, build_scale, verify_scale
from grpeq.solver import LimitAutomorphism, verify_solution
from grpeq.words import nu_words

from build_perms import cycle, transposition
from test_perm_oracle import load_cauchy

ORACLE = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def read(entry, count):
    """Entries 0, 1, ... from entry(n, js) until count or the first error."""
    js = []
    try:
        for n in range(count):
            js.append(entry(n, js))
    except (IndexError, ValueError) as exc:
        return js, type(exc), str(exc)
    return js, None, None


def incremental(d, budget, count):
    s = build_scale(d, budget, 1)
    got = read(lambda n, js: s.value(n), count)
    assert s.materialized() == got[0]  # the view lists the entries it read
    return got


def reference(d, budget, count):
    return read(lambda n, js: _next_scale_entry(d, budget, js) if n else 0, count)


@functools.cache
def builtin_entries(budget):
    return reference(NullSequence.transpositions(), budget, 129)[0]


def cycles(width):
    """A random cycle on distinct points below width."""
    return st.lists(st.integers(0, width - 1), min_size=2, max_size=6, unique=True).map(
        cycle
    )


@pytest.mark.parametrize("budget", range(4))
def test_builtin_family_matches_reference(budget):
    d = NullSequence.transpositions()
    got = incremental(d, budget, 120)
    assert got == (builtin_entries(budget)[:120], None, None)
    # the same terms without the closed form: an extension from j_0
    assert incremental(NullSequence(d.perm, d.mover_bound), budget, 120) == got
    assert got[0] == build_scale(d, budget, 120).prefix(120)
    # a late read first, then an early one
    s = build_scale(d, budget, 1)
    assert (s.value(40), s.value(3)) == (got[0][40], got[0][3])
    assert s.prefix(120) == got[0]


@ORACLE
@given(
    terms=st.lists(cycles(60), min_size=1, max_size=25),
    slack=st.lists(st.sampled_from([0, 0, 1, 3, 40]), min_size=200, max_size=200),
    budget=st.integers(0, 3),
    extra=st.integers(0, 3),
)
def test_explicit_prefixes_match_reference(terms, slack, budget, extra):
    # every point below 200 gets a declared bound: one past its last mover,
    # raised by a drawn slack so the mover clause sometimes dominates
    last = {}
    for idx, p in enumerate(terms):
        for m in p.support():
            last[m] = idx + 1
    bounds = [[m, last.get(m, 0) + slack[m]] for m in range(200)]
    d = NullSequence.explicit(terms, bounds)
    # past len(terms) + 1 entries the prefix runs out
    count = len(terms) + 1 + extra
    assert incremental(d, budget, count) == reference(d, budget, count)


@ORACLE
@given(
    c=st.lists(cycles(80), min_size=2, max_size=40),
    budget=st.integers(0, 3),
)
def test_cauchy_prefixes_match_reference(c, budget):
    c = c[: len(c) // 2 * 2]
    assume(all(c[2 * n] != c[2 * n + 1] for n in range(len(c) // 2)))
    d = load_cauchy(c)
    count = len(c) // 2 + 3
    assert incremental(d, budget, count) == reference(d, budget, count)


def test_long_cycle_terms_match_the_rule_and_verify_scale():
    # a long cycle sends points below an entry far past it in both
    # directions, so entries are decided by images and by preimages
    rng = random.Random(31)
    terms = [cycle(rng.sample(range(1, 240), 200)), cycle(rng.sample(range(100, 400), 150)),
             transposition(0, 1)]
    d = load_cauchy([member for p in terms for member in (IDENTITY, p)])
    count = len(terms) + 1  # entry n + 1 fetches term n
    for budget in (0, 1, 5):
        got = incremental(d, budget, count + 1)
        assert got == reference(d, budget, count + 1)
        assert got[1] is ShortPrefix
        assert verify_scale(d, build_scale(d, budget, count), count)


def test_short_explicit_prefix_fails_at_the_same_entry():
    d = NullSequence.explicit([transposition(0, 1)], [[0, 1], [1, 1]])
    js, kind, message = incremental(d, 1, 5)
    assert (js, kind, message) == reference(d, 1, 5)
    assert js == [0, 2] and kind is ShortPrefix
    # a retried read raises the same error again
    s = build_scale(d, 1, 2)
    for _ in range(2):
        with pytest.raises(ShortPrefix, match="asked for 1"):
            s.value(2)
    # a read far ahead lists the entries computed before the failing one
    far = build_scale(d, 1, 1)
    with pytest.raises(ShortPrefix, match="asked for 1"):
        far.value(4)
    assert far.materialized() == [0, 2]


def test_undeclared_mover_bound_fails_at_the_same_entry():
    terms = [transposition(2 * n, 2 * n + 1) for n in range(10)]
    d = NullSequence.explicit(terms, [[0, 1], [1, 1]])
    js, kind, message = incremental(d, 1, 8)
    assert (js, kind, message) == reference(d, 1, 8)
    assert js == [0, 2, 4] and kind is NoBound and "point 2" in message
    s = build_scale(d, 1, 3)
    for _ in range(2):
        with pytest.raises(NoBound, match="point 2"):
            s.value(3)


@ORACLE
@given(
    c=st.lists(cycles(50), min_size=90, max_size=90),
    order=st.permutations(range(41)),
)
def test_out_of_order_reads_match_prefix(c, order):
    # 45 terms: entry 40 needs terms 0 .. 39
    assume(all(c[2 * n] != c[2 * n + 1] for n in range(45)))
    d = load_cauchy(c)
    s = build_scale(d, 1, 1)
    got = {n: s.value(n) for n in order}
    assert [got[n] for n in range(41)] == build_scale(d, 1, 41).prefix(41)


@ORACLE
@given(
    budget=st.integers(0, 7),
    counts=st.lists(st.integers(0, 128), min_size=1, max_size=4),
    reads=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 128)), max_size=30),
)
def test_builtin_views_match_the_rule_and_list_only_their_own_reads(budget, counts, reads):
    d = NullSequence.transpositions()
    want = builtin_entries(budget)
    assert want == [(budget + 1) * n for n in range(129)]
    views = [build_scale(d, budget, count) for count in counts]
    last = [max(count - 1, 0) for count in counts]  # the largest index each view read
    for v, n in reads:
        v %= len(views)
        assert views[v].value(n) == want[n]
        last[v] = max(last[v], n)
    for view, n in zip(views, last):
        assert view.materialized() == want[: n + 1]


@ORACLE
@given(
    budget=st.integers(0, 10**4),
    reads=st.lists(st.integers(0, 12), min_size=1, max_size=20),
)
def test_builtin_closed_form_matches_the_extension_of_an_undeclared_copy(budget, reads):
    d = NullSequence.transpositions()
    copy = NullSequence(d.perm, d.mover_bound)
    assert d.gap_decides and not copy.gap_decides
    s, ext = build_scale(d, budget, 1), _Extension(copy, budget)
    for n in reads:
        assert s.value(n) == ext(n)
    assert s.materialized() == ext.entries[: max(reads) + 1]


def test_builtin_terms_are_not_kept_and_a_view_copies_no_entries():
    # each built-in term is built on its read and dropped after it (kept,
    # 100 000 terms took about 35 MB); a view of the closed form keeps the
    # count of entries it listed, not the entries
    d = NullSequence.transpositions()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(100000):
            d.perm(n)
        terms = tracemalloc.get_traced_memory()[0] - before
        view = build_scale(d, 7, 1)
        assert view.value(10**6) == 8 * 10**6
        kept = tracemalloc.get_traced_memory()[0] - before - terms
    finally:
        tracemalloc.stop()
    assert terms < 2**20
    assert kept < 2**10


def test_a_loaded_sequence_is_freed_with_its_command():
    # nothing points back at a loaded sequence, so with the cycle collector
    # off it dies with its last reference
    c = [[[n, n + 1], [n + 1, n]] if k == 0 else [[n + 2, n + 3], [n + 3, n + 2]]
         for n in range(0, 40, 2) for k in range(2)]
    gc.disable()
    try:
        d = null_sequence_from_json({"kind": "cauchy", "c": c})
        s = build_scale(d, 1, 5)
        limit = LimitAutomorphism(d, nu_words([1, 0, 2]), s)
        assert verify_solution(limit, 2, 3) == []
        freed = weakref.ref(d)
        del d, s, limit
        assert freed() is None
    finally:
        gc.enable()
