"""The solve path's fast paths against slow references kept here.

approx shares a trivial word's row with the row above it instead of
evaluating the word; the reference chases every row's unit letters on a
window of points, with neither approx nor evaluate.  WitnessIndex
answers every pair from one table of the nonzero words, shared across
queries, and checks each candidate of a row once, in place; the
references are a fresh index per pair, the least pair make_witness
accepts, and a scan through methods over a per-word length table that
must read the scale and the words in the same order, raise the same
errors and leave the same frontier.  The limit rows are checked
against their equations and against exact downward substitution, over
explicit and Cauchy driving sequences as well as the built-in one.  The
limit reads a list prefix's values at depth at most trivial_from; the
reference is approx at the witness's own stabilization bound.  A limit
row read at once is checked against one apply per point, the equation
check against a chase of one apply per letter, and the depth hint's scan
of the window's last column against the whole window's certificate.
"""

import random
import sys
from bisect import bisect_left
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from grpeq.cli import _sufficient_depth
from grpeq.perm import IDENTITY, NoBound, NullSequence, Perm, ShortPrefix, compose
from grpeq.scale import (
    NotObeying,
    ObeysSegment,
    Scale,
    ShortScale,
    WitnessIndex,
    build_scale,
    check_witness,
    find_witness,
    make_witness,
    obeys_certificate,
)
import grpeq.solver as solver
from grpeq.solver import (
    LimitAutomorphism,
    WitnessNotFound,
    approx,
    stabilization_bound,
    verify_solution,
)
from grpeq.words import WordSeq, nu_at, nu_words, random_sparse_nu_prefix

from test_perm_oracle import load_cauchy

ORACLE = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def reference_rows(d, w, k, points):
    """Rows 0..k of the truncation at k on the given points, each chased
    unit letter by unit letter: for x1 y1^t row n sends m through row n+1
    t times and then d_{n+1}; for the trivial word y1, through row n+1
    once; row k+1 is the identity.  The rows are filled from k down, so a
    short driving prefix raises at the same term as approx."""
    images = [{} for _ in range(k + 1)]

    def row(n, m):
        if n > k:
            return m
        if m not in images[n]:
            t = w.gen(n)
            image = m
            for _ in range(max(t, 1)):
                image = row(n + 1, image)
            images[n][m] = d.perm(n + 1).apply(image) if t else image
        return images[n][m]

    return [[row(n, m) for m in points] for n in range(k, -1, -1)][::-1]


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (NotObeying, WitnessNotFound, IndexError, ValueError) as exc:
        return type(exc), str(exc)


def near_cycle(n, points, rng):
    """A cycle on distinct points near 2n, so the terms tend to the identity."""
    lo = max(0, 2 * n - 2)
    return Perm.from_cycle(rng.sample(range(lo, lo + 6), points))


def explicit_sequence(seed, terms):
    """terms cycles near 2n with a declared mover bound for every point
    below 4 * terms: one past the point's last mover plus a small slack."""
    rng = random.Random(seed)
    perms = [near_cycle(n, rng.choice((2, 3)), rng) for n in range(terms)]
    last = {}
    for idx, p in enumerate(perms):
        for m in p.support():
            last[m] = idx + 1
    bounds = [[m, last.get(m, 0) + rng.choice((0, 0, 1, 3))] for m in range(4 * terms)]
    return NullSequence.explicit(perms, bounds)


def cauchy_sequence(seed, terms):
    """A Cauchy prefix whose quotients c[2n]^-1 c[2n+1] are cycles near 2n."""
    rng = random.Random(seed)
    c = []
    for n in range(terms):
        base = near_cycle(n, 2, rng)
        c += [base, compose(base, near_cycle(n, rng.choice((2, 3)), rng))]
    return load_cauchy(c)


def driving_sequence(kind, seed, terms=200):
    if kind == "builtin":
        return NullSequence.transpositions()
    if kind == "explicit":
        return explicit_sequence(seed, terms)
    return cauchy_sequence(seed, terms)


KINDS = st.sampled_from(["builtin", "explicit", "cauchy"])
POINTS = range(100)
EXPONENTS = st.lists(st.sampled_from([0, 0, 0, 1, 2, 3]), max_size=24)


@ORACLE
@given(kind=KINDS, seed=st.integers(0, 10**6), entries=EXPONENTS, k=st.integers(0, 40),
       periodic=st.booleans())
def test_approx_rows_match_evaluating_every_row(kind, seed, entries, k, periodic):
    d = driving_sequence(kind, seed, terms=30)
    if periodic and entries:
        # a callable exponent sequence: the entries repeated forever
        w = nu_words(lambda n: entries[n % len(entries)])
    else:
        w = nu_words(entries)
    # a truncation past the 30 explicit or Cauchy terms must fail alike
    got = outcome(lambda: approx(d, w, k))
    want = outcome(reference_rows, d, w, k, POINTS)
    if isinstance(want, tuple):
        assert got == want
        assert want[0] is ShortPrefix
    else:
        # every row moves only points of the window, so the window is the row
        assert all(max(got.row(n).support(), default=0) < len(POINTS) for n in range(k + 1))
        assert [[got.row(n).apply(m) for m in POINTS] for n in range(k + 1)] == want
        assert got.row(k + 1) == got.row(k + 2) == IDENTITY


def least_pair(w, s, n_star, m_star, bound):
    """The witness make_witness accepts at the lexicographically least
    (i0, i1) with i1 <= bound, or None."""
    for i0 in range(bound + 1):
        for i1 in range(bound + 1):
            try:
                return make_witness(w, s, n_star, m_star, i0, i1)
            except ValueError:
                continue
    return None


class CountingScale:
    """A scale that logs the indices read from it.  A candidate (n*, i0)
    reads j(i0), then j(i1) unless it stops the search (i1 past the bound),
    so a search that checks c candidates, none of them a stop, reads 2c."""

    def __init__(self, s):
        self.s = s
        self.budget = s.budget
        self.reads = []

    def value(self, n):
        self.reads.append(n)
        return self.s.value(n)


def irregular_scale(budget, gaps):
    values = [0]
    for g in gaps:
        values.append(values[-1] + budget + 1 + g)
    return Scale.from_values(values, budget)


@ORACLE
@given(
    entries=st.lists(st.sampled_from([0, 0, 0, 1, 2, 3]), max_size=30),
    budget=st.integers(1, 3),
    gaps=st.lists(st.integers(0, 3), min_size=30, max_size=30),
    bound=st.integers(1, 30),
    order=st.permutations([(n, m) for n in range(6) for m in range(6)]),
)
def test_index_answers_match_fresh_searches_in_any_order(entries, budget, gaps, bound, order):
    s = irregular_scale(budget, gaps)
    w = nu_words(entries)
    counted = CountingScale(s)
    index = WitnessIndex(w, counted, bound)
    for n_star, m_star in order:
        got = index.find(n_star, m_star)
        assert got == find_witness(w, s, n_star, m_star, bound)
        assert got == least_pair(w, s, n_star, m_star, bound)
        # a repeated query answers from its row and reads no new entry
        reads = len(counted.reads)
        assert index.find(n_star, m_star) == got
        assert len(counted.reads) == reads
    # each candidate (n*, i0), i0 = 1 .. bound, is checked at most once
    assert len(counted.reads) <= 2 * 6 * bound


class MethodScan(WitnessIndex):
    """WitnessIndex with a row's scan made of methods over a per-word
    table: one least_i1 and one all_trivial call per candidate.

    lens[x] is the total length of words 0..x-1, one entry per word read,
    and nontrivial lists the nontrivial indices read.  A word read that
    raises keeps the words before it, and a retry starts at the word that
    raised.  frontier is the last word index read."""

    def __init__(self, w, s, search_bound):
        super().__init__(w, s, search_bound)  # sets _nontrivial = [] and _unread = 0
        self._lens = [0]

    @property
    def frontier(self):
        return len(self._lens) - 2

    def _read_through(self, x):
        lens, nontrivial, gen = self._lens, self._nontrivial, self.w.gen
        tail = self.w.trivial_from
        if tail is not None:
            x = min(x, tail - 1)
        total = lens[-1]
        for i in range(len(lens) - 1, x + 1):
            t = gen(i)
            total += 1 + t
            lens.append(total)
            if t:
                nontrivial.append(i)
        self._unread = len(lens) - 1 if tail is None or x < tail - 1 else sys.maxsize

    def least_i1(self, n_star, i0, j0):
        """The larger of n* + 1 and i0 + 1 plus the total length of words
        n*..j0 (none when j0 < n*)."""
        if j0 < n_star:
            return max(i0 + 1, n_star + 1)
        if j0 >= self._unread:
            self._read_through(j0)
        lens = self._lens
        if j0 + 1 < len(lens):
            return max(i0 + lens[j0 + 1] - lens[n_star] + 1, n_star + 1)
        tail = len(lens) - 1  # j0 lies in the tail, whose words have length 1
        total = j0 + 1 - n_star if n_star >= tail else lens[tail] - lens[n_star] + j0 + 1 - tail
        return max(i0 + total + 1, n_star + 1)

    def all_trivial(self, j0, j1):
        """Whether the first nontrivial index at or after j0 lies past j1."""
        if j1 >= self._unread:
            self._read_through(j1)
        nontrivial = self._nontrivial
        k = bisect_left(nontrivial, j0)
        return k == len(nontrivial) or nontrivial[k] > j1

    def ends(self, n_star, first, last):
        s, bound = self.s, self.search_bound
        row = self._rows.setdefault(n_star, {})
        out = []
        start = first
        while start <= last:
            i0 = start
            end = row.get(i0)
            while end is None:
                if i0 > bound:
                    return out
                j0 = s.value(i0)
                i1 = self.least_i1(n_star, i0, j0)
                if i1 <= bound and not self.all_trivial(j0, s.value(i1)):
                    i0 += 1
                    end = row.get(i0)
                    continue
                end = row[i0] = (i0, i1)
            for walked in range(start, i0):
                row[walked] = end
            i0, i1 = end
            if i1 > bound:
                return out
            out += [end] * (min(i0, last) - start + 1)
            start = i0 + 1
        return out


def logged_words(entries, declared, log):
    """The words of entries, each gen call logged; declared keeps their
    trivial_from, else they declare nothing."""
    words = nu_words(entries)
    return WordSeq(gen=lambda n: log.append(n) or words.gen(n),
                   trivial_from=words.trivial_from if declared else None)


@ORACLE
@given(
    # a negative exponent makes its word's read raise
    entries=st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, -1]), max_size=16),
    declared=st.booleans(),
    budget=st.integers(1, 3),
    gaps=st.none() | st.lists(st.integers(0, 3), max_size=24),
    bound=st.integers(1, 40) | st.just(sys.maxsize),
    queries=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 8), st.integers(-1, 6)),
                     max_size=8),
)
# a short loaded scale: a scan raises ShortScale, and a retry raises again
@example(entries=[0, 2, 0, 1], declared=False, budget=1, gaps=[0, 1], bound=sys.maxsize,
         queries=[(0, 1, 4), (2, 1, 3), (0, 1, 4)])
# a word read raises after nonzero words: a retry reads from that word on
# and raises the same, with the same frontier
@example(entries=[0, 2, 0, 0, 1, 0, -1], declared=True, budget=1, gaps=None, bound=sys.maxsize,
         queries=[(0, 1, 3), (3, 1, 2), (0, 1, 3)])
def test_scan_reads_what_the_method_scan_reads(entries, declared, budget, gaps, bound, queries):
    s = build_scale(NullSequence.transpositions(), budget, 1) if gaps is None \
        else irregular_scale(budget, gaps)
    runs = []
    for cls in (WitnessIndex, MethodScan):
        log = []
        counted = CountingScale(s)
        index = cls(logged_words(entries, declared, log), counted, bound)
        got = []
        for n_star, first, extra in queries:
            got.append((outcome(index.ends, n_star, first, first + extra),
                        counted.reads[:], log[:], index.frontier))
        runs.append(got)
    assert runs[0] == runs[1]


def witnesses(cert):
    """The certificate's rows as one witness per pair, in row-major order."""
    return [
        ObeysSegment(n_star, m_star, i0, i1)
        for n_star, ends in enumerate(cert)
        for m_star, (i0, i1) in enumerate(ends)
    ]


def plain_candidate(w, s, n_star, i0, bound):
    """The candidate (n*, i0) from the plain clauses: its least i1 from a
    direct length sum, and whether it passes, fails or stops the search.
    Reads j(i0), then j(i1) when i1 is within the bound."""
    j0 = s.value(i0)
    total = sum(1 + w.gen(t) for t in range(n_star, j0 + 1))
    i1 = max(i0 + total + 1, n_star + 1)
    if i1 > bound:
        return i1, "stop"
    j1 = s.value(i1)
    return i1, "pass" if all(w.gen(t) == 0 for t in range(j0, j1 + 1)) else "fail"


def plain_walk(w, s, n_star, start, bound):
    """The candidates, with their outcomes, that a scan of row n* from
    start checks on its own: each in turn up to the first that passes or
    stops; none when start is past the bound."""
    walked = {}
    for i0 in range(start, bound + 1):
        walked[n_star, i0] = outcome = plain_candidate(w, s, n_star, i0, bound)[1]
        if outcome != "fail":
            break
    return walked


def plain_certificate(w, s, up_to, bound):
    """The certificate from the plain clauses: each row checks its
    candidates i0 = 1, 2, ... in turn, each once, as one query per pair in
    row-major order does when each row keeps its scans.  A passing
    candidate answers every pending start up to it; a stopping one raises
    NotObeying for the first pending pair."""
    rows = []
    for n_star in range(up_to):
        ends = []
        i0 = 1
        while len(ends) < up_to:
            if i0 > bound:
                raise NotObeying(n_star, len(ends))
            i1, outcome = plain_candidate(w, s, n_star, i0, bound)
            if outcome == "stop":
                raise NotObeying(n_star, len(ends))
            if outcome == "pass":
                ends += [(i0, i1)] * (min(i0, up_to) - len(ends))
            i0 += 1
        rows.append(ends)
    return rows


def failure(fn, *args):
    """fn's result, or the type, message and pair of the error it raised."""
    try:
        return fn(*args)
    except NotObeying as exc:
        return NotObeying, str(exc), (exc.n_star, exc.m_star)
    except ShortScale as exc:
        return ShortScale, str(exc)


@ORACLE
@given(
    entries=st.lists(st.sampled_from([0, 0, 1, 2]), max_size=12),
    bound=st.integers(2, 16),
    up_to=st.integers(1, 5),
    order=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
)
def test_certificate_fails_on_the_same_pair_after_any_queries(entries, bound, up_to, order):
    # a small bound, so some pairs have no witness: the certificate must
    # stop at the first of them in row-major order, whatever the shared
    # index answered before
    s = build_scale(NullSequence.transpositions(), 1, 1)
    w = nu_words(entries)
    counted = CountingScale(s)
    index = WitnessIndex(w, counted, bound)
    checked = {}  # the candidates the queries and the certificate need
    for n_star, m_star in order:
        index.find(n_star, m_star)
        checked.update(plain_walk(w, s, n_star, m_star + 1, bound))
    want = []
    missing = None
    for n_star in range(up_to):
        for m_star in range(up_to):
            wit = least_pair(w, s, n_star, m_star, bound)
            if missing is None:
                checked.update(plain_walk(w, s, n_star, m_star + 1, bound))
            if wit is None and missing is None:
                missing = (n_star, m_star)
            want.append(wit)
    if missing is None:
        assert witnesses(obeys_certificate(index, up_to)) == want
    else:
        with pytest.raises(NotObeying) as exc:
            obeys_certificate(index, up_to)
        assert (exc.value.n_star, exc.value.m_star) == missing
    # a scan that reaches a start an earlier scan resolved takes its end:
    # each needed candidate was checked once, reading j(i0) and, unless it
    # stopped the search, j(i1)
    assert len(counted.reads) == sum(1 if kind == "stop" else 2 for kind in checked.values())


@ORACLE
@given(
    entries=st.lists(st.sampled_from([0, 0, 0, 1, 9]), max_size=20),
    gaps=st.lists(st.integers(0, 3), min_size=1, max_size=20),
    overshoot=st.integers(-2, 3),
    order=st.permutations([(n, m) for n in range(4) for m in range(4)]),
)
# (3, 0): the candidate i0 = 1 fails on the word 2, then i0 = 2 reads past
# the loaded scale
@example(entries=[0, 0, 9], gaps=[0, 0, 2, 0], overshoot=1,
         order=[(n, m) for n in (3, 0, 1, 2) for m in range(4)])
def test_index_runs_out_of_a_loaded_scale_like_a_fresh_search(entries, gaps, overshoot, order):
    s = irregular_scale(1, gaps)
    w = nu_words(entries)
    bound = len(gaps) + overshoot
    index = WitnessIndex(w, s, bound)
    for n_star, m_star in order:
        got = outcome(index.find, n_star, m_star)
        assert got == outcome(find_witness, w, s, n_star, m_star, bound)
        if isinstance(got, tuple):
            assert got[0] is ShortScale
            # a scan that raised recorded nothing: asked again, it raises again
            assert outcome(index.find, n_star, m_star) == got


@ORACLE
@given(
    entries=st.lists(st.sampled_from([0, 0, 0, 1, 2, 3]), max_size=30),
    budget=st.integers(1, 3),
    gaps=st.lists(st.integers(0, 3), min_size=30, max_size=30),
    bound=st.integers(0, 30),
    up_to=st.integers(0, 7),
)
def test_certificate_rows_are_the_least_witnesses_of_their_pairs(entries, budget, gaps, bound, up_to):
    s = irregular_scale(budget, gaps)
    w = nu_words(entries)
    got = failure(obeys_certificate, WitnessIndex(w, s, bound), up_to)
    assert got == failure(plain_certificate, w, s, up_to, bound)
    pairs = [(n_star, m_star) for n_star in range(up_to) for m_star in range(up_to)]
    if isinstance(got, tuple):
        # every pair before the one named has its least witness
        missing = got[2]
        assert least_pair(w, s, *missing, bound) is None
        assert all(least_pair(w, s, *pair, bound) for pair in pairs[: pairs.index(missing)])
        return
    assert [len(ends) for ends in got] == [up_to] * up_to
    for wit in witnesses(got):
        assert wit == find_witness(w, s, wit.n_star, wit.m_star, bound)
        assert wit == least_pair(w, s, wit.n_star, wit.m_star, bound)
        assert check_witness(w, s, wit)


@ORACLE
@given(
    entries=st.lists(st.sampled_from([0, 0, 0, 1, 9]), max_size=20),
    gaps=st.lists(st.integers(0, 3), min_size=1, max_size=20),
    overshoot=st.integers(-2, 3),
    up_to=st.integers(1, 6),
)
# row 0: start 1 ends at (1, 5), and candidate 2 asks for j(8), past the
# six loaded entries
@example(entries=[], gaps=[0, 0, 1, 1, 2], overshoot=3, up_to=3)
def test_certificate_runs_out_of_a_loaded_scale_like_the_per_pair_path(
    entries, gaps, overshoot, up_to
):
    s = irregular_scale(1, gaps)
    w = nu_words(entries)
    bound = len(gaps) + overshoot
    counted, plain = CountingScale(s), CountingScale(s)
    index = WitnessIndex(w, counted, bound)
    got = failure(obeys_certificate, index, up_to)
    assert got == failure(plain_certificate, w, plain, up_to, bound)
    # the same entries, in the same order, up to the same raise
    assert counted.reads == plain.reads
    if got[0] is ShortScale:
        # the walk that raised recorded nothing: asked again, the
        # certificate walks it again, reads the same entries and raises
        first = list(counted.reads)
        assert failure(obeys_certificate, index, up_to) == got
        again = counted.reads[len(first):]
        assert again and first[-len(again):] == again


@pytest.mark.parametrize("seed", range(8))
def test_certificate_checks_each_candidate_once(seed):
    # a candidate (n*, i0) passes, fails or stops the scan whatever m* is,
    # so the certificate's 16 queries per row share one scan of the row
    prefix = random_sparse_nu_prefix(random.Random(seed))
    s = build_scale(NullSequence.transpositions(), 1, 1)
    w = nu_words(prefix)
    counted = CountingScale(s)
    cert = witnesses(obeys_certificate(WitnessIndex(w, counted, 128), 16))
    assert cert == [find_witness(w, s, wit.n_star, wit.m_star, 128) for wit in cert]
    # the query (n*, m*) needs the candidates i0 = m* + 1 .. its answer's i0;
    # every answer is a witness, so no candidate stopped a scan
    needed = [(wit.n_star, i0) for wit in cert for i0 in range(wit.m_star + 1, wit.i0 + 1)]
    assert len(counted.reads) == 2 * len(set(needed)) < 2 * len(needed)


@pytest.mark.parametrize("kind", ["builtin", "cauchy"])
@pytest.mark.parametrize("seed", range(4))
def test_limit_queries_after_a_certificate_read_no_new_entry(kind, seed):
    d = driving_sequence(kind, seed, terms=1000)
    prefix = random_sparse_nu_prefix(random.Random(seed))
    counted = CountingScale(build_scale(d, 1, 1))
    limit = LimitAutomorphism(d, nu_words(prefix), counted, search_bound=128)
    cert = witnesses(obeys_certificate(limit.index, 16))
    reads = len(counted.reads)
    for wit in cert:
        assert limit.index.find(wit.n_star, wit.m_star) == wit
    assert len(counted.reads) == reads
    # the limit's own reads are its stabilization bounds, one per point
    exact = exact_limit(d, prefix)
    assert [[limit.apply(n, m) for m in range(16)] for n in range(4)] == [
        [exact(n, m) for m in range(16)] for n in range(4)
    ]
    assert counted.reads[reads:] == [wit.i1 + 1 for wit in cert[: 4 * 16]]


def exact_limit(d, prefix):
    """b_n(m) for the system with a finite exponent prefix, by downward
    substitution b_n = d_{n+1} b_{n+1}^t from the identity above the last
    entry; a zero entry makes b_n = b_{n+1}."""

    @lru_cache(maxsize=None)
    def value(n, m):
        if n >= len(prefix):
            return m
        if prefix[n] == 0:
            return value(n + 1, m)
        for _ in range(prefix[n]):
            m = value(n + 1, m)
        return d.perm(n + 1).apply(m)

    return value


@ORACLE
@given(kind=st.sampled_from(["explicit", "cauchy"]), seed=st.integers(0, 10**6),
       budget=st.integers(1, 2))
def test_limit_rows_solve_their_equations_beyond_the_builtin_family(kind, seed, budget):
    d = driving_sequence(kind, seed)
    prefix = random_sparse_nu_prefix(random.Random(seed))
    nw, mw = 4, 16
    limit = LimitAutomorphism(d, nu_words(prefix), build_scale(d, budget, 1), search_bound=128)
    exact = exact_limit(d, prefix)
    assert [[limit.apply(n, m) for m in range(mw)] for n in range(nw)] == [
        [exact(n, m) for m in range(mw)] for n in range(nw)
    ]
    assert verify_solution(limit, nw, mw) == []


CAPPED = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@CAPPED
@given(kind=st.sampled_from(["builtin", "cauchy"]), seed=st.integers(0, 10**6),
       budget=st.integers(1, 2), span=st.integers(4, 12))
def test_capped_limit_reads_match_the_uncapped_truncation(kind, seed, budget, span):
    # term n moves points near 2n, so a point window past 2 * span reaches
    # every nonzero entry of the prefix
    d = driving_sequence(kind, seed, terms=1000)
    prefix = random_sparse_nu_prefix(random.Random(seed), span=span, length=span + 2)
    w = nu_words(prefix)
    s = build_scale(d, budget, 1)
    limit = LimitAutomorphism(d, w, s, search_bound=4096)
    tables = {}
    for n in range(4):
        for m in range(2 * span + 6):
            k = stabilization_bound(limit.witness(n, m), s)
            if k not in tables:
                tables[k] = approx(d, w, k)
            row = tables[k].row(n)
            assert limit.apply(n, m) == row.apply(m)
            assert limit.inverse_apply(n, m) == row.inverse_apply(m)
    # most bounds lie past the prefix, so the reference read deeper tables
    assert max(tables) > w.trivial_from


@pytest.mark.parametrize("kind", ["builtin", "cauchy"])
def test_table_stays_the_real_truncation_past_the_trivial_tail(kind):
    d = driving_sequence(kind, 3)
    w = nu_words([0, 2, 0, 1, 3, 0])
    limit = LimitAutomorphism(d, w, build_scale(d, 1, 1))
    at_tail = approx(d, w, w.trivial_from)
    for k in (w.trivial_from, w.trivial_from + 1, w.trivial_from + 17, 300):
        table = limit.table(k)
        assert table.k == k
        # the same rows at every depth past the tail: what the cap relies on
        assert [table.row(n) for n in range(k + 2)] == [at_tail.row(n) for n in range(k + 2)]


@pytest.mark.parametrize("kind", ["builtin", "cauchy"])
def test_limit_builds_no_table_deeper_than_the_trivial_tail(kind, monkeypatch):
    built = []

    def recording_approx(d, w, k):
        built.append(k)
        return approx(d, w, k)

    monkeypatch.setattr(solver, "approx", recording_approx)
    # the window's witnesses read the scale far out, past 200 Cauchy terms
    d = driving_sequence(kind, 5, terms=1000)
    prefix = random_sparse_nu_prefix(random.Random(5))
    w = nu_words(prefix)
    s = build_scale(d, 1, 1)
    limit = LimitAutomorphism(d, w, s, search_bound=4096)
    nw, mw = 4, 64
    exact = exact_limit(d, prefix)
    assert [[limit.apply(n, m) for m in range(mw)] for n in range(nw)] == [
        [exact(n, m) for m in range(mw)] for n in range(nw)
    ]
    assert verify_solution(limit, nw, mw) == []
    assert built and max(built) <= w.trivial_from
    assert len(built) == len(set(built))
    # the window's stabilization bounds run far past the tail
    assert stabilization_bound(limit.witness(nw - 1, mw - 1), s) > 10 * w.trivial_from


@pytest.mark.parametrize("kind", ["builtin", "cauchy"])
def test_callable_words_declare_nothing_and_read_the_same_limit(kind):
    d = driving_sequence(kind, 11)
    prefix = random_sparse_nu_prefix(random.Random(11))
    listed = nu_words(prefix)
    called = nu_words(lambda n: nu_at(prefix, n))
    assert called.trivial_from is None
    assert [called.gen(n) for n in range(60)] == [listed.gen(n) for n in range(60)]
    s = build_scale(d, 1, 1)
    capped = LimitAutomorphism(d, listed, s)
    uncapped = LimitAutomorphism(d, called, s)
    for n in range(4):
        for m in range(16):
            assert capped.apply(n, m) == uncapped.apply(n, m)
            assert capped.inverse_apply(n, m) == uncapped.inverse_apply(n, m)


def test_a_missing_witness_still_raises_under_the_cap():
    d = NullSequence.transpositions()
    limit = LimitAutomorphism(d, nu_words([1]), build_scale(d, 1, 1), search_bound=2)
    with pytest.raises(WitnessNotFound) as exc:
        limit.apply(0, 5)
    assert (exc.value.n, exc.value.m) == (0, 5)


def short_limit(kind, seed, terms, entries, budget, bound):
    """A limit over a driving prefix of terms terms (unbounded for builtin)
    on a fresh scale, so two calls share no memo."""
    d = driving_sequence(kind, seed, terms)
    return LimitAutomorphism(d, nu_words(entries), build_scale(d, budget, 1), search_bound=bound)


SHORT_LIMITS = dict(
    kind=KINDS, seed=st.integers(0, 10**6), terms=st.integers(1, 40), entries=EXPONENTS,
    budget=st.integers(1, 3), bound=st.integers(4, 160),
)


@ORACLE
@given(**SHORT_LIMITS, n=st.integers(0, 4), count=st.integers(0, 14), certify=st.booleans())
@example(kind="builtin", seed=24, terms=1, entries=[], budget=3, bound=48, n=1, count=13,
         certify=False)  # WitnessNotFound at (1, 9)
@example(kind="explicit", seed=24, terms=32, entries=[0], budget=3, bound=153, n=0, count=6,
         certify=True)  # ShortPrefix at the stabilization bound of a certified pair
@example(kind="explicit", seed=18, terms=5, entries=[0, 2], budget=2, bound=124, n=3, count=13,
         certify=False)  # ShortPrefix with the row not yet scanned
@example(kind="cauchy", seed=23, terms=5, entries=[0] * 12 + [1, 0, 0], budget=1, bound=91, n=1,
         count=4, certify=False)  # pair 0's table fails before the scan runs out of the prefix
def test_row_reads_what_apply_reads_point_by_point(
    kind, seed, terms, entries, budget, bound, n, count, certify
):
    # the row and the per-point reads give the same values or raise the
    # same error, and read the scale equally far; with certify the index
    # holds the row's scan first, as in a solve
    by_row, by_point = (short_limit(kind, seed, terms, entries, budget, bound) for _ in range(2))
    if certify:
        for limit in (by_row, by_point):
            outcome(lambda: obeys_certificate(limit.index, max(n + 1, count)))
    got = outcome(lambda: by_row.row(n, count))
    assert got == outcome(lambda: [by_point.apply(n, m) for m in range(count)])
    assert by_row.s.materialized() == by_point.s.materialized()
    if isinstance(got, list):  # a kept row reads back, whole or in part
        assert by_row.row(n, count) == got and by_row.row(n, count // 2) == got[: count // 2]


def pointwise_verify(limit, n_window, m_window):
    """The equation check one point at a time: each limit value against its
    equation, chased unit letter by unit letter through apply."""
    problems = []
    for n in range(n_window):
        for m in range(m_window):
            got, t, x = limit.apply(n, m), limit.w.gen(n), m
            for _ in range(max(t, 1)):
                x = limit.apply(n + 1, x)
            want = limit.d.perm(n + 1).apply(x) if t else x
            if got != want:
                problems.append({"n": n, "m": m, "limit": got, "equation": want})
    return problems


@ORACLE
@given(**SHORT_LIMITS, n_window=st.integers(0, 4), m_window=st.integers(0, 12))
@example(kind="cauchy", seed=28, terms=37, entries=[1, 3, 1, 0, 0, 0], budget=2, bound=36,
         n_window=2, m_window=6)  # the chase leaves the window for a pair with no witness
@example(kind="cauchy", seed=18, terms=35, entries=[1, 3, 3, 0, 0], budget=2, bound=147,
         n_window=2, m_window=6)  # the chase leaves the window past the driving prefix
def test_equation_check_reads_what_the_pointwise_chase_reads(
    kind, seed, terms, entries, budget, bound, n_window, m_window
):
    # a solve's reads in order: certificate, the window's rows, equation check
    by_row, by_point = (short_limit(kind, seed, terms, entries, budget, bound) for _ in range(2))
    up_to = max(n_window + 1, m_window)

    def solve(limit, rows, check):
        obeys_certificate(limit.index, up_to)
        return [rows(limit, n) for n in range(n_window)], check(limit, n_window, m_window)

    got = outcome(lambda: solve(by_row, lambda L, n: L.row(n, m_window), verify_solution))
    assert got == outcome(lambda: solve(
        by_point, lambda L, n: [L.apply(n, m) for m in range(m_window)], pointwise_verify))
    assert by_row.s.materialized() == by_point.s.materialized()


def full_rerun_depth(exc, w, s, depth, up_to):
    """The depth hint from the whole window's certificate on an index with
    no bound: its largest i1, or exc when that certificate fails."""
    try:
        rows = obeys_certificate(WitnessIndex(w, s, sys.maxsize), up_to)
    except (ShortPrefix, NoBound, NotObeying):
        return exc
    suffices = max(i1 for ends in rows for _, i1 in ends)
    return NotObeying(exc.n_star, exc.m_star,
                      f" within --depth {depth}; --depth {suffices} suffices for this window")


@ORACLE
@given(kind=KINDS, seed=st.integers(0, 10**6), terms=st.integers(1, 40),
       entries=st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, 2**63, 10**30]), max_size=24),
       budget=st.integers(1, 4), up_to=st.integers(1, 40))
@example(kind="builtin", seed=0, terms=1, entries=[10**30, 1], budget=1, up_to=6)  # no hint
@example(kind="cauchy", seed=0, terms=3, entries=[1], budget=2, up_to=4)  # past the prefix
@example(kind="cauchy", seed=1, terms=40, entries=[1, 0, 2], budget=1, up_to=5)  # 22 suffices
def test_one_column_depth_hint_matches_the_full_rerun(kind, seed, terms, entries, budget, up_to):
    exc = NotObeying(0, 0)
    d = driving_sequence(kind, seed, terms)

    def hint(fn):
        got = fn(exc, nu_words(entries), build_scale(d, budget, 1), 7, up_to)
        return got is exc, str(got)

    assert hint(_sufficient_depth) == hint(full_rerun_depth)
