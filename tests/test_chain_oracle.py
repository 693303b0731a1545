"""The chain fold and block's tail check against a step-by-step reference.

chain_run keeps the position and the residual as locals and builds one
ChainState at the end; block checks its new entries by continuing the fold
from the live end state.  The reference below applies the step rule one
ChainState at a time from b_0: fetch the driving term (the identity raises
BadDSeq), reject a negative exponent, then copy on 0, pin on 1 and take the
t-th root on t >= 2, dying where there is none.  The reference reads every
sequence at every entry; chain_run must end the same way and read a
sequence that declares never_identity only at the nonzero ones.
"""

from itertools import islice

from hypothesis import given, settings, strategies as st

from grpeq.freegrp import (
    BadDSeq,
    BlockSegment,
    ChainState,
    FreeElem,
    NoRoot,
    NuPrefix,
    SubBasis,
    ascending_generators,
    block,
    chain_run,
    h_elements,
    has_root,
)

ORACLE = settings(max_examples=150, deadline=None, derandomize=True, database=None)

ELEMENTS = {b: list(islice(h_elements(SubBasis.first(b)), 400)) for b in range(1, 5)}
ASC = ascending_generators()


def reference_step(st, d_next, t):
    if d_next.is_identity:
        raise BadDSeq(f"driving term {st.position} is the identity")
    if t < 0:
        raise ValueError("exponent entries must be naturals")
    if t == 0:
        return ChainState(st.position + 1, st.residual)
    c = d_next.inverse() * st.residual
    if t == 1:
        return ChainState(st.position + 1, c)
    root = has_root(c, t)
    if root is None:
        return ChainState(st.position, None, NoRoot(t))
    return ChainState(st.position + 1, root)


def reference_run(a, d, entries):
    st = ChainState(0, a)
    for n, t in enumerate(entries):
        if not st.is_alive:
            break
        st = reference_step(st, d(n), t)
    return st


def outcome(fn):
    try:
        return fn(), None, None
    except ValueError as exc:  # BadDSeq is a ValueError
        return None, type(exc), str(exc)


@st.composite
def prefixes(draw, negative=False):
    """Entries 0-4 in runs, some of them long stretches of zeros; with
    negative, one entry somewhere is -1."""
    runs = draw(st.lists(
        st.one_of(st.integers(0, 4).map(lambda t: [t]),
                  st.integers(5, 40).map(lambda k: [0] * k)),
        max_size=8,
    ))
    entries = [t for run in runs for t in run]
    if negative:
        entries.insert(draw(st.integers(0, len(entries))), -1)
    return entries


def logged(d, reads, declared):
    """d, recording each index read, and declaring never_identity if asked."""
    def seq(n):
        reads.append(n)
        return d(n)

    if declared:
        seq.never_identity = True
    return seq


@st.composite
def drivers(draw, basis):
    """The ascending generators; powers of z1, under which roots often exist;
    a short cycle of elements of the basis, so terms repeat; or the
    generators with the identity at one position.  Each of the first three
    is declared never_identity or left bare at random; the ascending
    generators are declared as ascending_generators() builds them."""
    kind = draw(st.sampled_from(["ascending", "powers", "repeated", "identity"]))
    if kind == "ascending":
        return ASC if draw(st.booleans()) else lambda n: FreeElem.gen(n + 1)
    if kind == "identity":
        k = draw(st.integers(0, 60))
        return lambda n: FreeElem.identity() if n == k else FreeElem.gen(n + 1)
    if kind == "powers":
        return logged(lambda n: FreeElem.gen(1, n + 1), [], draw(st.booleans()))
    pool = draw(st.lists(st.sampled_from(ELEMENTS[basis][1:40]), min_size=1, max_size=3))
    return logged(lambda n: pool[n % len(pool)], [], draw(st.booleans()))


@st.composite
def cases(draw):
    basis = draw(st.integers(1, 4))
    a = draw(st.sampled_from(ELEMENTS[basis]))
    return a, draw(drivers(basis)), draw(prefixes(negative=draw(st.booleans())))


@ORACLE
@given(cases())
def test_chain_run_matches_the_stepwise_reference(case):
    a, d, entries = case
    declared = getattr(d, "never_identity", False)
    reads, ref_reads = [], []
    got = outcome(lambda: chain_run(a, logged(d, reads, declared), entries))
    assert got == outcome(lambda: reference_run(a, logged(d, ref_reads, False), entries))
    # the reference reads each entry's term up to the one that ended it; a
    # declared sequence is read only where that entry is nonzero
    assert reads == ([n for n in ref_reads if entries[n]] if declared else ref_reads)


@ORACLE
@given(cases(), st.booleans())
def test_block_kills_the_chain_from_scratch(case, collapse):
    a, d, entries = case
    if collapse:  # the chain reaches the end as its next driving term, so
        # the first quotient is the identity and block must shift by a zero
        entries = [0] * len(entries)
        a = d(len(entries))
    prefix = NuPrefix(entries=list(entries))
    _, exc, _ = outcome(lambda: block(a, prefix, d, target=0))
    if exc is not None:  # a bad driving term or entry leaves the prefix as it was
        assert prefix.entries == entries and prefix.log == []
        return
    assert not reference_run(a, d, prefix.entries).is_alive
    tail = prefix.entries[len(entries):]
    assert prefix.entries[: len(entries)] == entries
    end = reference_run(a, d, entries)
    if end.is_alive:  # one zero exactly when the first quotient d^-1 b collapses
        shift = [0] if d(len(entries)) == end.residual else []
        assert tail == shift + [tail[-1]] and tail[-1] >= 2
        assert prefix.log == [BlockSegment(0, tail[-1])]
    else:
        assert tail == [] and prefix.log == []


def test_the_samples_reach_every_outcome():
    # the cases above include chains that live through a root, die at once
    # or later, and both raising rules, over declared and bare sequences,
    # so no branch of the fold goes unseen
    seen = set()

    @ORACLE
    @given(cases())
    def collect(case):
        seen.add("declared" if getattr(case[1], "never_identity", False) else "bare")
        got, exc, _ = outcome(lambda: reference_run(*case))
        if exc is not None:
            seen.add(exc)
        elif got.is_alive:
            seen.add("rooted" if any(t > 1 for t in case[2]) else "alive")
        else:
            seen.add("dead late" if got.position else "dead at once")

    collect()
    assert {BadDSeq, ValueError, "alive", "rooted", "dead late", "dead at once",
            "declared", "bare"} <= seen
