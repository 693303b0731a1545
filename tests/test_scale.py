"""Scale construction and the off-interval witness search."""

import pytest

from grpeq.perm import NullSequence, Perm
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
    verify_scale,
)
from grpeq.words import WordSeq, canonicalize, nu_words


def naive_witness(w, s, n_star, m_star, bound):
    """Reference search straight from the witness clauses, no shortcuts."""
    for i0 in range(bound + 1):
        for i1 in range(bound + 1):
            if not (m_star < i0 < i1 and n_star < i1):
                continue
            j0, j1 = s.value(i0), s.value(i1)
            if any(not w.gen(t).is_trivial for t in range(j0, j1 + 1)):
                continue
            if sum(w.gen(i).length() for i in range(n_star, j0 + 1)) < i1 - i0:
                return (i0, i1)
    return None


def test_scale_golden_budget_one():
    d = NullSequence.transpositions()
    s = build_scale(d, 1, 10)
    assert s.prefix(10) == [0, 2, 4, 6, 8, 10, 12, 14, 16, 18]


def test_scale_golden_budget_zero():
    d = NullSequence.transpositions()
    s = build_scale(d, 0, 10)
    assert s.prefix(10) == list(range(10))


def test_scale_single_entry():
    s = build_scale(NullSequence.transpositions(), 1, 1)
    assert s.prefix(1) == [0]
    assert s.value(0) == 0


def test_scale_linear_law_for_transpositions():
    # for the builtin family every non-gap clause is dominated by the gap
    # clause, so entry n is exactly (budget + 1) * n
    d = NullSequence.transpositions()
    for budget in range(4):
        s = build_scale(d, budget, 12)
        assert s.prefix(12) == [(budget + 1) * n for n in range(12)]


def test_scale_lazy_extension():
    d = NullSequence.transpositions()
    s = build_scale(d, 1, 2)
    assert s.value(30) == 60
    assert len(s.materialized()) >= 31


def test_find_witness_heavy_word_before_n_star():
    # j(1) = 2 < n* = 5 and word 2 is long: no word lies between n* and j(1),
    # so the least i1 for i0 = 1 is n* + 1, and the search must go on to
    # i0 = 2 rather than stop at the bound
    s = Scale.from_values(list(range(0, 40, 2)), 1)
    w = nu_words([0, 0, 9])
    wit = find_witness(w, s, 5, 0, 10)
    assert (wit.i0, wit.i1) == naive_witness(w, s, 5, 0, 10) == (2, 6)


def test_word_sums_read_no_word_of_the_declared_trivial_tail():
    # nu_words over a list declares every word from its length on trivial;
    # a check that reaches a scale value far past it reads none of them
    s = Scale.from_values([0, 2, 4, 6, 8, 10, 10**6], 1)
    index = WitnessIndex(nu_words([1]), s, 6)
    assert index.find(0, 0) == ObeysSegment(0, 0, 1, 6)
    assert index.holds(ObeysSegment(0, 0, 1, 6))
    assert not index.holds(ObeysSegment(0, 0, 5, 6))  # words 0..j(5) are too long
    assert index.frontier == 0


def test_scale_from_values_validation():
    s = Scale.from_values([0, 2, 4], 1)
    assert s.value(2) == 4
    with pytest.raises(ShortScale, match="3 loaded entries, asked for index 3"):
        s.value(3)
    with pytest.raises(ValueError):
        Scale.from_values([1, 3, 5], 1)
    with pytest.raises(ValueError):
        Scale.from_values([0, 1, 2], 1)  # gaps must exceed the budget
    raw = Scale.from_values([0, 1, 2], 1, validate=False)
    assert raw.value(1) == 1


def test_verify_scale_accepts_builder_output():
    d = NullSequence.transpositions()
    s = build_scale(d, 1, 10)
    assert verify_scale(d, s, 10)


def test_verify_scale_rejects_bumped_entry():
    d = NullSequence.transpositions()
    bumped = Scale.from_values([0, 2, 5, 7, 9, 11], 1, validate=False)
    assert not verify_scale(d, bumped, 6)


def test_verify_scale_rejects_short_gap():
    d = NullSequence.transpositions()
    tight = Scale.from_values([0, 1, 2], 1, validate=False)
    assert not verify_scale(d, tight, 3)


def test_find_witness_golden_all_zero():
    d = NullSequence.transpositions()
    s = build_scale(d, 1, 1)
    w = nu_words([])
    wit = find_witness(w, s, 0, 0, 64)
    assert wit is not None
    assert (wit.i0, wit.i1) == (1, 5)
    assert check_witness(w, s, wit)


def test_find_witness_golden_single_pulse():
    d = NullSequence.transpositions()
    s = build_scale(d, 1, 1)
    w = nu_words([1])
    wit = find_witness(w, s, 0, 0, 64)
    assert (wit.i0, wit.i1) == (1, 6)
    assert check_witness(w, s, wit)


def test_find_witness_matches_naive_oracle():
    d = NullSequence.transpositions()
    s = build_scale(d, 1, 1)
    for prefix in [[], [1], [0, 2], [2, 0, 0, 1], [0, 0, 3], [1, 1, 1, 0, 2]]:
        w = nu_words(prefix)
        for n_star in range(3):
            for m_star in (0, 2, 5):
                wit = find_witness(w, s, n_star, m_star, 64)
                want = naive_witness(w, s, n_star, m_star, 64)
                if want is None:
                    assert wit is None
                else:
                    assert wit is not None
                    assert (wit.i0, wit.i1) == want


def test_find_witness_none_without_zero_tail():
    d = NullSequence.transpositions()
    s = build_scale(d, 1, 1)
    w = nu_words(lambda n: 1)
    assert find_witness(w, s, 0, 0, 32) is None


def test_find_witness_none_when_m_star_exhausts_bound():
    d = NullSequence.transpositions()
    s = build_scale(d, 1, 1)
    w = nu_words([])
    assert find_witness(w, s, 0, 40, 8) is None


def test_find_witness_budget_precondition():
    d = NullSequence.transpositions()
    s = build_scale(d, 1, 1)
    wide = WordSeq(gen=lambda n: canonicalize([("x", 2, 1)]), var_budget=2)
    with pytest.raises(ValueError):
        find_witness(wide, s, 0, 0, 16)


def test_make_witness_rejects_broken_clauses():
    d = NullSequence.transpositions()
    s = build_scale(d, 1, 1)
    w = nu_words([])
    wit = make_witness(w, s, 0, 0, 1, 5)
    assert isinstance(wit, ObeysSegment)
    with pytest.raises(ValueError):
        make_witness(w, s, 0, 0, 1, 2)  # sum bound fails
    with pytest.raises(ValueError):
        make_witness(w, s, 0, 1, 1, 5)  # m_star < i0 fails
    busy = nu_words(lambda n: 1)
    with pytest.raises(ValueError):
        make_witness(busy, s, 0, 0, 1, 9)  # interval not trivial


def test_check_witness_rejects_tampering():
    d = NullSequence.transpositions()
    s = build_scale(d, 1, 1)
    w = nu_words([])
    wit = find_witness(w, s, 0, 0, 64)
    bent = ObeysSegment(wit.n_star, 1, wit.i0, wit.i1)
    assert not check_witness(w, s, bent)
    # (0, 0, 1, 5): a later i0 or an earlier i1 leaves too short a gap
    later = ObeysSegment(wit.n_star, wit.m_star, wit.i0 + 1, wit.i1)
    assert not check_witness(w, s, later)
    earlier = ObeysSegment(wit.n_star, wit.m_star, wit.i0, wit.i1 - 1)
    assert not check_witness(w, s, earlier)


def witnesses(cert):
    """The certificate's rows as one witness per pair, in row-major order."""
    return [
        ObeysSegment(n_star, m_star, i0, i1)
        for n_star, ends in enumerate(cert)
        for m_star, (i0, i1) in enumerate(ends)
    ]


def test_obeys_certificate_all_zero():
    d = NullSequence.transpositions()
    s = build_scale(d, 1, 1)
    w = nu_words([])
    cert = obeys_certificate(WitnessIndex(w, s, 64), 5)
    assert [len(ends) for ends in cert] == [5] * 5
    assert [(wit.n_star, wit.m_star) for wit in witnesses(cert)[:6]] == [
        (0, 0),
        (0, 1),
        (0, 2),
        (0, 3),
        (0, 4),
        (1, 0),
    ]
    assert all(check_witness(w, s, wit) for wit in witnesses(cert))


def test_obeys_certificate_raises_with_location():
    d = NullSequence.transpositions()
    s = build_scale(d, 1, 1)
    w = nu_words(lambda n: 1)
    with pytest.raises(NotObeying) as exc:
        obeys_certificate(WitnessIndex(w, s, 32), 3)
    assert (exc.value.n_star, exc.value.m_star) == (0, 0)


def test_certificate_on_sparse_corpus():
    import random

    from grpeq.words import random_sparse_nu_prefix

    rng = random.Random(31)
    d = NullSequence.transpositions()
    for _ in range(20):
        prefix = random_sparse_nu_prefix(rng)
        w = nu_words(prefix)
        s = build_scale(d, 1, 1)
        cert = obeys_certificate(WitnessIndex(w, s, 128), 3)
        assert len(witnesses(cert)) == 9
        assert all(check_witness(w, s, wit) for wit in witnesses(cert))
