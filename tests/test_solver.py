"""Truncated solves, stabilization witnesses, and limit verification."""

import random

import pytest

from grpeq.perm import (
    IDENTITY,
    MATCHING_STRUCTURE,
    TRIVIAL_STRUCTURE,
    NullSequence,
    Perm,
    compose,
)
from grpeq.scale import build_scale, find_witness
from grpeq.solver import (
    LimitAutomorphism,
    WitnessNotFound,
    approx,
    closure_check,
    stabilization_bound,
    verify_solution,
)
from grpeq.words import nu_words, random_sparse_nu_prefix

D = NullSequence.transpositions()


def fresh_scale():
    return build_scale(D, 1, 1)


def test_approx_all_trivial_is_identity():
    t = approx(D, nu_words([]), 6)
    for n in range(10):
        assert t.row(n) == IDENTITY


def test_approx_golden_single_pulse():
    t = approx(D, nu_words([1]), 3)
    assert t.row(0) == Perm.transposition(2, 3)
    assert t.row(1) == IDENTITY
    assert t.row(2) == IDENTITY
    assert t.row(3) == IDENTITY


def test_approx_golden_two_pulses():
    t = approx(D, nu_words([2, 1]), 5)
    # row 1 reads x1 y1 with x1 = d_2 and y1 = row 2 (identity)
    assert t.row(1) == Perm.transposition(4, 5)
    # row 0 reads x1 y1^2; the square of row 1 cancels
    assert t.row(0) == Perm.transposition(2, 3)


def test_approx_rows_above_k_are_identity():
    t = approx(D, nu_words([1]), 3)
    assert t.row(7) == IDENTITY
    with pytest.raises(IndexError):
        t.row(-1)


def test_approx_depends_on_truncation_below_stability():
    w = nu_words([1, 1])
    shallow = approx(D, w, 0).row(0)
    deeper = approx(D, w, 1).row(0)
    assert shallow == Perm.transposition(2, 3)
    assert deeper == compose(Perm.transposition(2, 3), Perm.transposition(4, 5))
    assert shallow != deeper


def test_stabilization_bound_examples():
    s = fresh_scale()
    w = nu_words([])
    wit = find_witness(w, s, 0, 0, 64)
    assert (wit.i0, wit.i1) == (1, 5)
    assert stabilization_bound(wit, s) == 12
    wit2 = find_witness(nu_words([1]), s, 0, 0, 64)
    assert stabilization_bound(wit2, s) == 14


def test_limit_apply_goldens():
    L = LimitAutomorphism(D, nu_words([1]), fresh_scale())
    assert L.apply(0, 2) == 3
    assert L.apply(0, 3) == 2
    assert L.apply(0, 0) == 0
    assert L.apply(1, 2) == 2
    assert L.apply(5, 9) == 9


def test_limit_inverse_roundtrip():
    L = LimitAutomorphism(D, nu_words([0, 2, 0, 1]), fresh_scale())
    for n in range(4):
        for m in range(16):
            assert L.inverse_apply(n, L.apply(n, m)) == m
            assert L.apply(n, L.inverse_apply(n, m)) == m


def test_limit_rows_are_injective_on_window():
    L = LimitAutomorphism(D, nu_words([2, 0, 3]), fresh_scale())
    for n in range(4):
        images = [L.apply(n, m) for m in range(24)]
        assert len(set(images)) == len(images)


def test_limit_agrees_with_deep_truncations():
    rng = random.Random(41)
    for _ in range(10):
        prefix = random_sparse_nu_prefix(rng)
        w = nu_words(prefix)
        s = fresh_scale()
        L = LimitAutomorphism(D, w, s)
        for n in range(4):
            for m in range(8):
                wit = L.witness(n, m)
                k_star = stabilization_bound(wit, s)
                want = L.apply(n, m)
                for k in range(k_star, k_star + 5):
                    assert L.table(k).row(n).apply(m) == want


def test_witness_not_found_raises():
    L = LimitAutomorphism(D, nu_words(lambda n: 1), fresh_scale(), search_bound=32)
    with pytest.raises(WitnessNotFound) as exc:
        L.apply(0, 0)
    assert (exc.value.n, exc.value.m) == (0, 0)


def test_verify_solution_clean_window():
    L = LimitAutomorphism(D, nu_words([0, 2, 0, 1]), fresh_scale())
    assert verify_solution(L, 4, 16) == []
    assert verify_solution(L, 0, 0) == []


def test_verify_solution_flags_corrupted_cache():
    L = LimitAutomorphism(D, nu_words([1]), fresh_scale())
    good = L.apply(0, 2)
    L.row(0, 4)
    L._rows[0][2] = good + 40  # the kept row that verify_solution reads
    problems = verify_solution(L, 1, 4)
    assert any(p["n"] == 0 and p["m"] == 2 for p in problems)
    bad = next(p for p in problems if p["m"] == 2)
    assert bad["limit"] == good + 40
    assert bad["equation"] == good


def test_interval_rows_fix_points_below_guard():
    # rows inside a witness interval only involve parameter terms past the
    # interval start, so they fix everything below the second-to-last mark,
    # even when the word sequence pulses again above the interval
    s = fresh_scale()
    prefix = [0, 1] + [0] * 17 + [3]
    w = nu_words(prefix)
    L = LimitAutomorphism(D, w, s)
    wit = L.witness(0, 0)
    assert s.value(wit.i1) < 38  # the pulse at 19 sits above the interval
    k_star = stabilization_bound(wit, s)
    guard = s.value(wit.i1 - 1)
    for k in (k_star, k_star + 6):
        table = L.table(k)
        for row_index in range(s.value(wit.i0), min(s.value(wit.i1), k) + 1):
            row = table.row(row_index)
            assert all(pt >= guard for pt in row.support())


def test_rows_below_interval_stable_under_cumulative_guard():
    # rows s between n* and the interval start stay k-stable on the larger
    # range m < j at index i0 + t(s), not just at the witnessed point
    rng = random.Random(44)
    for _ in range(6):
        prefix = random_sparse_nu_prefix(rng)
        s = fresh_scale()
        L = LimitAutomorphism(D, nu_words(prefix), s)
        for n in range(3):
            wit = L.witness(n, 0)
            k_star = stabilization_bound(wit, s)
            j0 = s.value(wit.i0)
            cum = [0]  # cum[p]: total length of words n*, ..., n*+p-1
            for i in range(wit.n_star, j0):
                cum.append(cum[-1] + 1 + L.w.gen(i))
            for srow in range(wit.n_star, j0):
                p = srow - wit.n_star
                if p >= len(cum):
                    break
                guard = s.value(wit.i0 + cum[p])
                near = L.table(k_star).row(srow)
                far = L.table(k_star + 7).row(srow)
                for m in range(min(guard, 40)):
                    assert near.apply(m) == far.apply(m)


def test_truncation_only_reads_local_terms():
    # rows of the depth-k solve never touch d_0 or terms past k + max shift
    w = nu_words([1, 0, 2])
    k = 6
    base = approx(D, w, k)

    def warped(n):
        if n == 0 or n > k + 1:
            return Perm.from_cycle([3 * n, 3 * n + 1, 3 * n + 2])
        return D.perm(n)

    alt = NullSequence(gen=warped, mover_bound=lambda m: max(m, 1), length=None)
    other = approx(alt, w, k)
    for n in range(k + 1):
        assert base.row(n) == other.row(n)


def test_limit_memoization_is_pure():
    w = nu_words([0, 2, 0, 1])
    a = LimitAutomorphism(D, w, fresh_scale())
    b = LimitAutomorphism(D, w, fresh_scale())
    pts = [(n, m) for n in range(3) for m in range(8)]
    first = [a.apply(n, m) for (n, m) in pts]
    second = [a.apply(n, m) for (n, m) in pts]  # cached pass
    fresh = [b.apply(n, m) for (n, m) in pts]
    assert first == second == fresh


def test_closure_check_structures():
    L = LimitAutomorphism(D, nu_words([1]), fresh_scale())
    assert closure_check(L, TRIVIAL_STRUCTURE, 8)
    assert closure_check(L, MATCHING_STRUCTURE, 8)
    rng = random.Random(42)
    prefix = random_sparse_nu_prefix(rng)
    L2 = LimitAutomorphism(D, nu_words(prefix), fresh_scale())
    assert closure_check(L2, MATCHING_STRUCTURE, 12)
