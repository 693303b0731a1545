"""Word grammar: canonical forms, evaluation, the nu-indexed family."""

import dataclasses
import random

import pytest

from grpeq.perm import IDENTITY, Perm, compose
from grpeq.words import (
    TRIVIAL_WORD,
    Word,
    canonicalize,
    evaluate,
    nu_at,
    nu_from_json,
    nu_to_json,
    nu_words,
    random_sparse_nu_prefix,
)
from grpeq.solver import PERM_OPS


def random_factors(rng, size=8, idx_bound=3, exp_bound=3):
    out = []
    for _ in range(rng.randint(0, size)):
        kind = rng.choice("xy")
        out.append((kind, rng.randint(1, idx_bound), rng.randint(-exp_bound, exp_bound)))
    return out


def test_canonicalize_merges_adjacent():
    w = canonicalize([("x", 1, 1), ("x", 1, 1)])
    assert w.factors == (("x", 1, 2),)


def test_canonicalize_cancels_through_zero():
    w = canonicalize([("y", 1, 2), ("y", 1, -2), ("x", 1, 1)])
    assert w.factors == (("x", 1, 1),)
    nested = canonicalize([("x", 1, 1), ("y", 1, 1), ("y", 1, -1), ("x", 1, -1)])
    assert nested.factors == ()


def test_canonicalize_drops_zero_exponents():
    assert canonicalize([("x", 2, 0)]).factors == ()


def test_canonicalize_idempotent_random():
    rng = random.Random(21)
    for _ in range(300):
        w = canonicalize(random_factors(rng))
        assert canonicalize(w.factors) == w
        for a, b in zip(w.factors, w.factors[1:]):
            assert a[:2] != b[:2]
        assert all(f[2] != 0 for f in w.factors)


def test_canonicalize_rejects_bad_factors():
    with pytest.raises(ValueError):
        canonicalize([("z", 1, 1)])
    with pytest.raises(ValueError):
        canonicalize([("x", 0, 1)])


def test_length_examples():
    assert Word(()).length() == 0
    assert canonicalize([("x", 1, 2), ("x", 2, -3)]).length() == 5
    assert canonicalize([("x", 1, 1), ("y", 1, 4)]).length() == 5
    assert TRIVIAL_WORD.length() == 1


def test_is_trivial():
    assert TRIVIAL_WORD.is_trivial
    assert canonicalize([("y", 1, 1)]).is_trivial
    assert not canonicalize([("x", 1, 1)]).is_trivial
    assert not canonicalize([("x", 1, 1), ("y", 1, 1)]).is_trivial
    assert not Word(()).is_trivial


def test_arities_and_budget():
    w = canonicalize([("x", 2, 1), ("y", 1, 3), ("x", 1, -1)])
    assert w.arities() == (2, 1)
    assert Word(()).arities() == (0, 0)


def test_evaluate_examples():
    t23 = Perm.transposition(2, 3)
    t45 = Perm.transposition(4, 5)
    w = canonicalize([("x", 1, 1), ("y", 1, 2)])
    got = evaluate(w, [t23], [t45], PERM_OPS)
    assert got == t23  # y-slot squares to identity
    w2 = canonicalize([("x", 1, 1), ("y", 1, 1)])
    assert evaluate(w2, [t23], [t45], PERM_OPS) == compose(t23, t45)
    assert evaluate(Word(()), [], [], PERM_OPS) == IDENTITY


def test_evaluate_negative_exponent():
    c = Perm.from_cycle([0, 1, 2])
    w = canonicalize([("x", 1, -2)])
    assert evaluate(w, [c], [], PERM_OPS) == compose(c, c).inverse()


def test_evaluate_identity_substitution():
    rng = random.Random(22)
    for _ in range(100):
        w = canonicalize(random_factors(rng))
        xa, ya = w.arities()
        got = evaluate(w, [IDENTITY] * xa, [IDENTITY] * ya, PERM_OPS)
        assert got == IDENTITY


def test_evaluate_concatenation_homomorphism():
    rng = random.Random(23)
    pool = [Perm.transposition(2 * i, 2 * i + 1) for i in range(4)]
    pool.append(Perm.from_cycle([0, 2, 4]))
    for _ in range(100):
        fa, fb = random_factors(rng), random_factors(rng)
        joined = canonicalize(list(fa) + list(fb))
        xs = [rng.choice(pool) for _ in range(3)]
        ys = [rng.choice(pool) for _ in range(3)]
        lhs = evaluate(joined, xs, ys, PERM_OPS)
        rhs = compose(
            evaluate(canonicalize(fa), xs, ys, PERM_OPS),
            evaluate(canonicalize(fb), xs, ys, PERM_OPS),
        )
        assert lhs == rhs


def test_nu_words_mapping():
    w = nu_words([0, 1, 3])
    assert w.var_budget == 1
    assert w.gen(0) == TRIVIAL_WORD
    assert w.gen(1).factors == (("x", 1, 1), ("y", 1, 1))
    assert w.gen(2).factors == (("x", 1, 1), ("y", 1, 3))
    assert w.gen(3) == TRIVIAL_WORD  # zero tail
    assert w.gen(100) == TRIVIAL_WORD
    assert w.gen(1).length() == 2
    assert w.gen(2).length() == 4


def test_nu_words_callable_source():
    w = nu_words(lambda n: 1)
    assert w.gen(7).factors == (("x", 1, 1), ("y", 1, 1))


def test_nu_words_reuses_one_word_per_exponent():
    w = nu_words([2, 0, 2, 1, -1])
    assert w.gen(0) is w.gen(2)
    assert w.gen(1) is w.gen(9) is TRIVIAL_WORD
    # a wrapped gen, as a tracer installs it, still reads the same words
    wrapped = dataclasses.replace(w, gen=lambda n: w.gen(n))
    assert wrapped.gen(2) is w.gen(0)
    assert wrapped.gen(3).factors == (("x", 1, 1), ("y", 1, 1))
    for _ in range(2):
        with pytest.raises(ValueError, match="naturals"):
            wrapped.gen(4)


def test_nu_words_declares_a_trivial_tail_only_for_a_list():
    entries = [0, 2, 0, 1]
    w = nu_words(entries)
    assert w.trivial_from == 4
    # the list is copied: a later append changes no word and no declaration
    entries.append(3)
    assert w.gen(4) is TRIVIAL_WORD and w.trivial_from == 4
    view = nu_words(lambda n: nu_at(entries, n))
    assert view.trivial_from is None
    assert view.gen(4) == Word((("x", 1, 1), ("y", 1, 3)))
    assert [view.gen(n) for n in range(4)] == [w.gen(n) for n in range(4)]
    assert nu_words([]).trivial_from == 0


def test_nu_at():
    assert nu_at([0, 2], 1) == 2
    assert nu_at([0, 2], 5) == 0


def test_nu_json_roundtrip():
    nu = [0, 2, 0, 1]
    blob = nu_to_json(nu)
    assert blob == {"prefix": [0, 2, 0, 1], "tail": "zero"}
    loaded = nu_from_json(blob)
    assert loaded == nu
    assert [nu_at(loaded, n) for n in range(6)] == [0, 2, 0, 1, 0, 0]
    with pytest.raises(ValueError):
        nu_from_json({"prefix": [0], "tail": "ones"})
    with pytest.raises(ValueError):
        nu_from_json({"prefix": [-1], "tail": "zero"})


def test_random_sparse_prefix_shape():
    rng = random.Random(9)
    for _ in range(50):
        prefix = random_sparse_nu_prefix(rng)
        assert len(prefix) == 24
        nonzero = [v for v in prefix if v]
        assert 1 <= len(nonzero) <= 4
        assert all(1 <= v <= 3 for v in nonzero)
        assert all(v == 0 for v in prefix[20:])
