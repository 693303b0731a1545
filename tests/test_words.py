"""Words as exponents: evaluation and the nu-indexed family."""

import random

import pytest

from grpeq.freegrp import FreeElem
from grpeq.load import nu_from_json, nu_record
from grpeq.perm import IDENTITY, Perm, compose
from grpeq.words import (
    GroupOps,
    evaluate,
    nu_at,
    nu_words,
    random_sparse_nu_prefix,
)
from grpeq.solver import PERM_OPS

FREE_OPS = GroupOps(
    multiply=lambda a, b: a * b,
    inverse=lambda a: a.inverse(),
    identity=FreeElem.identity(),
)


def random_free(rng, size=4):
    return FreeElem.from_syllables(
        (rng.randint(1, 3), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(0, size))
    )


def random_perm(rng):
    return Perm.from_cycle(rng.sample(range(8), rng.randint(2, 5)))


def test_evaluate_is_x_times_y_to_the_t():
    # over a free group the word is x y^t, and y itself at t = 0; over
    # permutations it agrees pointwise with chasing its unit letters, the
    # right one first: y t times, then x (y once for the trivial word)
    rng = random.Random(22)
    for _ in range(200):
        t = rng.randint(0, 4)
        x, y = random_free(rng), random_free(rng)
        assert evaluate(t, x, y, FREE_OPS) == (x * y**t if t else y)
        px, py = random_perm(rng), random_perm(rng)
        got = evaluate(t, px, py, PERM_OPS)
        for m in range(10):
            want = m
            for _ in range(max(t, 1)):
                want = py.apply(want)
            if t:
                want = px.apply(want)
            assert got.apply(m) == want


def test_evaluate_examples():
    t23 = Perm.transposition(2, 3)
    t45 = Perm.transposition(4, 5)
    assert evaluate(2, t23, t45, PERM_OPS) == t23  # y-slot squares to identity
    assert evaluate(1, t23, t45, PERM_OPS) == compose(t23, t45)
    assert evaluate(0, t23, t45, PERM_OPS) == t45  # the trivial word y1


def test_evaluate_negative_exponent():
    # exponents are naturals; a negative power of y is the natural power of
    # its inverse, and a sequence with a negative entry gives no word
    c = Perm.from_cycle([0, 1, 2])
    assert evaluate(2, IDENTITY, c.inverse(), PERM_OPS) == compose(c, c).inverse()
    rng = random.Random(24)
    for _ in range(50):
        t = rng.randint(1, 4)
        x, y = random_free(rng), random_free(rng)
        assert evaluate(t, x, y.inverse(), FREE_OPS) == x * y**-t
    with pytest.raises(ValueError, match="^exponent entries must be naturals$"):
        nu_words([1, -2]).gen(1)


def test_evaluate_identity_substitution():
    for t in range(8):
        assert evaluate(t, IDENTITY, IDENTITY, PERM_OPS) == IDENTITY
        assert evaluate(t, FREE_OPS.identity, FREE_OPS.identity, FREE_OPS) == FREE_OPS.identity


def test_evaluate_concatenation_homomorphism():
    # x y^(s+t) is x y^s followed by y^t, the word of exponent t at x = 1
    rng = random.Random(23)
    pool = [Perm.transposition(2 * i, 2 * i + 1) for i in range(4)]
    pool.append(Perm.from_cycle([0, 2, 4]))
    for _ in range(100):
        s, t = rng.randint(1, 4), rng.randint(1, 4)
        px, py = rng.choice(pool), rng.choice(pool)
        assert evaluate(s + t, px, py, PERM_OPS) == compose(
            evaluate(s, px, py, PERM_OPS), evaluate(t, IDENTITY, py, PERM_OPS)
        )
        x, y = random_free(rng), random_free(rng)
        assert evaluate(s + t, x, y, FREE_OPS) == evaluate(s, x, y, FREE_OPS) * evaluate(
            t, FREE_OPS.identity, y, FREE_OPS
        )


def test_nu_words_mapping():
    w = nu_words([0, 1, 3, -1])
    assert [w.gen(n) for n in (0, 1, 2, 4, 100)] == [0, 1, 3, 0, 0]  # zero tail
    for _ in range(2):
        with pytest.raises(ValueError, match="^exponent entries must be naturals$"):
            w.gen(3)


def test_nu_words_callable_source():
    w = nu_words(lambda n: 1)
    assert w.gen(7) == 1


def test_nu_words_declares_a_trivial_tail_only_for_a_list():
    entries = [0, 2, 0, 1]
    w = nu_words(entries)
    assert w.trivial_from == 4
    # the list is copied: a later append changes no word and no declaration
    entries.append(3)
    assert w.gen(4) == 0 and w.trivial_from == 4
    view = nu_words(lambda n: nu_at(entries, n))
    assert view.trivial_from is None
    assert view.gen(4) == 3
    assert [view.gen(n) for n in range(4)] == [w.gen(n) for n in range(4)]
    assert nu_words([]).trivial_from == 0


def test_nu_at():
    assert nu_at([0, 2], 1) == 2
    assert nu_at([0, 2], 5) == 0


def test_nu_json_roundtrip():
    nu = [0, 2, 0, 1]
    blob = nu_record(nu)
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
