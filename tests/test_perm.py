"""Permutation kernel: exact metric, null sequences, structures."""

import random
from fractions import Fraction

import pytest

from grpeq.load import null_sequence_from_json
from grpeq.perm import (
    IDENTITY,
    MATCHING_STRUCTURE,
    TRIVIAL_STRUCTURE,
    NoBound,
    NotNull,
    NullSequence,
    Perm,
    cauchy_to_null,
    compose,
    metric,
)


def random_perm(rng, max_support=8, universe=20):
    pts = rng.sample(range(universe), rng.randint(0, max_support))
    images = pts[:]
    rng.shuffle(images)
    return Perm(dict(zip(pts, images)))


def test_apply_examples():
    f = Perm.transposition(2, 3)
    assert f.apply(2) == 3
    assert f.apply(3) == 2
    assert f.apply(7) == 7
    assert IDENTITY.apply(11) == 11


def test_inverse_apply_cycle():
    c = Perm.from_cycle([0, 1, 2])
    assert c.apply(0) == 1 and c.apply(1) == 2 and c.apply(2) == 0
    assert c.inverse_apply(0) == 2


def test_fixed_points_never_stored():
    assert Perm({5: 5}) == IDENTITY
    assert Perm({5: 5, 1: 2, 2: 1}).support() == (1, 2)


def test_non_permutation_rejected():
    with pytest.raises(ValueError):
        Perm({0: 1})
    with pytest.raises(ValueError):
        Perm({0: -1})


def test_compose_examples():
    f = Perm.transposition(0, 1)
    g = Perm.transposition(1, 2)
    assert compose(f, g) == Perm({0: 1, 1: 2, 2: 0})
    assert compose(f, f) == IDENTITY
    assert compose(f, IDENTITY) == f
    assert compose(IDENTITY, f) == f


def test_compose_and_inverse_pointwise_oracle():
    rng = random.Random(11)
    for _ in range(200):
        f, g = random_perm(rng), random_perm(rng)
        fg = compose(f, g)
        for m in range(25):
            assert fg.apply(m) == f.apply(g.apply(m))
        inv = f.inverse()
        for m in range(25):
            assert inv.apply(f.apply(m)) == m
            assert f.inverse_apply(m) == inv.apply(m)


def test_group_laws_random():
    rng = random.Random(12)
    for _ in range(200):
        f, g, h = random_perm(rng), random_perm(rng), random_perm(rng)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
        assert compose(f, f.inverse()) == IDENTITY
        assert compose(f.inverse(), f) == IDENTITY


def test_metric_examples():
    assert metric(IDENTITY, Perm.transposition(0, 1)) == Fraction(1)
    assert metric(Perm.transposition(2, 3), Perm.transposition(4, 5)) == Fraction(1, 4)
    f = Perm.transposition(2, 3)
    assert metric(f, f) == Fraction(0)


def test_metric_axioms_random():
    rng = random.Random(13)
    perms = [random_perm(rng) for _ in range(120)]
    for i, f in enumerate(perms):
        g = perms[(i + 1) % len(perms)]
        h = perms[(i + 2) % len(perms)]
        d = metric(f, g)
        assert d == metric(g, f)
        assert (d == 0) == (f == g)
        assert metric(f, h) <= max(d, metric(g, h))
        # the ultrametric bound implies the triangle inequality
        assert metric(f, h) <= d + metric(g, h)


def test_metric_detects_inverse_disagreement():
    # the maps agree below 4 but the inverses disagree at 0
    f = Perm({0: 4, 4: 0})
    g = Perm({0: 4, 4: 5, 5: 0})
    assert all(f.apply(m) == g.apply(m) for m in range(4))
    assert metric(f, g) == Fraction(1, 1)


def test_metric_composition_continuity_witness():
    # right-composition with g is continuous: closeness past every point g
    # sends below N forces closeness below N after composing.
    g = Perm({0: 7, 7: 0, 2: 9, 9: 2})
    N = 4
    relevant = [g.apply(m) for m in range(N)] + list(range(N))
    N_prime = max(relevant) + 1
    f = Perm.transposition(N_prime, N_prime + 1)
    f_alt = Perm.transposition(N_prime + 2, N_prime + 3)
    assert metric(f, f_alt) <= Fraction(1, 2**N_prime)
    assert metric(compose(f, g), compose(f_alt, g)) <= Fraction(1, 2**N)


def test_cauchy_to_null_example():
    c = [
        Perm.transposition(0, 1),
        compose(Perm.transposition(0, 1), Perm.transposition(2, 3)),
        Perm.transposition(2, 3),
        compose(Perm.transposition(2, 3), Perm.transposition(4, 5)),
    ]
    d = cauchy_to_null(c)
    assert d.length == 2
    assert d.perm(0) == Perm.transposition(2, 3)
    assert d.perm(1) == Perm.transposition(4, 5)
    assert d.mover_bound(2) == 1
    assert d.mover_bound(4) == 2
    assert d.mover_bound(17) == 0
    # every term from a point's mover bound on fixes it
    for m in range(10):
        assert all(d.perm(k).apply(m) == m for k in range(d.mover_bound(m), d.length))


def test_cauchy_rejects_collapsing_pair():
    t = Perm.transposition(0, 1)
    with pytest.raises(NotNull):
        cauchy_to_null([t, t])


def test_explicit_validates_bounds_and_terms():
    t01 = Perm.transposition(0, 1)
    t23 = Perm.transposition(2, 3)
    d = NullSequence.explicit([t01, t23], [[0, 1], [1, 1], [2, 2], [3, 2]])
    assert d.perm(1) == t23
    assert d.mover_bound(0) == 1
    with pytest.raises(NoBound):
        d.mover_bound(9)
    with pytest.raises(NoBound):
        NullSequence.explicit([t01, t01], [[0, 1]])
    with pytest.raises(NotNull):
        NullSequence.explicit([IDENTITY], [])


def test_transpositions_family_shape():
    d = NullSequence.transpositions()
    assert d.perm(0) == Perm.transposition(0, 1)
    assert d.perm(5) == Perm.transposition(10, 11)
    for m in range(30):
        assert d.mover_bound(m) == m // 2 + 1
    # terms are built trusted; each must equal the checked constructor's
    for n in range(500):
        term = d.perm(n)
        assert term == Perm.transposition(2 * n, 2 * n + 1)
        assert term._inv == term._map
    with pytest.raises(IndexError):
        d.perm(-1)


def preserves_matching(f):
    # every edge past the support is fixed, so a window past it decides
    return MATCHING_STRUCTURE.check_window(f.apply, max(f.support(), default=0) + 2)


def test_matching_structure_examples():
    edge_swap = Perm.transposition(0, 1)
    across = Perm.transposition(1, 2)
    assert preserves_matching(edge_swap)
    assert not preserves_matching(across)
    assert preserves_matching(IDENTITY)
    assert TRIVIAL_STRUCTURE.check_window(across.apply, 4)
    # swapping two whole edges preserves the matching
    two_edges = Perm({0: 2, 1: 3, 2: 0, 3: 1})
    assert preserves_matching(two_edges)


def test_matching_closed_under_group_ops():
    rng = random.Random(14)
    d = NullSequence.transpositions()
    pool = [d.perm(n) for n in range(6)]
    for _ in range(100):
        f = compose(rng.choice(pool), rng.choice(pool))
        g = compose(f, rng.choice(pool).inverse())
        assert preserves_matching(f)
        assert preserves_matching(g)


def test_matching_window_check():
    f = Perm({0: 2, 1: 3, 2: 0, 3: 1})
    assert MATCHING_STRUCTURE.check_window(f.apply, 4)
    g = Perm.transposition(1, 2)
    assert not MATCHING_STRUCTURE.check_window(g.apply, 4)
    assert TRIVIAL_STRUCTURE.check_window(g.apply, 4)


def test_null_sequence_from_json():
    d = null_sequence_from_json({"kind": "transpositions"})
    assert d.perm(1) == Perm.transposition(2, 3)
    d2 = null_sequence_from_json(
        {
            "kind": "explicit",
            "perms": [[[4, 5], [5, 4]]],
            "moverBound": [[4, 1], [5, 1]],
        }
    )
    assert d2.perm(0) == Perm.transposition(4, 5)
    d3 = null_sequence_from_json(
        {
            "kind": "cauchy",
            "c": [[[0, 1], [1, 0]], [[0, 1], [1, 0], [2, 3], [3, 2]]],
        }
    )
    assert d3.perm(0) == Perm.transposition(2, 3)
    with pytest.raises(ValueError):
        null_sequence_from_json({"kind": "nope"})
