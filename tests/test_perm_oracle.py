"""The Cauchy loader and the trusted compose against plain-dict references.

null_sequence_from_json reads a Cauchy prefix into plain maps, takes the
mover bounds and the collapse check from c[2n](m) != c[2n+1](m), and builds
each quotient on its first fetch.  The reference below is the eager rule:
validate every c[i] as a map, compose every quotient inverse(c[2n]) c[2n+1]
up front, and read the bounds off the quotient supports.  Both must give
the same terms in any read order, the same bounds, and on a defective input
the same exception type and message.
"""

import pytest
from hypothesis import given, settings, strategies as st

from grpeq.load import null_sequence_from_json
from grpeq.perm import IDENTITY, NotNull, Perm, cauchy_to_null, compose

ORACLE = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def reference_moves(pairs):
    """A pair list as a dict of moved points, with the eager rule's checks
    in its order: every duplicate first, then naturals, then permutation."""
    mapping = {}
    for p, q in pairs:
        if p in mapping:
            raise ValueError(f"duplicate point {p}")
        mapping[p] = q
    moves = {}
    for k, v in mapping.items():
        if k < 0 or v < 0:
            raise ValueError("points must be naturals")
        if k != v:
            moves[k] = v
    if set(moves) != set(moves.values()):
        raise ValueError("mapping is not a permutation of its support")
    return moves


def dict_compose(f, g):
    """m -> f(g(m)) on plain dicts of moved points."""
    out = {m: f.get(g.get(m, m), g.get(m, m)) for m in set(f) | set(g)}
    return {m: v for m, v in out.items() if m != v}


def reference(c):
    """(quotients, bounds) of a Cauchy prefix of pair lists, all eager.  A
    member's message is led by its JSON path, c[i]."""
    perms = []
    for i, p in enumerate(c):
        try:
            perms.append(reference_moves(p))
        except ValueError as exc:
            raise ValueError(f"c[{i}]: {exc}") from None
    if len(perms) % 2:
        raise NotNull(f"cauchy prefix has odd length {len(perms)}: c[{len(perms) - 1}] has no partner")
    terms = []
    for n in range(len(perms) // 2):
        a_inv = {v: k for k, v in perms[2 * n].items()}
        d = dict_compose(a_inv, perms[2 * n + 1])
        if not d:
            raise NotNull(f"pair {n} collapses: c[{2 * n}] equals c[{2 * n + 1}]")
        terms.append(d)
    bounds = {}
    for n, d in enumerate(terms):
        for m in d:
            bounds[m] = n + 1
    return terms, bounds


def outcome(fn):
    try:
        return fn(), None, None
    except (ValueError, IndexError) as exc:
        return None, type(exc), str(exc)


@st.composite
def pair_list(draw, width):
    """A random permutation below width as sorted [point, image] pairs,
    sometimes with a fixed point listed."""
    pts = draw(st.lists(st.integers(0, width - 1), unique=True, max_size=6))
    images = draw(st.permutations(pts))
    return sorted([p, q] for p, q in zip(pts, images))


@st.composite
def cauchy_prefixes(draw, width=30, max_terms=12):
    """A Cauchy prefix of pair lists whose pairs never collapse."""
    c = []
    for _ in range(draw(st.integers(1, max_terms))):
        a = draw(pair_list(width))
        b = draw(pair_list(width))
        if reference_moves(a) == reference_moves(b):
            b = sorted(a + [[width, width + 1], [width + 1, width]])
        c += [a, b]
    return c


@ORACLE
@given(c=cauchy_prefixes(), data=st.data())
def test_loader_matches_eager_reference(c, data):
    terms, bounds = reference(c)
    top = max((m for d in terms for m in d), default=0) + 2
    for d in (
        null_sequence_from_json({"kind": "cauchy", "c": c}),
        cauchy_to_null([Perm.from_pairs(p) for p in c]),
    ):
        assert d.length == len(terms)
        order = data.draw(st.lists(st.integers(0, len(terms) - 1), max_size=3 * len(terms)))
        for n in order + list(range(len(terms))):
            got = d.perm(n)
            assert got == Perm(terms[n])
            assert d.perm(n) is got  # built once, then kept
            for m in range(top):
                assert got.inverse_apply(got.apply(m)) == m
        for m in range(top + 1):
            assert d.mover_bound(m) == bounds.get(m, 0)


DEFECTS = ["duplicate", "negative", "non-permutation", "collapse", "odd"]


def inject(c, defect, late):
    """Put one defect into c, in its first or its last pair."""
    n = len(c) // 2 - 1 if late else 0
    i = 2 * n + (1 if late else 0)
    if defect == "duplicate":
        c[i] = c[i] + [[7, 7], [7, 8]]
    elif defect == "negative":
        c[i] = c[i] + [[-1, -1]]
    elif defect == "non-permutation":
        c[i] = c[i] + [[40, 41]]
    elif defect == "collapse":
        c[2 * n + 1] = list(reversed(c[2 * n])) + [[50, 50]]


@ORACLE
@given(
    c=cauchy_prefixes(width=6, max_terms=6),
    defects=st.lists(st.tuples(st.sampled_from(DEFECTS), st.booleans()), min_size=1, max_size=2),
)
def test_defects_raise_as_the_eager_reference(c, defects):
    c = list(c)
    for defect, late in defects:
        if defect != "odd":
            inject(c, defect, late)
    # an odd length comes last, so the other defects see whole pairs
    if any(defect == "odd" for defect, _ in defects):
        c.pop()
    want = outcome(lambda: reference(c))
    assert want[1] is not None
    got = outcome(lambda: null_sequence_from_json({"kind": "cauchy", "c": c}))
    assert got[1:] == want[1:]


@pytest.mark.parametrize(
    "c, message",
    [
        ([[[0, -1], [-1, 0], [3, 4], [3, 5]], []], "duplicate point 3"),
        ([[[2, 2], [2, 3]], []], "duplicate point 2"),
        ([[[0, -1], [-1, 0], [5, 6]], []], "points must be naturals"),
        ([[[0, 1]], [[0, 1], [1, 0]], [[0, 0]]], "mapping is not a permutation of its support"),
        ([[[0, 1], [1, 0]], [[1, 0], [0, 1], [2, 2]]], "pair 0 collapses: c[0] equals c[1]"),
    ],
)
def test_checks_keep_their_order(c, message):
    # a duplicate wins over an earlier negative point, naturals over a
    # non-permutation, and every c[i] is checked before the pairs; each case
    # here fails at c[0], named in front of a member's message
    want = message if message.startswith("pair ") else f"c[0]: {message}"
    for load in (reference, lambda c: null_sequence_from_json({"kind": "cauchy", "c": c})):
        with pytest.raises(ValueError) as exc:
            load(c)
        assert str(exc.value) == want


def perms(width=12):
    return pair_list(width).map(Perm.from_pairs)


@ORACLE
@given(f=perms(), g=perms(), h=perms())
def test_compose_group_laws(f, g, h):
    fg = compose(f, g)
    assert fg._map == dict_compose(f._map, g._map)
    assert all(k != v for k, v in fg._map.items())
    assert fg._inv == {v: k for k, v in fg._map.items()}
    assert compose(fg, h) == compose(f, compose(g, h))
    assert compose(f, f.inverse()) == IDENTITY == compose(f.inverse(), f)
    assert compose(f, IDENTITY) == f == compose(IDENTITY, f)
