"""The Cauchy loader, the explicit prefix's bound check, the trusted
compose and inverse_apply's cycle walk against plain-dict references.

null_sequence_from_json reads a Cauchy prefix into plain maps, takes the
mover bounds and the collapse check from c[2n](m) != c[2n+1](m), and builds
each quotient on its first fetch.  The reference below is the eager rule:
validate every c[i] as a map, compose every quotient inverse(c[2n]) c[2n+1]
up front, and read the bounds off the quotient supports.  Both must give
the same terms in any read order, the same bounds, and on a defective input
the same exception type and message, whichever members the loader reads
in its loop and whichever it hands to _checked_moves.  An explicit
prefix's declared bounds are checked against the per-point scan: for each
(m, K) in order, every term from K on must fix m.
"""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from grpeq.load import null_sequence_from_json, read
from grpeq.perm import IDENTITY, NoBound, NotNull, NullSequence, Perm, compose

ORACLE = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def natural(value):
    return type(value) is int and value >= 0  # JSON true and 1.0 are not naturals


def reference_moves(pairs):
    """A pair list as a dict of moved points, with the eager rule's checks
    in its order: a member that is not a list, a pair that is not two
    values and a point that is a list (which no dict can hold) fail at
    once, then every duplicate, then naturals, then permutation."""
    if not isinstance(pairs, list):
        raise ValueError(f"expected a JSON list, got {pairs!r}")
    mapping = {}
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"not a [point, image] pair: {pair!r}")
        p, q = pair
        if isinstance(p, list):
            raise ValueError("points must be naturals")
        if p in mapping:
            raise ValueError(f"duplicate point {p}")
        mapping[p] = q
    moves = {}
    for k, v in mapping.items():
        if not (natural(k) and natural(v)):
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


def load_cauchy(c):
    """The null sequence of a Cauchy prefix of Perms, loaded from its JSON form."""
    c = [[[m, p.apply(m)] for m in p.support()] for p in c]
    return null_sequence_from_json({"kind": "cauchy", "c": c})


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
    d = null_sequence_from_json({"kind": "cauchy", "c": c})
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


DEFECTS = ["duplicate", "repeat", "negative", "non-permutation", "collapse", "odd", "not-a-list",
           "bad-pair", "boolean", "float", "nested"]
NOT_LISTS = [5, "ab", {"a": 1}, None]
BAD_PAIRS = [[1, 2, 3], [4], 5, "ab", {"a": 1}, None]


def inject(c, defect, late):
    """Put one defect into c, in its first or its last pair."""
    n = len(c) // 2 - 1 if late else 0
    i = 2 * n + (1 if late else 0)
    if not (isinstance(c[2 * n], list) and isinstance(c[2 * n + 1], list)):
        return  # a member that is no longer a list keeps that defect
    if defect == "not-a-list":
        c[i] = NOT_LISTS[len(c[i]) % len(NOT_LISTS)]
    elif defect == "bad-pair":
        c[i] = c[i] + [BAD_PAIRS[len(c[i]) % len(BAD_PAIRS)]]
    elif defect == "duplicate":
        c[i] = c[i] + [[7, 7], [7, 8]]
    elif defect == "repeat":  # no fixed point, so the loop sees the duplicate
        c[i] = c[i] + (c[i][:1] or [[7, 8], [7, 8]])
    elif defect == "negative":
        c[i] = c[i] + [[-1, -2], [-2, -1]]
    elif defect == "non-permutation":
        c[i] = c[i] + [[40, 41]]
    elif defect == "boolean":  # a duplicate of 1 when the member moves 1
        c[i] = c[i] + [[True, 1]]
    elif defect == "float":
        c[i] = c[i] + [[1.0, 2]]
    elif defect == "nested":
        c[i] = c[i] + [[[1], 2]]
    elif defect == "collapse":
        c[2 * n + 1] = list(reversed(c[2 * n])) + [[50, 50]]


T01, T12, T23 = [[0, 1], [1, 0]], [[1, 2], [2, 1]], [[2, 3], [3, 2]]


@ORACLE
@given(
    c=cauchy_prefixes(width=6, max_terms=6),
    defects=st.lists(st.tuples(st.sampled_from(DEFECTS), st.booleans()), min_size=1, max_size=2),
)
# pair 0 collapses and the last member has a duplicate: the member's line wins
@example(c=[T01, T01, T12, T23], defects=[("duplicate", True)])
@example(c=[T01, T01, T12, T23], defects=[("boolean", True)])
# pair 0 collapses and the length is odd: the odd length wins
@example(c=[T01, T01, T12, T23], defects=[("odd", False)])
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
        # members with no fixed point, which the loader reads in its loop
        ([[[0, 1], [1, 0], [0, 1]], []], "duplicate point 0"),
        ([[[0, 1], [1, 0]], [[0, 1], [1, 0], [0, 1]]], "c[1]: duplicate point 0"),
        ([[[0, 1], [1, 0]], [[0, -1], [-1, 0]]], "c[1]: points must be naturals"),
        ([[[0, True], [1, 0]], []], "points must be naturals"),  # an image equal to 1
        ([[[0, 1.0], [1, 0]], []], "points must be naturals"),
        ([[[0, 1], [1, 0]], [[0, True], [1, 0]]], "c[1]: points must be naturals"),
        ([T01, T01, T23], "cauchy prefix has odd length 3: c[2] has no partner"),
        # the member without a partner is checked too, before the odd length
        ([T01, T01, [[0, 1]]], "c[2]: mapping is not a permutation of its support"),
        ([[[0, 1]]], "mapping is not a permutation of its support"),
    ],
)
def test_checks_keep_their_order(tmp_path, c, message):
    # a duplicate wins over an earlier negative point, naturals over a
    # non-permutation, every c[i] is checked before the pairs, and an odd
    # length before a collapse.  A member's message is led by its path,
    # c[0] unless named, and a NotNull's by none, so the file's line reads
    # exactly as below
    want = message if message.startswith(("c[", "pair ", "cauchy ")) else f"c[0]: {message}"
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kind": "cauchy", "c": c}))
    for load in (reference, lambda c: null_sequence_from_json({"kind": "cauchy", "c": c})):
        with pytest.raises(ValueError) as exc:
            load(c)
        assert str(exc.value) == want
    with pytest.raises(ValueError) as exc:
        read(str(path), null_sequence_from_json)
    assert str(exc.value) == f"{path}: {want}"


def reference_explicit(terms, bounds):
    """The bounds of an explicit prefix of plain dicts, by the per-point
    scan: no term is the identity, then each declared (m, K) in order
    fails at the first term from K on that moves m."""
    for i, t in enumerate(terms):
        if not t:
            raise NotNull(f"term {i} is the identity")
    for m, k in bounds:
        for idx in range(k, len(terms)):
            if terms[idx].get(m, m) != m:
                raise NoBound(f"declared bound {k} for point {m} fails at term {idx}")
    return dict(bounds)


@st.composite
def explicit_prefixes(draw, width=6, max_terms=12):
    """Terms below width + 2, now and then one identity, and declared
    bounds (m, K) for distinct points, each K the least true bound or any
    index up to one past the end."""
    swap = {width: width + 1, width + 1: width}
    identity = draw(st.integers(-1, 2 * max_terms))
    terms = [{} if i == identity else reference_moves(p) or swap
             for i, p in enumerate(draw(st.lists(pair_list(width), max_size=max_terms)))]
    last = {m: i for i, t in enumerate(terms) for m in t}
    points = draw(st.lists(st.integers(0, width + 1), unique=True, max_size=width))
    return terms, [(m, draw(st.just(last.get(m, -1) + 1) | st.integers(0, len(terms) + 1)))
                   for m in points]


@ORACLE
@given(prefix=explicit_prefixes())
def test_explicit_bounds_match_the_per_point_scan(prefix):
    terms, bounds = prefix
    want = outcome(lambda: reference_explicit(terms, bounds))
    obj = {"kind": "explicit", "perms": [[[p, q] for p, q in t.items()] for t in terms],
           "moverBound": [[m, k] for m, k in bounds]}
    for load in (lambda: NullSequence.explicit([Perm(t) for t in terms], bounds),
                 lambda: null_sequence_from_json(obj)):
        got = outcome(load)
        assert got[1:] == want[1:]
        if want[0] is not None:
            assert {m: got[0].mover_bound(m) for m in want[0]} == want[0]


def perms(width=12):
    return pair_list(width).map(lambda pairs: Perm(dict(pairs)))


@ORACLE
@given(f=perms(), g=perms(), h=perms())
def test_compose_group_laws(f, g, h):
    fg = compose(f, g)
    assert fg._map == dict_compose(f._map, g._map)
    assert all(k != v for k, v in fg._map.items())
    inv = {v: k for k, v in fg._map.items()}
    for m in fg.support() + (0, 12, 13, 100):
        assert fg.inverse_apply(m) == inv.get(m, m)
    assert compose(fg, h) == compose(f, compose(g, h))
    assert compose(f, f.inverse()) == IDENTITY == compose(f.inverse(), f)
    assert compose(f, IDENTITY) == f == compose(IDENTITY, f)


@st.composite
def long_cycles(draw, width=400):
    """(perm, its inverse as a plain dict): one cycle through up to 200
    points, or a random permutation of them, built from the drawn images."""
    pts = draw(st.permutations(range(width)))[: draw(st.integers(0, 200))]
    images = pts[1:] + pts[:1] if draw(st.booleans()) else draw(st.permutations(pts))
    return Perm(dict(zip(pts, images))), {q: p for p, q in zip(pts, images)}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=long_cycles())
def test_inverse_apply_walks_the_cycle(case):
    p, inv = case
    for m in list(inv) + [400, 401]:
        assert p.inverse_apply(m) == inv.get(m, m)
        assert p.inverse_apply(p.apply(m)) == m
    assert p.inverse()._map == {m: q for m, q in inv.items() if m != q}
