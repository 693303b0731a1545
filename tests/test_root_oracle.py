"""Free-group roots and powers against a unit-letter reference, on words far
longer than the exhaustive power table of criterion 6.

The reference spells every element out letter by letter: it peels
cancelling end letters one pair at a time and looks for t identical
letter blocks in the core, probing t = 2, 3, ... for the least exponent
without a root.  grpeq works on syllables and a power form instead.
"""

from hypothesis import example, given, settings, strategies as st

from grpeq.freegrp import FreeElem, _cyclic_split, has_root, no_root_exponent

ORACLE = settings(max_examples=300, deadline=None, derandomize=True, database=None)
E = FreeElem.identity()


def units(g):
    """g as unit letters (index, +-1)."""
    return [(i, 1 if e > 0 else -1) for i, e in g.letters for _ in range(abs(e))]


def ref_cyclic_reduce(letters):
    conj = []
    while len(letters) >= 2 and letters[0] == (letters[-1][0], -letters[-1][1]):
        conj.append(letters[0])
        letters = letters[1:-1]
    return conj, letters


def ref_has_root(letters, t):
    conj, core = ref_cyclic_reduce(letters)
    if len(core) % t:
        return None
    block = core[: len(core) // t]
    if block * t != core:
        return None
    return conj + block + [(i, -e) for i, e in reversed(conj)]


def ref_no_root_exponent(letters):
    return next(t for t in range(2, len(letters) + 2) if ref_has_root(letters, t) is None)


def is_reduced(g):
    pairs = zip(g.letters, g.letters[1:])
    return all(e != 0 for _, e in g.letters) and all(a[0] != b[0] for a, b in pairs)


@st.composite
def words(draw, gens=None, syllables=4):
    """A reduced word over z1..z_gens with syllable exponents up to 40."""
    gens = gens or draw(st.integers(1, 4))
    exp = st.integers(1, 40).flatmap(lambda e: st.sampled_from((e, -e)))
    syllable = st.tuples(st.integers(1, gens), exp)
    return FreeElem.from_syllables(draw(st.lists(syllable, max_size=syllables)))


@st.composite
def conjugated_powers(draw):
    """(u r^k u^-1, r), with r drawn three ways: a plain word; a word whose
    two ends share a generator and a sign, so its core has to be rotated
    before it repeats; or q q plus part of another q, which repeats
    without being a power."""
    gens = draw(st.integers(1, 4))
    u, r = draw(words(gens, 3)), draw(words(gens, 4))
    kind = draw(st.sampled_from(["plain", "shared ends", "near power"]))
    k = draw(st.integers(-6, 6))
    if kind == "shared ends":
        i = draw(st.integers(1, gens))
        a, b = draw(st.integers(1, 40)), draw(st.integers(1, 40))
        sign = draw(st.sampled_from((1, -1)))
        r = FreeElem.gen(i, sign * a) * r * FreeElem.gen(i, sign * b)
    elif kind == "near power" and len(r.letters) >= 2:
        q = r.letters
        size = draw(st.integers(2, 3)) * len(q) + draw(st.integers(1, len(q) - 1))
        r = FreeElem.from_syllables((q * 4)[:size])
        # r^k for |k| >= 2 is periodic with a period dividing its length again
        k = draw(st.sampled_from((1, -1, 2)))
    return u * r**k * u.inverse(), r


ABA = FreeElem.from_syllables([(1, 3), (2, -1), (1, 2)])
ABCABCAB = FreeElem.from_syllables(([(1, 2), (2, -1), (3, 5)] * 3)[:8])


@ORACLE
@given(conjugated_powers())
@example((ABA**2, ABA))  # the core z2^-1 z1^5 z2^-1 z1^5 only repeats once rotated
@example((ABCABCAB, ABCABCAB))  # repeats with shift 3, yet is no power
def test_roots_match_the_unit_letter_reference(case):
    g, r = case
    letters = units(g)
    u, core = _cyclic_split(g.letters)  # the split has_root reads
    assert (units(FreeElem(u)), units(FreeElem(core))) == ref_cyclic_reduce(letters)
    for t in range(2, 8):
        root = has_root(g, t)
        assert (None if root is None else units(root)) == ref_has_root(letters, t)
        assert root is None or is_reduced(root)
        assert has_root(r**t, t) == r
    if not g.is_identity:
        assert no_root_exponent(g) == ref_no_root_exponent(letters)


def test_the_samples_are_long():
    lengths = []

    @ORACLE
    @given(conjugated_powers())
    def collect(case):
        lengths.append(len(units(case[0])))

    collect()
    # criterion 6's table stops at length 6
    assert sum(n > 40 for n in lengths) > len(lengths) // 2


@st.composite
def seams(draw):
    """(a, b) where b starts by undoing a's last k syllables, the deepest
    of them perhaps only in part, and then goes on as another word, so the
    product merges or cancels through several syllable pairs."""
    gens = draw(st.integers(1, 4))
    a, c = draw(words(gens, 5)), draw(words(gens, 3))
    undo = list(a.inverse().letters[: draw(st.integers(0, len(a.letters)))])
    if undo and draw(st.booleans()):
        i, e = undo[-1]
        undo[-1] = (i, e + draw(st.integers(-3, 3)))
    return a, FreeElem.from_syllables(undo + list(c.letters))


@settings(ORACLE, max_examples=150)
@given(seams())
def test_the_seam_product_matches_a_full_reduction(case):
    a, b = case
    product = a * b
    assert product == FreeElem.from_syllables(a.letters + b.letters)
    assert is_reduced(product)


@ORACLE
@given(words(), words(), words(), st.integers(-5, 5), st.integers(-5, 5))
def test_group_laws(g, h, k, a, b):
    assert (g * h) * k == g * (h * k)
    assert g * E == g == E * g
    assert (g * g.inverse()).is_identity and (g.inverse() * g).is_identity
    assert g**a * g**b == g ** (a + b)
    assert (g**a) ** b == g ** (a * b)
    assert g**0 == E and g**1 == g and g**-1 == g.inverse()
    power = g**a
    assert is_reduced(power)
    product = E
    for _ in range(abs(a)):
        product = product * (g if a >= 0 else g.inverse())
    assert power == product
