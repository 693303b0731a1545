"""Free-group side: roots, projections, chains, and diagonalization."""

import random
from itertools import islice

import pytest

from grpeq.freegrp import (
    BadDSeq,
    BlockSegment,
    ChainState,
    FreeElem,
    IdentityInput,
    NoRoot,
    NuPrefix,
    ObeysSegment,
    SubBasis,
    ascending_generators,
    block,
    chain_run,
    cyclic_reduce,
    diagonalize,
    enumerate_h,
    h_elements,
    has_root,
    no_root_exponent,
    project,
    reverify,
)
from grpeq.load import nu_prefix_from_json
from grpeq.perm import NullSequence
from grpeq.scale import build_scale, check_witness, make_witness

E = FreeElem.identity()
Z1, Z2, Z3 = FreeElem.gen(1), FreeElem.gen(2), FreeElem.gen(3)
ASC = ascending_generators()


def random_free(rng, gens=5, size=8):
    units = [(rng.randint(1, gens), rng.choice((1, -1))) for _ in range(rng.randint(0, size))]
    return FreeElem.from_syllables(units)


def reduced_words(num_gens, max_len):
    """Every reduced word up to the length bound, by unit-level DFS."""
    out = [E]
    frontier = [()]
    for _ in range(max_len):
        grown = []
        for units in frontier:
            for i in range(1, num_gens + 1):
                for e in (1, -1):
                    if units and units[-1] == (i, -e):
                        continue
                    grown.append(units + ((i, e),))
        frontier = grown
        out.extend(FreeElem.from_syllables(u) for u in frontier)
    return out


def test_element_basics():
    assert E.is_identity
    assert (Z1 * Z1.inverse()).is_identity
    assert (Z1 * Z2).length() == 2
    assert (Z1 * Z2) * (Z2.inverse() * Z3) == Z1 * Z3
    assert (Z1 * Z2**-3).inverse() == Z2**3 * Z1.inverse()
    assert (Z1 * Z2) ** 0 == E
    assert (Z1 * Z2) ** -2 == ((Z1 * Z2) ** 2).inverse()
    assert FreeElem.from_syllables([(1, 2), (1, -2)]) == E
    with pytest.raises(ValueError):
        FreeElem.gen(0)


def test_cyclic_reduce_examples():
    assert cyclic_reduce(Z1 * Z2 * Z1.inverse()) == (Z1, Z2)
    assert cyclic_reduce(Z1 * Z2) == (E, Z1 * Z2)
    assert cyclic_reduce(Z2.inverse() * Z1 * Z2) == (Z2.inverse(), Z1)
    assert cyclic_reduce(E) == (E, E)


def test_cyclic_reduce_reconstruction():
    rng = random.Random(52)
    for _ in range(300):
        g = random_free(rng)
        u, core = cyclic_reduce(g)
        assert u * core * u.inverse() == g
        assert cyclic_reduce(core) == (E, core)
        if len(core.letters) >= 2:  # the end syllables do not cancel
            (i, e), (j, f) = core.letters[0], core.letters[-1]
            assert i != j or (e > 0) == (f > 0)


def test_has_root_examples():
    assert has_root(Z1**6, 3) == Z1**2
    assert has_root(Z1 * Z2, 2) is None
    assert has_root((Z1 * Z2) ** 4, 2) == (Z1 * Z2) ** 2
    conj = Z3 * Z1**4 * Z3.inverse()
    assert has_root(conj, 2) == Z3 * Z1**2 * Z3.inverse()
    assert has_root(E, 3) == E
    with pytest.raises(ValueError):
        has_root(Z1, 1)


def test_has_root_against_power_table():
    words = reduced_words(2, 4)
    assert len(words) == 161
    table = {}
    for r in words:
        for t in (2, 3):
            key = (t, r**t)
            assert key not in table  # roots are unique when they exist
            table[key] = r
    for g in words:
        for t in (2, 3):
            assert has_root(g, t) == table.get((t, g))


def test_no_root_exponent_examples():
    assert no_root_exponent(Z1 * Z2) == 2
    assert no_root_exponent(Z1) == 2
    assert no_root_exponent(Z1**6) == 4
    assert no_root_exponent(Z1**12) == 5
    assert no_root_exponent((Z1 * Z2) ** 6) == 4
    with pytest.raises(IdentityInput):
        no_root_exponent(E)


def test_no_root_exponent_is_least_blocker():
    rng = random.Random(53)
    for _ in range(100):
        g = random_free(rng)
        if g.is_identity:
            continue
        t = no_root_exponent(g)
        assert 2 <= t <= g.length() + 1
        assert has_root(g, t) is None
        for smaller in range(2, t):
            assert has_root(g, smaller) is not None


def test_subbasis_membership():
    finite = SubBasis.first(4)
    assert 1 in finite and 4 in finite and 5 not in finite
    with pytest.raises(ValueError):
        SubBasis(frozenset())


def test_project_examples():
    z = SubBasis(frozenset({1, 2}))
    assert project(Z1 * Z3 * Z2, z) == Z1 * Z2
    assert project(Z3**5, z) == E
    assert project(Z1 * Z3 * Z1.inverse(), z) == E


def test_project_laws_random():
    rng = random.Random(54)
    z = SubBasis(frozenset({1, 2, 4}))
    for _ in range(300):
        g, h = random_free(rng), random_free(rng)
        pg = project(g, z)
        assert project(pg, z) == pg
        assert {i for i, _ in pg.letters} <= {1, 2, 4}
        assert project(g * h, z) == pg * project(h, z)


def test_project_fixes_subgroup_elements():
    z = SubBasis.first(3)
    for n in range(100):
        el = enumerate_h(z, n)
        assert project(el, z) == el


def test_enumeration_golden_one_generator():
    z = SubBasis.first(1)
    got = [enumerate_h(z, n) for n in range(5)]
    assert got == [E, Z1, Z1**-1, Z1**2, Z1**-2]


def recursive_h_elements(basis, count):
    """The first count elements of F(z1..z_basis) by plain recursion: the
    reduced words of each length extend those one letter shorter, in
    length-then-lex order with z_i before z_i^-1."""
    letters = [(i, e) for i in range(1, basis + 1) for e in (1, -1)]

    def of_length(length):
        if length == 0:
            yield ()
            return
        for word in of_length(length - 1):
            for i, e in letters:
                if not word or word[-1] != (i, -e):
                    yield word + ((i, e),)

    out = []
    length = 0
    while len(out) < count:
        out += [FreeElem.from_syllables(word) for word in of_length(length)]
        length += 1
    return out[:count]


@pytest.mark.parametrize("basis,count", [(1, 300), (2, 1500), (3, 1500), (4, 2000), (6, 1000)])
def test_enumeration_matches_the_recursive_reference(basis, count):
    got = list(islice(h_elements(SubBasis.first(basis)), count))
    assert got == recursive_h_elements(basis, count)


def test_enumeration_reaches_words_longer_than_the_recursion_limit():
    # element 2k of F(z1) is z1^-k: element 2100 has 1050 letters, more
    # than the default recursion limit of 1000 frames
    elements = islice(h_elements(SubBasis.first(1)), 2100, 2102)
    assert list(elements) == [FreeElem.gen(1, -1050), FreeElem.gen(1, 1051)]


def test_enumeration_golden_four_generators():
    z = SubBasis.first(4)
    got = [enumerate_h(z, n).letters for n in range(11)]
    assert got == [
        (),
        ((1, 1),),
        ((1, -1),),
        ((2, 1),),
        ((2, -1),),
        ((3, 1),),
        ((3, -1),),
        ((4, 1),),
        ((4, -1),),
        ((1, 2),),
        ((1, 1), (2, 1)),
    ]


def test_enumeration_injective_and_graded():
    z = SubBasis.first(4)
    seen = []
    for g in h_elements(z):
        seen.append(g)
        if len(seen) == 300:
            break
    assert len(set(seen)) == 300
    lengths = [g.length() for g in seen]
    assert lengths == sorted(lengths)
    assert all(project(g, z) == g for g in seen)


def test_ascending_generators():
    assert ASC(0) == Z1
    assert ASC(4) == FreeElem.gen(5)
    # each term is built once per sequence
    asc = ascending_generators()
    assert asc(7) is asc(7) == FreeElem.gen(8)
    assert ascending_generators()(7) is not asc(7)  # each call starts afresh
    for _ in range(2):  # a raising term is not remembered
        with pytest.raises(ValueError, match="generator indices start at 1"):
            asc(-1)


def drive(*terms):
    """A driving sequence of the given terms, then of the generators past them."""
    return lambda n: terms[n] if n < len(terms) else FreeElem.gen(n + 1)


def test_chain_run_copy_pin_root():
    assert chain_run(Z1, drive(FreeElem.gen(5)), [0]) == ChainState(1, Z1)
    assert chain_run(Z1 * Z2, drive(Z1), [1]) == ChainState(1, Z2)
    assert chain_run(Z1 * (Z2 * Z3) ** 2, drive(Z1), [2]) == ChainState(1, Z2 * Z3)


def test_chain_run_dead_chain_keeps_its_position():
    dead = chain_run(Z2, drive(Z1), [2])
    assert not dead.is_alive
    assert dead.position == 0
    assert dead.reason == NoRoot(2)
    # entries past the death are not read: neither a pin, nor an identity
    # term, nor a negative exponent
    assert chain_run(Z2, drive(Z1, Z3), [2, 1]) == dead
    assert chain_run(Z2, drive(Z1, E), [2, -1]) == dead


def test_chain_run_guards():
    with pytest.raises(BadDSeq, match="^driving term 0 is the identity$"):
        chain_run(Z1, drive(E), [0])
    with pytest.raises(ValueError, match="^exponent entries must be naturals$"):
        chain_run(Z1, drive(Z1), [-1])
    # the driving term is fetched before the exponent is read
    with pytest.raises(BadDSeq):
        chain_run(Z1, drive(Z2, E), [0, -1])


def test_chain_run_examples():
    assert chain_run(Z2, ASC, []) == ChainState(0, Z2)
    assert chain_run(Z2, ASC, [0]) == ChainState(1, Z2)
    assert chain_run(Z2, ASC, [1, 1]) == ChainState(
        2, Z2.inverse() * Z1.inverse() * Z2
    )
    assert chain_run(Z1 * (Z2 * Z3) ** 2, ASC, [2, 0]) == ChainState(2, Z2 * Z3)
    st = chain_run(Z2, ASC, [2, 5, 7])
    assert not st.is_alive and st.position == 0


def test_block_golden_identity_start():
    out = block(E, NuPrefix(), ASC)
    assert out.entries == [2]
    assert out.log == [BlockSegment(None, 2)]


def test_block_golden_first_generator():
    # the first quotient collapses, so a zero entry shifts to the next term
    out = block(Z1, NuPrefix(), ASC, target=7)
    assert out.entries == [0, 2]
    assert out.log == [BlockSegment(7, 2)]


def test_block_leaves_dead_chain_alone():
    prefix = NuPrefix([2], [])
    out = block(Z2, prefix, ASC)
    assert out is prefix


def test_block_rejects_coincident_driving_terms():
    with pytest.raises(BadDSeq):
        block(Z1, NuPrefix(), lambda n: Z1)


def test_block_kills_its_chain():
    rng = random.Random(55)
    seen = set()
    for trial in range(400):
        size = rng.choice((0, 1, rng.randint(2, 6)))
        entries = [rng.choice((0, 0, 1, 2, 3)) for _ in range(size)]
        if trial % 2:
            a = random_free(rng, gens=4, size=6)
        else:  # solve backwards from a random end, so the chain lives: b_n = d_n b_{n+1}^t
            a = random_free(rng, gens=4, size=4)
            for n in reversed(range(len(entries))):
                if entries[n]:
                    a = ASC(n) * a ** entries[n]
        alive = chain_run(a, ASC, entries).is_alive
        seen.add((alive, min(len(entries), 2)))
        old_log = [ObeysSegment(0, 0, 1, 5)] if rng.random() < 0.5 else []
        prefix = NuPrefix(list(entries), list(old_log))
        out = block(a, prefix, ASC, target=trial)
        assert out is prefix
        assert out.entries[: len(entries)] == entries
        assert len(out.entries) - len(entries) <= 2
        if alive:
            assert out.log == old_log + [BlockSegment(trial, out.entries[-1])]
        else:
            assert out.entries == entries and out.log == old_log
        assert not chain_run(a, ASC, out.entries).is_alive
    # chains alive and dead after 0, 1 and several entries all came up
    assert seen == {(alive, k) for alive in (True, False) for k in (0, 1, 2)} - {(False, 0)}


def test_nu_prefix_snapshot_and_words():
    p = NuPrefix([0, 2], [])
    w = p.word_seq()
    p.entries.append(9)
    assert w.gen(1).factors == (("x", 1, 1), ("y", 1, 2))
    assert w.gen(0).is_trivial
    assert w.gen(2).is_trivial  # snapshot taken before the append


def test_nu_prefix_json_roundtrip():
    p = NuPrefix(
        [0, 0, 2],
        [ObeysSegment(0, 0, 1, 5), BlockSegment(0, 2), BlockSegment(None, 3)],
    )
    blob = p.to_json()
    assert blob["entries"] == [0, 0, 2]
    assert blob["log"][0]["kind"] == "obeys"
    assert blob["log"][1] == {"kind": "block", "target": 0, "exponent": 2}
    back = nu_prefix_from_json(blob)
    assert back.entries == p.entries
    assert back.log == p.log
    with pytest.raises(ValueError):
        nu_prefix_from_json({"entries": [], "log": [{"kind": "mystery"}]})


def test_diagonalize_count_zero():
    s = build_scale(NullSequence.transpositions(), 1, 1)
    p = diagonalize(ASC, s, lambda r: enumerate_h(SubBasis.first(4), r), 0)
    assert p.entries == [] and p.log == []


def test_diagonalize_golden_count_three():
    s = build_scale(NullSequence.transpositions(), 1, 1)
    enum = lambda r: enumerate_h(SubBasis.first(4), r)
    p = diagonalize(ASC, s, enum, 3)
    assert len(p.entries) == 43
    assert p.entries[11] == 2
    assert all(v == 0 for i, v in enumerate(p.entries) if i != 11)
    assert p.log == [
        ObeysSegment(0, 0, 1, 5),
        BlockSegment(0, 2),
        ObeysSegment(1, 1, 6, 21),
        ObeysSegment(2, 2, 6, 20),
    ]
    for r in range(3):
        assert not chain_run(enum(r), ASC, p.entries).is_alive
    w = p.word_seq()
    for seg in p.log:
        if isinstance(seg, ObeysSegment):
            wit = make_witness(w, s, seg.n_star, seg.m_star, seg.i0, seg.i1)
            assert check_witness(w, s, wit)


def test_diagonalize_intervals_survive_later_rounds():
    s = build_scale(NullSequence.transpositions(), 1, 1)
    enum = lambda r: enumerate_h(SubBasis.first(4), r)
    p = diagonalize(ASC, s, enum, 8)
    report = reverify(p, ASC, s, enum, 8)
    assert report["ok"]
    assert report["verdicts"] == [[r, "dead"] for r in range(8)]


def test_reverify_catches_tampering():
    s = build_scale(NullSequence.transpositions(), 1, 1)
    enum = lambda r: enumerate_h(SubBasis.first(4), r)
    p = diagonalize(ASC, s, enum, 3)
    flat = NuPrefix([0] * len(p.entries), p.log)
    report = reverify(flat, ASC, s, enum, 3)
    assert not report["ok"]
    assert report["survivor"] == 0
    assert report["verdicts"][0] == [0, "alive"]


def test_chain_runs_are_deterministic():
    rng = random.Random(56)
    for _ in range(30):
        a = random_free(rng, gens=4, size=6)
        entries = [rng.randint(0, 3) for _ in range(6)]
        first = chain_run(a, ASC, entries)
        second = chain_run(a, ASC, entries)
        assert first == second
