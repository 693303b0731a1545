"""Acceptance gate: one test per criterion, exact equality throughout.

Criteria 1-5 exercise the permutation side (metric, scale, solver, solution
verification, interval plateau), 6-8 the free side (roots, projections,
diagonalization), and 9 the end-to-end contrast run.  Random inputs are
seeded, so every run checks identical instances.
"""

import json
import random
from fractions import Fraction

import pytest

from grpeq.cli import main as cli_main
from grpeq.freegrp import (
    FreeElem,
    ObeysSegment,
    SubBasis,
    ascending_generators,
    chain_run,
    diagonalize,
    enumerate_h,
    has_root,
    project,
    reverify,
)
from grpeq.perm import (
    MATCHING_STRUCTURE,
    NullSequence,
    Perm,
    metric,
)
from grpeq.scale import Scale, build_scale, check_witness, make_witness, verify_scale
from grpeq.solver import (
    LimitAutomorphism,
    closure_check,
    stabilization_bound,
    verify_solution,
)
from grpeq.words import nu_words, random_sparse_nu_prefix

D = NullSequence.transpositions()

CORPUS_SEED = 400
CORPUS_SIZE = 50
N_WINDOW = 4
M_WINDOW = 16
STABILITY_BAND = 8


def _pass(num, detail):
    print(f"criterion {num}: PASS - {detail}")


def random_perm(rng, max_support=8, universe=24):
    pts = rng.sample(range(universe), rng.randint(0, max_support))
    images = pts[:]
    rng.shuffle(images)
    return Perm(dict(zip(pts, images)))


def random_free(rng, gens=6, size=8):
    units = [(rng.randint(1, gens), rng.choice((1, -1))) for _ in range(rng.randint(0, size))]
    return FreeElem.from_syllables(units)


def reduced_words(num_gens, max_len):
    out = [FreeElem.identity()]
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


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    instances = []
    for _ in range(CORPUS_SIZE):
        prefix = random_sparse_nu_prefix(rng)
        s = build_scale(D, 1, 1)
        limit = LimitAutomorphism(D, nu_words(prefix), s, search_bound=128)
        instances.append((prefix, s, limit))
    return instances


def test_criterion_1_metric_laws():
    rng = random.Random(101)
    checked = 0
    for i in range(1000):
        f = random_perm(rng)
        g = f if i % 10 == 0 else random_perm(rng)
        h = random_perm(rng)
        d_fg = metric(f, g)
        assert d_fg == metric(g, f)
        assert (d_fg == 0) == (f == g)
        assert metric(f, f) == Fraction(0)
        assert d_fg >= 0
        assert metric(f, h) <= max(d_fg, metric(g, h))
        checked += 1
    assert checked == 1000
    _pass(1, "metric laws on 1000 seeded pairs, exact rationals")


def test_criterion_2_scale_golden_and_minimality():
    s = build_scale(D, 1, 10)
    assert s.prefix(10) == [0, 2, 4, 6, 8, 10, 12, 14, 16, 18]
    assert verify_scale(D, s, 10)
    bumped = Scale.from_values([0, 2, 4, 7, 9, 11, 13, 15, 17, 19], 1, validate=False)
    assert not verify_scale(D, bumped, 10)
    _pass(2, "builtin scale prefix is the frozen golden and every entry minimal")


def test_criterion_3_limit_matches_deep_truncations(corpus):
    mismatches = 0
    points = 0
    for _, s, limit in corpus:
        for n in range(N_WINDOW):
            for m in range(M_WINDOW):
                wit = limit.witness(n, m)
                k_star = stabilization_bound(wit, s)
                want = limit.apply(n, m)
                for k in range(k_star, k_star + STABILITY_BAND + 1):
                    if limit.table(k).row(n).apply(m) != want:
                        mismatches += 1
                points += 1
    assert points == CORPUS_SIZE * N_WINDOW * M_WINDOW
    assert mismatches == 0
    _pass(3, f"{points} limit values equal every truncation in the stability band")


def test_criterion_4_solution_verifies_and_respects_structure(corpus):
    for _, _, limit in corpus:
        assert verify_solution(limit, N_WINDOW, M_WINDOW) == []
    for _, _, limit in corpus[:5]:
        assert closure_check(limit, MATCHING_STRUCTURE, M_WINDOW)
    _pass(4, "equation check clean on all instances, matching structure preserved")


def test_criterion_5_interval_rows_fix_small_points(corpus):
    violations = 0
    intervals = 0
    for _, s, limit in corpus:
        wits = {}
        for n in range(N_WINDOW):
            for m in range(M_WINDOW):
                wit = limit.witness(n, m)
                wits[(wit.i0, wit.i1)] = wit
        for wit in wits.values():
            k_star = stabilization_bound(wit, s)
            guard = s.value(wit.i1 - 1)
            for k in (k_star, k_star + STABILITY_BAND):
                table = limit.table(k)
                lo, hi = s.value(wit.i0), min(s.value(wit.i1), k)
                for row_index in range(lo, hi + 1):
                    if any(pt < guard for pt in table.row(row_index).support()):
                        violations += 1
            intervals += 1
    assert intervals > 0
    assert violations == 0
    _pass(5, f"zero violations across {intervals} witness intervals")


def test_criterion_6_root_oracle_exhaustive():
    words = reduced_words(3, 6)
    assert len(words) == 23437
    table = {}
    for r in words:
        for t in (2, 3, 4):
            key = (t, r**t)
            assert key not in table  # roots are unique when they exist
            table[key] = r
    for g in words:
        for t in (2, 3, 4):
            assert has_root(g, t) == table.get((t, g))
    _pass(6, "hasRoot agrees with the brute-force power table on 23437 words")


def test_criterion_7_projection_laws():
    rng = random.Random(700)
    z = SubBasis.first(4)
    for _ in range(1000):
        g, h = random_free(rng), random_free(rng)
        pg = project(g, z)
        assert project(pg, z) == pg
        assert project(g * h, z) == pg * project(h, z)
    for n in range(200):
        el = enumerate_h(z, n)
        assert project(el, z) == el
    _pass(7, "idempotent homomorphism on 1000 pairs, fixes first 200 subgroup elements")


def test_criterion_8_diagonalization_blocks_everything():
    s = build_scale(D, 1, 1)
    basis = SubBasis.first(4)
    enum = lambda r: enumerate_h(basis, r)
    dgen = ascending_generators()
    prefix = diagonalize(dgen, s, enum, 20)
    # independent chain re-run, not the library's own audit
    for r in range(20):
        state = chain_run(enum(r), dgen, prefix.entries)
        assert not state.is_alive
    segments = [seg for seg in prefix.log if isinstance(seg, ObeysSegment)]
    assert len(segments) == 20
    w = prefix.word_seq()
    for seg in segments:
        wit = make_witness(w, s, seg.n_star, seg.m_star, seg.i0, seg.i1)
        assert check_witness(w, s, wit)
    audit = reverify(prefix, dgen, s, enum, 20)
    assert audit["ok"]
    _pass(8, "all 20 chains dead on re-run and every logged witness rebuilds")


def test_criterion_9_contrast_reproducible(tmp_path):
    first = tmp_path / "contrast-a.json"
    second = tmp_path / "contrast-b.json"
    assert cli_main(["contrast", "--out", str(first)]) == 0
    assert cli_main(["contrast", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert report["permutationSide"] == "solved"
    assert report["freeSide"] == "blocked(20)"
    assert report["equationCheck"] == "ok"
    assert len(report["reverify"]["verdicts"]) == 20
    _pass(9, "identical bytes across runs; solved on one side, blocked(20) on the other")
