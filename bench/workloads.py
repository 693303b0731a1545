"""Seeded inputs for the benchmark workloads.

Every instance is generated from a string seed made of the workload name,
the run seed, the pass number and the instance index, so the same seed
always gives the same inputs.  Each pass gets fresh inputs: no two passes
of a run repeat a driving sequence or an exponent prefix, so a cache that
keys on input content cannot carry over from one pass to the next.

Files are written to the pass directory under relative names, and the CLI
runs with that directory as its working directory, so reports never hold
an absolute path and hash the same in every checkout.

This module does not import grpeq: it generates inputs only.
"""

from __future__ import annotations

import itertools
import json
import os
import random

# Sizes per workload.  "instances" is the number of instances in one pass;
# "tail_pct" the percentile reported as instance_tail_s, chosen so that a
# run of 15 reference-speed seconds leaves at least ten instances beyond it.
# A diagonalize pass holds two instances for each of seven grid counts,
# about 3.3 reference-speed seconds, so a run is five passes, away from
# the edges at four and six.  The median and p80 then each fall inside the
# block of one count (45 and 55) and average its eight to twelve runs.
WORKLOADS = {
    "solve-builtin": {
        "kind": "solve",
        "instances": 40,
        "tail_pct": 90,
        "window": [4, 16],
        "depth": 128,
    },
    "solve-cauchy": {
        "kind": "solve",
        "instances": 40,
        "tail_pct": 90,
        "window": [4, 16],
        "depth": 128,
        "terms": 1500,
    },
    "diagonalize": {
        "kind": "diagonalize",
        "instances": 14,
        "tail_pct": 80,
        "basis": [2, 6],
        "count": [30, 60],
    },
}

MANIFEST = "manifest.json"


def sparse_nu_prefix(rng: random.Random, positions: int, span: int = 20, max_exp: int = 3,
                     length: int = 24) -> list[int]:
    """The sampling rule of grpeq.words.random_sparse_nu_prefix at its
    defaults, with the number of nonzero places given: that many exponents
    from 1..3 in the first 20 places, zeros elsewhere.  Kept here so the
    inputs do not change when the library does."""
    entries = [0] * length
    for p in rng.sample(range(span), positions):
        entries[p] = rng.randint(1, max_exp)
    return entries


def _cycle(points) -> dict[int, int]:
    return {points[i]: points[(i + 1) % len(points)] for i in range(len(points))}


def _pairs(p: dict[int, int]) -> list[list[int]]:
    return [[k, p[k]] for k in sorted(p) if p[k] != k]


def _then(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    """m -> f(g(m))."""
    return {m: f.get(g.get(m, m), g.get(m, m)) for m in set(f) | set(g)}


# Offsets 0..5 stand for the places 2n-2 .. 2n+3 around term n.
_PLACES = range(6)
_TWO_CYCLES = [_cycle(c) for c in itertools.combinations(_PLACES, 2)]
_THREE_CYCLES = [_cycle(o) for c in itertools.combinations(_PLACES, 3)
                 for o in (c, (c[0], c[2], c[1]))]
# For each choice of term and base transposition, the pair lists of c[2n]
# and c[2n+1] at offset 0, so a term costs one shift instead of a compose.
_PATTERNS = {
    k: [(_pairs(base), _pairs(_then(base, term))) for term in terms for base in _TWO_CYCLES]
    for k, terms in ((2, _TWO_CYCLES), (3, _THREE_CYCLES))
}


def cauchy_sequence(rng: random.Random, terms: int) -> list[list[list[int]]]:
    """A Cauchy prefix c of 2 * terms permutations whose quotients
    c[2n]^-1 c[2n+1] are the wanted null-sequence terms.

    Term n is a 2- or 3-cycle (even odds, then uniform) on places
    2n-2 .. 2n+3, and c[2n] a uniform transposition of the same places;
    c[2n+1] = c[2n] * term n.  Every member moves only points near 2n, so
    the prefix converges to the identity.  Terms 0 and 1 use places 0 .. 5,
    which keeps every point a natural.
    """
    c = []
    for n in range(terms):
        shift = max(0, 2 * n - 2)
        patterns = _PATTERNS[rng.choice((2, 3))]
        base, moved = patterns[rng.randrange(len(patterns))]
        c.append([[a + shift, b + shift] for a, b in base])
        c.append([[a + shift, b + shift] for a, b in moved])
    return c


def _dump(path: str, obj) -> None:
    text = json.dumps(obj, separators=(",", ":"))  # one write, not a stream of chunks
    with open(path, "w") as fh:
        fh.write(text)


def generate_pass(workload: str, seed: int, pass_index: int, dirpath: str) -> list[dict]:
    """Write the inputs of one pass into dirpath and return its manifest.

    Each manifest entry names the instance's CLI calls (argument lists,
    relative to dirpath), its output files, and the parameters the output
    checks need.
    """
    cfg = WORKLOADS[workload]
    os.makedirs(dirpath, exist_ok=True)
    instances = []
    for i in range(cfg["instances"]):
        rng = random.Random(f"{workload}:{seed}:{pass_index}:{i}")
        tag = f"{i:03d}"
        if cfg["kind"] == "solve":
            # The library draws one to four nonzero places uniformly; here
            # each pass holds each number equally often, so passes do not
            # differ in their mix of easy and hard prefixes.
            nu = sparse_nu_prefix(rng, 1 + i % 4)
            _dump(os.path.join(dirpath, f"nu-{tag}.json"), {"prefix": nu, "tail": "zero"})
            argv = ["solve"]
            entry = {"nu": nu}
            if "terms" in cfg:
                d_file = f"d-{tag}.json"
                _dump(os.path.join(dirpath, d_file),
                      {"kind": "cauchy", "c": cauchy_sequence(rng, cfg["terms"])})
                argv += ["--d", d_file]
                entry["d"] = d_file
            window = ",".join(str(x) for x in cfg["window"])
            out = f"solve-{tag}.json"
            argv += ["--nu", f"nu-{tag}.json", "--window", window,
                     "--depth", str(cfg["depth"]), "--out", out]
            entry.update(calls=[argv], outputs=[out], window=cfg["window"], depth=cfg["depth"])
        else:
            # Diagonalize time grows about as count cubed, so one count more
            # or less moves an instance's time by several percent.  Counts
            # therefore form the same grid in every pass, seven even steps
            # over the range with two instances each, and the seed draws
            # each instance's basis.
            basis = rng.randint(*cfg["basis"])
            lo, hi = cfg["count"]
            count = lo + (hi - lo) * (i // 2) // 6
            dg, vb = f"diag-{tag}.json", f"blocked-{tag}.json"
            calls = [
                ["diagonalize", "--basis", str(basis), "--count", str(count), "--out", dg],
                ["verify-blocked", "--nu", dg, "--basis", str(basis), "--count", str(count),
                 "--check-witnesses", "--out", vb],
            ]
            entry = {"calls": calls, "outputs": [dg, vb], "basis": basis, "count": count}
        instances.append(entry)
    _dump(os.path.join(dirpath, MANIFEST), instances)
    return instances
