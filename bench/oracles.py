"""Output checks that share no code with grpeq.

Every check recomputes what a report claims from the instance's inputs
alone, with its own permutation and free-group arithmetic, and returns a
list of problems (empty when the report is right):

- the scale: j_n = 2n for the built-in transpositions; for Cauchy-derived
  sequences a clause-by-clause recomputation (image, preimage, mover-bound
  and gap clauses, each entry the maximum of its lower bounds);
- every witness: index order, the triviality clause, the length-sum
  clause, and that it is the least (i0, i1) below the search bound;
- every limit value, against the exact solution by downward substitution
  (beyond the last nonzero exponent every row is the identity);
- for diagonalize: the log's witnesses against the built-in scale, every
  enumerated chain re-run and found dead, and every verdict "dead".

This module must not import grpeq.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os

Perm = dict  # point -> image, fixed points omitted


def _apply(p: Perm, m: int) -> int:
    return p.get(m, m)


# -- driving sequences -----------------------------------------------------


class Builtin:
    """Term n swaps 2n and 2n+1, which gives the scale j_n = 2n at budget 1."""

    def term(self, n: int) -> Perm:
        return {2 * n: 2 * n + 1, 2 * n + 1: 2 * n}

    def scale(self, n: int) -> int:
        return 2 * n


class Cauchy:
    """Quotients c[2n]^-1 c[2n+1] of a Cauchy prefix, with mover bounds
    from the last term that moves each point, and the scale recomputed
    clause by clause."""

    def __init__(self, c_pairs, budget: int = 1):
        self.terms = []
        for n in range(len(c_pairs) // 2):
            a_inv = {y: x for x, y in c_pairs[2 * n]}
            b = dict(c_pairs[2 * n + 1])
            term = {}
            for m in a_inv.keys() | b.keys():
                v = b.get(m, m)
                v = a_inv.get(v, v)
                if v != m:
                    term[m] = v
            self.terms.append(term)
        mover = {}
        for n, t in enumerate(self.terms):
            for m in t:
                mover[m] = n + 1
        # Mover bounds of moved points in ascending order, with running
        # maxima, so the clause over all points below j is one lookup.
        self._moved = sorted(mover)
        self._mover_max = list(itertools.accumulate((mover[m] for m in self._moved), max))
        self.budget = budget
        self._js = [0]

    def term(self, n: int) -> Perm:
        return self.terms[n]

    def scale(self, n: int) -> int:
        while len(self._js) <= n:
            k = len(self._js) - 1
            jk = self._js[-1]
            bound = jk + self.budget + 1  # gap clause
            # Image and preimage clauses over terms 0..k and points below
            # jk.  A point m the term fixes has m + 1 <= jk < bound, so only moved
            # points can raise the bound.
            for t in self.terms[: k + 1]:
                for x, y in t.items():
                    if x < jk and y >= bound:
                        bound = y + 1
                    if y < jk and x >= bound:
                        bound = x + 1
            # Mover-bound clause; points no term moves have bound 0.
            below = bisect.bisect_left(self._moved, jk)
            if below:
                bound = max(bound, self._mover_max[below - 1])
            self._js.append(bound)
        return self._js[n]


# -- solve -----------------------------------------------------------------


def _word_length(t: int) -> int:
    return 1 + t if t >= 1 else 1  # y1 for t = 0, x1 y1^t otherwise


def limit_rows(dseq, nu: list[int], rows: int) -> list[Perm]:
    """Exact b*_0 .. b*_{rows-1}: b_n = d_{n+1} b_{n+1}^t, b_n = b_{n+1} when
    t = 0, and the identity from the end of the prefix on."""
    b: Perm = {}
    out: list[Perm] = [{}] * max(rows, len(nu))
    for n in range(len(nu) - 1, -1, -1):
        t = nu[n]
        if t:
            d = dseq.term(n + 1)
            nxt = {}
            for m in set(b) | set(d):
                v = m
                for _ in range(t):
                    v = _apply(b, v)
                v = _apply(d, v)
                if v != m:
                    nxt[m] = v
            b = nxt
        out[n] = b
    return out[:rows]


def check_witnesses(witnesses, nu: list[int], scale, up_to: int, depth: int) -> list[str]:
    """Each pair (n*, m*) below up_to has, in row-major order, its least
    witness (i0, i1) with i1 <= depth: the interval j(i0)..j(i1) carries only
    zero exponents, and the word lengths from n* to j(i0) sum to less than
    i1 - i0."""
    cum = [0]  # cum[t]: total word length of positions 0 .. t-1

    def length_sum(lo: int, hi: int) -> int:
        """Total word length of positions lo .. hi."""
        while len(cum) <= hi + 1:
            t = len(cum) - 1
            cum.append(cum[-1] + _word_length(nu[t] if t < len(nu) else 0))
        return cum[hi + 1] - cum[lo]

    nonzero = [t for t, e in enumerate(nu) if e]

    def trivial(lo: int, hi: int) -> bool:
        return not any(lo <= t <= hi for t in nonzero)

    def least_i1(n_star: int, i0: int) -> int:
        return max(i0 + length_sum(n_star, scale.scale(i0)) + 1, n_star + 1)

    problems = []
    pairs = [(n, m) for n in range(up_to) for m in range(up_to)]
    if len(witnesses) != len(pairs):
        return [f"{len(witnesses)} witnesses for {len(pairs)} pairs"]
    for (n_star, m_star), wit in zip(pairs, witnesses):
        if (wit.get("nStar"), wit.get("mStar")) != (n_star, m_star):
            problems.append(f"witness for {(n_star, m_star)} out of order: {wit}")
            continue
        i0, i1 = wit["i0"], wit["i1"]
        if not (m_star < i0 < i1 <= depth and n_star < i1):
            problems.append(f"witness {wit} breaks the index order")
            continue
        if not trivial(scale.scale(i0), scale.scale(i1)):
            problems.append(f"witness {wit}: interval is not trivial")
        if not length_sum(n_star, scale.scale(i0)) < i1 - i0:
            problems.append(f"witness {wit}: length sum does not beat the gap")
        # Least: i1 is the least length-sum choice for i0, and no smaller
        # i0 has an admissible i1 within the depth.
        if i1 != least_i1(n_star, i0):
            problems.append(f"witness {wit}: i1 is not the least for its i0")
        for a in range(m_star + 1, i0):
            b = least_i1(n_star, a)
            if b <= depth and trivial(scale.scale(a), scale.scale(b)):
                problems.append(f"witness {wit}: ({a}, {b}) is smaller")
                break
    return problems


def check_solve(report: dict, inst: dict, dseq) -> list[str]:
    problems = []
    if report.get("equationCheck") != "ok":
        problems.append(f"equationCheck is {report.get('equationCheck')!r}")
    nu = inst["nu"]
    nw, mw = inst["window"]
    cfg = report.get("config", {})
    if cfg.get("nu") != {"prefix": nu, "tail": "zero"} or cfg.get("window") != [nw, mw]:
        problems.append("report config does not match the instance")
    js = report.get("j", [])
    if len(js) < 2 or js != [dseq.scale(n) for n in range(len(js))]:
        problems.append("scale prefix differs from the recomputed scale")
    problems += check_witnesses(report.get("witnesses", []), nu, dseq, max(nw + 1, mw),
                                inst["depth"])
    rows = limit_rows(dseq, nu, nw)
    want = [[n, [[m, _apply(rows[n], m)] for m in range(mw)]] for n in range(nw)]
    if report.get("bStar") != want:
        problems.append("bStar differs from the exact solution")
    return problems


# -- free side -------------------------------------------------------------


def _reduce(units):
    out = []
    for u in units:
        if out and out[-1][0] == u[0] and out[-1][1] == -u[1]:
            out.pop()
        else:
            out.append(u)
    return out


def enumerate_words(basis: int, count: int) -> list[list[tuple[int, int]]]:
    """The first count reduced words over z1..z_basis, by length and then
    lexicographically, z_i before z_i^-1 and ascending i; identity first."""
    letters = [(i, s) for i in range(1, basis + 1) for s in (1, -1)]
    out = [[]]
    layer = [[]]
    while len(out) < count:
        layer = [w + [x] for w in layer for x in letters
                 if not (w and w[-1][0] == x[0] and w[-1][1] == -x[1])]
        out.extend(layer)
    return out[:count]


def _root(units, t: int):
    """The t-th root of a reduced word, or None."""
    k = 0
    while 2 * k + 1 < len(units) and units[k][0] == units[-1 - k][0] \
            and units[k][1] == -units[-1 - k][1]:
        k += 1
    conj, core = units[:k], units[k:len(units) - k]
    if len(core) % t:
        return None
    block = core[: len(core) // t]
    if block * t != core:
        return None
    return conj + block + [(i, -s) for i, s in reversed(conj)]


def chain_dies(a, entries: list[int]) -> bool:
    """Run b_{n+1} = t-th root of z_{n+1}^-1 b_n through the exponents."""
    r = list(a)
    for n, t in enumerate(entries):
        if t == 0:
            continue
        c = _reduce([(n + 1, -1)] + r)
        if t == 1:
            r = c
            continue
        r = _root(c, t)
        if r is None:
            return True
    return False


def check_diagonalize(diag: dict, blocked: dict, inst: dict) -> list[str]:
    basis, count = inst["basis"], inst["count"]
    problems = []
    if blocked.get("ok") is not True or "survivor" in blocked or "witnessFailures" in blocked:
        problems.append("verify-blocked did not report ok")
    if blocked.get("verdicts") != [[r, "dead"] for r in range(count)]:
        problems.append("a verify-blocked verdict is not dead")
    entries = diag.get("entries", [])
    if not all(isinstance(t, int) and t >= 0 for t in entries):
        problems.append("entries are not naturals")
        return problems
    log = diag.get("log", [])
    obeys = [s for s in log if s.get("kind") == "obeys"]
    blocks = [s for s in log if s.get("kind") == "block"]
    if [(s["nStar"], s["mStar"]) for s in obeys] != [(r, r) for r in range(count)]:
        problems.append("log does not hold one witness per round")
    # A round whose chain is already dead logs no block.
    targets = [s["target"] for s in blocks]
    if targets != sorted(set(targets)) or not set(targets) <= set(range(count)):
        problems.append("log holds a block outside the rounds or out of order")

    def at(t: int) -> int:
        return entries[t] if t < len(entries) else 0

    scale = Builtin().scale
    for s in obeys:
        n_star, i0, i1 = s["nStar"], s["i0"], s["i1"]
        if not (s["mStar"] < i0 < i1 and n_star < i1):
            problems.append(f"witness {s} breaks the index order")
            continue
        if any(at(t) for t in range(scale(i0), scale(i1) + 1)):
            problems.append(f"witness {s}: interval is not trivial")
        if not sum(_word_length(at(t)) for t in range(n_star, scale(i0) + 1)) < i1 - i0:
            problems.append(f"witness {s}: length sum does not beat the gap")
    for r, a in enumerate(enumerate_words(basis, count)):
        if not chain_dies(a, entries):
            problems.append(f"chain {r} survives")
    return problems


# -- instances -------------------------------------------------------------


def load_dseq(inst: dict, pass_dir: str):
    if "d" not in inst:
        return Builtin()
    with open(os.path.join(pass_dir, inst["d"])) as fh:
        obj = json.load(fh)
    return Cauchy(obj["c"])


def check_instance(inst: dict, reports: list[dict], pass_dir: str) -> list[str]:
    if len(reports) == 1:
        return check_solve(reports[0], inst, load_dseq(inst, pass_dir))
    return check_diagonalize(reports[0], reports[1], inst)


def self_test(inst: dict, reports: list[dict], pass_dir: str) -> dict[str, bool]:
    """Corrupt a correct output and report, per corruption, whether the
    checks flag it."""
    cases = {}
    if len(reports) == 1:
        bad = json.loads(json.dumps(reports[0]))
        bad["bStar"][0][1][0][1] += 1
        cases["bStar value corrupted"] = bad
        bad = json.loads(json.dumps(reports[0]))
        bad["j"][1] += 1
        cases["j entry bumped"] = bad
        return {name: bool(check_instance(inst, [r], pass_dir)) for name, r in cases.items()}
    bad = json.loads(json.dumps(reports[1]))
    bad["verdicts"][0][1] = "alive"
    return {"verdict flipped to alive": bool(check_instance(inst, [reports[0], bad], pass_dir))}
