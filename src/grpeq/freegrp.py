"""Free group arithmetic and the root obstruction that blocks equation chains.

Elements are reduced words over generators z1, z2, ...  In a free group
roots are unique when they exist, so the forward-determined chain
b_{n+1} = t-th root of (d_{n+1}^-1 b_n) either continues uniquely or dies,
and one well-chosen exponent appended to the driving sequence kills a chain
for good.  Diagonalization interleaves those kill steps with zero stretches
wide enough to host stabilization witnesses.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import compress, islice
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .scale import ObeysSegment, Scale, ShortScale, WitnessIndex, WordSums
# imported only because bench/tracing.py wraps freegrp.make_witness
from .scale import make_witness  # noqa: F401
from .words import nu_at, nu_words


class IdentityInput(ValueError):
    """The identity was passed where a non-identity element is required."""


class BadDSeq(ValueError):
    """The driving sequence violates distinctness or hits the identity."""


@dataclass(frozen=True)
class FreeElem:
    """A reduced word: syllables (generator index, nonzero exponent) with no
    two adjacent syllables on the same generator."""

    letters: tuple[tuple[int, int], ...] = ()

    @classmethod
    def identity(cls) -> "FreeElem":
        return cls()

    @classmethod
    def gen(cls, index: int, exp: int = 1) -> "FreeElem":
        if index < 1:
            raise ValueError("generator indices start at 1")
        if exp == 0:
            return cls()
        return cls(((index, exp),))

    @classmethod
    def from_syllables(cls, syllables: Iterable[Sequence[int]]) -> "FreeElem":
        out: list[list[int]] = []
        for index, exp in syllables:
            if index < 1:
                raise ValueError("generator indices start at 1")
            if exp == 0:
                continue
            if out and out[-1][0] == index:
                out[-1][1] += exp
                if out[-1][1] == 0:
                    out.pop()
            else:
                out.append([index, exp])
        return cls(tuple((i, e) for i, e in out))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def inverse(self) -> "FreeElem":
        return FreeElem(_inverse(self.letters))

    def __mul__(self, other: "FreeElem") -> "FreeElem":
        """The reduced product: both words are reduced, so only the
        syllables where they meet can merge or cancel (from_syllables
        reduces an arbitrary syllable list)."""
        return FreeElem(_product(self.letters, other.letters))

    def __pow__(self, n: int) -> "FreeElem":
        base = self if n >= 0 else self.inverse()
        return FreeElem.from_syllables(base.letters * abs(n))


Syllables = tuple[tuple[int, int], ...]


def _inverse(a: Syllables) -> Syllables:
    return tuple([(i, -e) for i, e in reversed(a)])


def _product(a: Syllables, b: Syllables) -> Syllables:
    """The reduced product of two reduced words, merged at the seam: end
    syllables on one generator cancel pair by pair until a pair is on two
    generators or leaves a nonzero sum."""
    i, j = len(a), 0
    while i and j < len(b):
        (x, e), (y, f) = a[i - 1], b[j]
        if x != y:
            break
        if e + f:
            return a[: i - 1] + ((x, e + f),) + b[j + 1 :]
        i -= 1
        j += 1
    return a[:i] + b[j:]


def _cyclic_split(syl: Syllables) -> tuple[Syllables, Syllables]:
    """The syllables of u and core when the word syl is split as
    u * core * u^-1 with the core cyclically reduced and the product reduced
    as written.  The split is unique in a free group.  End syllables that
    cancel move to u by the shorter one's whole exponent."""
    syl = list(syl)
    lo, hi = 0, len(syl) - 1
    conj = []
    while lo < hi:
        (i, a), (j, b) = syl[lo], syl[hi]
        if i != j or (a > 0) == (b > 0):
            break
        k = min(a, -b) if a > 0 else max(a, -b)
        conj.append((i, k))
        syl[lo], syl[hi] = (i, a - k), (i, b + k)
        lo += syl[lo][1] == 0
        hi -= syl[hi][1] == 0
    return tuple(conj), tuple(syl[lo : hi + 1])


def _power_form(syl: Syllables) -> tuple[Syllables, Syllables, int]:
    """Split the word syl as u * p**m * u^-1, all as syllables, with p
    cyclically reduced and not a proper power; m = 0 and p = () exactly
    for the identity.

    When the core's ends share a generator, and so a sign, conjugating by
    the first syllable merges it into the last.  Then no two cyclically
    adjacent syllables share a generator, and p is the shortest syllable
    period of the core.  The merge keeps u reduced: had u's last syllable,
    which the split moved from an end pair, been on that generator, one of
    the pair would be left at one end of the core and not at the other.
    """
    u, syl = _cyclic_split(syl)
    if not syl:
        return u, (), 0
    if len(syl) == 1:  # a power of one generator
        ((i, e),) = syl
        return u, ((i, -1 if e < 0 else 1),), abs(e)
    (i, e), (j, f) = syl[0], syl[-1]
    if i == j:
        syl = syl[1:-1] + ((i, e + f),)
        u = u + ((i, e),)
    n = len(syl)
    for d in range(1, n):
        if n % d == 0 and syl[d:] == syl[:-d]:
            return u, syl[:d], n // d
    return u, syl, 1


def has_root(g: FreeElem, t: int) -> Optional[FreeElem]:
    """The unique t-th root of g when it exists, else None.  Centralizers
    in a free group are cyclic, so g = u p^m u^-1 with p not a proper power
    has one exactly when t divides m, namely u p^(m/t) u^-1.  Only that
    root is built as a FreeElem."""
    if t < 2:
        raise ValueError("root exponents start at 2")
    u, p, m = _power_form(g.letters)
    if m % t:
        return None
    k = m // t
    if len(p) == 1:  # p^k on one generator is one syllable, not k of them
        ((i, e),) = p
        p, k = ((i, e * k),), 1
    return FreeElem(_product(_product(u, p * k), _inverse(u)))


def no_root_exponent(g: FreeElem) -> int:
    """The least t >= 2 such that g has no t-th root: the least t >= 2 not
    dividing m in g = u p^m u^-1, so at most m + 1 <= length(g) + 1."""
    if g.is_identity:
        raise IdentityInput("the identity has roots of every order")
    m = _power_form(g.letters)[2]
    return next(t for t in range(2, m + 2) if m % t)


@dataclass(frozen=True)
class SubBasis:
    """A finite nonempty set of generator indices."""

    indices: frozenset[int]

    def __post_init__(self):
        if any(i < 1 for i in self.indices):
            raise ValueError("generator indices start at 1")
        if not self.indices:
            raise ValueError("a sub-basis must be nonempty")

    def __contains__(self, index: int) -> bool:
        return index in self.indices

    @classmethod
    def first(cls, k: int) -> "SubBasis":
        return cls(frozenset(range(1, k + 1)))


def project(g: FreeElem, z: SubBasis) -> FreeElem:
    """The retraction killing every generator outside z.  A homomorphism,
    idempotent, and the identity on words over z."""
    return FreeElem.from_syllables((i, e) for i, e in g.letters if i in z)


def h_elements(z: SubBasis) -> Iterator[FreeElem]:
    """All reduced words over a finite sub-basis in length-then-lex order.

    Letters are ordered z_i before z_i^-1, ascending in i.  The identity
    comes first.  The words of length L + 1 are those of length L, in
    order, each followed by every letter that does not cancel its last
    letter.  That letter merges into the last syllable, so a new word
    touches only its tail and a long word costs no recursion.
    """
    letters = [(i, e) for i in sorted(z.indices) for e in (1, -1)]
    yield FreeElem.identity()
    level = [()]
    while True:
        longer = []
        for word in level:
            last, exp = word[-1] if word else (0, 0)
            for i, e in letters:
                if i != last:
                    new = word + ((i, e),)
                elif (e > 0) == (exp > 0):
                    new = word[:-1] + ((i, exp + e),)
                else:
                    continue  # the letter cancels the last one
                longer.append(new)
                yield FreeElem(new)
        level = longer


def enumerate_h(z: SubBasis, n: int) -> FreeElem:
    """The n-th element of the length-then-lex enumeration, identity at 0."""
    if n < 0:
        raise IndexError("enumeration index must be a natural")
    return next(islice(h_elements(z), n, None))


def _generator(n: int) -> FreeElem:
    return FreeElem.gen(n + 1)


_generator.never_identity = True


def ascending_generators() -> Callable[[int], FreeElem]:
    """The driving sequence whose n-th term is the generator z_{n+1}:
    pairwise distinct and never the identity.

    It declares the latter with the attribute never_identity, so a chain
    reads it only at its nonzero entries (see _fold).  It keeps no terms:
    each read builds its term afresh, and a negative n raises.
    """
    return _generator


DSeq = Callable[[int], FreeElem]


def _d_at(d: DSeq, n: int) -> FreeElem:
    term = d(n)
    if term.is_identity:
        raise BadDSeq(f"driving term {n} is the identity")
    return term


def _quotient(term: FreeElem, b: FreeElem) -> FreeElem:
    """term^-1 b, built as one FreeElem."""
    return FreeElem(_product(_inverse(term.letters), b.letters))


@dataclass(frozen=True)
class NoRoot:
    """Death reason: the step demanded a t-th root that does not exist."""

    exponent: int


@dataclass(frozen=True)
class ChainState:
    """Where a forward-determined solution chain ended: alive with its
    residual, or dead at position with the reason."""

    position: int
    residual: Optional[FreeElem]
    reason: Optional[NoRoot] = None

    @property
    def is_alive(self) -> bool:
        return self.residual is not None


def _fold(residual: FreeElem, position: int, d: DSeq, entries: Sequence[int]) -> ChainState:
    """Continue a live chain, whose value at position is residual, through
    entries, which sit at that position onward.

    Each entry first fetches its driving term (the identity raises BadDSeq)
    and then rejects a negative exponent.  Exponent 0 copies the residual;
    exponent 1 pins the next value to d^-1 b outright; exponent t >= 2
    demands its t-th root, and the chain dies where none exists.

    A sequence that declares never_identity has nothing to check under a
    zero entry, so only the nonzero entries are visited, found by compress
    at C speed, and a term is fetched only there: a zero run costs no
    Python step and builds nothing.  Any other sequence is read at every
    entry, so an identity term under a zero entry still raises.
    """
    declared = getattr(d, "never_identity", False)
    steps = enumerate(entries, position)
    if declared:
        steps = compress(steps, entries)
    for n, t in steps:
        term = d(n) if declared else _d_at(d, n)
        if t < 0:
            raise ValueError("exponent entries must be naturals")
        if t:
            residual = _quotient(term, residual)
            if t > 1:
                root = has_root(residual, t)
                if root is None:
                    return ChainState(n, None, NoRoot(t))
                residual = root
    return ChainState(position + len(entries), residual)


def chain_run(a: FreeElem, d: DSeq, entries: Sequence[int]) -> ChainState:
    """Fold the chain from b_0 = a through the exponent prefix, consuming
    the driving term at each position.  Only the position and the residual
    are kept while it runs; one ChainState records where it ended."""
    return _fold(a, 0, d, entries)


@dataclass(frozen=True)
class BlockSegment:
    target: Optional[int]
    exponent: int


@dataclass
class NuPrefix:
    """A finite exponent prefix plus the construction log that explains it.
    Beyond the prefix the sequence is zero."""

    entries: list[int] = field(default_factory=list)
    log: list[Union[ObeysSegment, BlockSegment]] = field(default_factory=list)

    def word_seq(self):
        """The word sequence of a snapshot of the entries."""
        return nu_words(self.entries)


def block(
    a: FreeElem,
    prefix: NuPrefix,
    d: DSeq,
    target: Optional[int] = None,
) -> NuPrefix:
    """Extend the prefix in place by at most two entries so the chain from
    a dies, and return it.

    If the chain already died inside the prefix it is left unchanged.
    Otherwise, with residual r at the end: when d^-1 r is not the identity
    its no-root exponent blocks immediately; when it is the identity, one
    zero entry shifts the chain to the next driving term, whose quotient
    cannot also be the identity because driving terms are distinct.  A
    driving sequence that raises leaves the prefix as it was.

    The check that the new entries kill the chain continues the fold from
    the live end state over those one or two entries; the fold is
    deterministic, so this is the same check as a rerun from b_0.
    """
    st = chain_run(a, d, prefix.entries)
    if not st.is_alive:
        return prefix
    n, residual = st.position, st.residual
    tail = []
    c = _quotient(_d_at(d, n), residual)
    if c.is_identity:
        tail.append(0)
        c = _quotient(_d_at(d, n + 1), residual)
        if c.is_identity:
            raise BadDSeq(f"driving terms {n} and {n + 1} coincide")
    t = no_root_exponent(c)
    tail.append(t)
    prefix.entries.extend(tail)
    prefix.log.append(BlockSegment(target, t))
    if _fold(residual, n, d, tail).is_alive:
        raise AssertionError("blocking failed to kill the chain")
    return prefix


def diagonalize(
    d: DSeq,
    s: Scale,
    enumeration: Callable[[int], FreeElem],
    count: int,
) -> NuPrefix:
    """Build a prefix that simultaneously hosts a stabilization witness for
    every pair (r, r) below count and kills the chain of every enumerated
    element below count.

    Rounds alternate: first a zero stretch wide enough for the round's
    witness, then a blocking step for the round's target.  Blocking appends
    only at the very end, past every interval placed so far, so earlier
    witnesses stay valid; and because later rounds start their sums at a
    larger n*, one generous stretch ends up hosting most of them.

    Each round's interval is the least witness for the entries so far read
    with a zero tail; that search always ends (see find_witness), so its
    bound is never reached.  One WitnessIndex over a callable view of the
    live entry list serves every round, so each word is read once (a list
    would be copied at the start, with a trivial tail it soon loses).  No
    word it has read ever changes: the padding writes zeros where it read
    the zero tail, and block appends past its frontier, as the loop asserts.
    """
    prefix = NuPrefix()
    entries = prefix.entries
    index = WitnessIndex(nu_words(lambda n: nu_at(entries, n)), s, sys.maxsize)
    for r in range(count):
        wit = index.find(r, r)
        j1 = s.value(wit.i1)
        if len(prefix.entries) < j1 + 1:
            prefix.entries.extend([0] * (j1 + 1 - len(prefix.entries)))
        prefix.log.append(wit)
        assert index.frontier < len(prefix.entries), "block would rewrite a word already read"
        block(enumeration(r), prefix, d, target=r)
    return prefix


def _witness_failures(prefix: NuPrefix, s: Scale) -> list[ObeysSegment]:
    """The logged ObeysSegments that make_witness rejects, each checked by
    WordSums.holds over one read of the entries' words (the zero tail past
    them is counted, not read, and a zero word keeps nothing): a segment
    costs its two scale reads and two bisects.  A segment that reads past a
    loaded scale fails.  Unlike a WitnessIndex, the audit checks no word budget,
    as make_witness checks none.
    """
    sums = WordSums(prefix.word_seq(), s)
    failures = []
    for seg in prefix.log:
        if isinstance(seg, ObeysSegment):
            try:
                ok = sums.holds(seg)
            except ShortScale:
                ok = False
            if not ok:
                failures.append(seg)
    return failures


def reverify(
    prefix: NuPrefix,
    d: DSeq,
    s: Optional[Scale],
    enumeration: Callable[[int], FreeElem],
    count: int,
) -> dict:
    """Independent post-hoc audit of a diagonalization output.

    Re-runs every chain from scratch and, when a scale is supplied,
    rechecks every logged witness from its indices in one pass over the
    entries.  Returns a plain dict verdict.
    """
    verdicts = []
    survivors = []
    for r in range(count):
        st = chain_run(enumeration(r), d, prefix.entries)
        verdicts.append([r, "dead" if not st.is_alive else "alive"])
        if st.is_alive:
            survivors.append(r)
    witness_failures = [] if s is None else _witness_failures(prefix, s)
    ok = not survivors and not witness_failures
    report: dict = {"verdicts": verdicts, "ok": ok}
    if survivors:
        report["survivor"] = survivors[0]
    if witness_failures:
        report["witnessFailures"] = witness_failures
    return report
