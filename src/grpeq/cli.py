"""Command line front end.

Subcommands build scales, solve equation systems over the permutation side,
diagonalize against the free side, re-audit blocking certificates, and run
the two-sided contrast experiment.  All reports are canonical JSON (sorted
keys, two-space indent), so identical configurations produce identical
bytes.

Exit codes: 0 ok, 1 other input error (among them a usage error such as
a missing or malformed option, a malformed --scale file, or one with
fewer entries than the run reads: the line names both counts), 2 no obeys
witness for some pair, 3 no stabilization witness for a queried point,
4 bad driving sequence, 5 verification failure.  A run that runs out of
memory also exits 1, with "error: out of memory".  Every error is one
"error:" line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from itertools import islice
from typing import Optional

from . import freegrp, load
from .load import null_sequence_from_json
from .perm import MATCHING_STRUCTURE, NoBound, NotNull, NullSequence, ShortPrefix
from .scale import NotObeying, Scale, ShortScale, WitnessIndex, build_scale, obeys_certificate
from .solver import LimitAutomorphism, WitnessNotFound, closure_check, verify_solution
from .words import nu_words, random_sparse_nu_prefix

EXIT_OK = 0
EXIT_NOT_OBEYING = 2
EXIT_WITNESS_NOT_FOUND = 3
EXIT_BAD_DSEQ = 4
EXIT_VERIFY_FAILED = 5


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load_dseq(source: str) -> NullSequence:
    if source == "builtin:transpositions":
        return NullSequence.transpositions()
    # read through this module's name, which the benchmark's tracer wraps
    return load.read(source, null_sequence_from_json)


def _load_scale(path: Optional[str], budget: int) -> Scale:
    if path is None:
        return build_scale(NullSequence.transpositions(), budget, 1)
    return load.read(path, load.scale_from_json, budget)


def _parse_window(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(",")
        return int(a), int(b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("window must look like N,M") from exc


def cmd_scale(args) -> int:
    d = _load_dseq(args.d)
    s = build_scale(d, args.budget, 0)  # the prefix below is its one read
    _emit(json.dumps(s.prefix(args.count)) + "\n", args.out)
    return EXIT_OK


def _sufficient_depth(exc: NotObeying, w, s, depth: int, up_to: int) -> NotObeying:
    """exc, extended with the least --depth that certifies the whole window:
    the largest i1 of the window's least witnesses on an index with no
    bound, a search that ends for a list prefix.  Each pair's least witness
    has the least i1 of all its witnesses, since the least i1 does not
    decrease with i0.  Nor does it decrease with m* along a row, so only
    the window's last column is scanned.  That scan reads its row's largest
    j(i0) and j(i1), so it runs past the driving terms, or stops at
    sys.maxsize itself (a huge exponent), exactly when the whole window's
    search would; exc is then returned as it is."""
    index = WitnessIndex(w, s, sys.maxsize)
    try:
        last = [index.ends(n_star, up_to, up_to) for n_star in range(up_to)]
    except (ShortPrefix, NoBound):
        return exc
    if not all(last):
        return exc
    suffices = max(ends[0][1] for ends in last)
    return NotObeying(
        exc.n_star,
        exc.m_star,
        f" within --depth {depth}; --depth {suffices} suffices for this window",
    )


def _solve_report(d, nu_prefix, budget, window, depth):
    w = nu_words(nu_prefix)
    s = build_scale(d, budget, 1)
    nw, mw = window
    up_to = max(nw + 1, mw)
    # one witness index: the limit's queries reuse the certificate's scans
    limit = LimitAutomorphism(d, w, s, search_bound=depth)
    try:
        certificate = obeys_certificate(limit.index, up_to)
    except NotObeying as exc:
        raise _sufficient_depth(exc, w, s, depth, up_to) from None
    # limit keeps the rows it reads, and the equation check reads them back
    b_star = load.BStar(limit.row(n, mw) for n in range(nw))
    problems = verify_solution(limit, nw, mw)
    report = {
        "j": s.materialized(),
        "witnesses": load.Certificate(certificate),
        "bStar": b_star,
        "equationCheck": "ok" if not problems else problems,
    }
    return report, limit, s


def cmd_solve(args) -> int:
    d = _load_dseq(args.d)
    nu_prefix = load.read(args.nu, load.nu_from_json)
    report, _, _ = _solve_report(d, nu_prefix, args.budget, args.window, args.depth)
    report["command"] = "solve"
    report["config"] = {
        "d": args.d,
        "nu": load.nu_record(nu_prefix),
        "budget": args.budget,
        "window": list(args.window),
        "depth": args.depth,
    }
    _emit(load.dump(report), args.out)
    return EXIT_OK if report["equationCheck"] == "ok" else EXIT_VERIFY_FAILED


def _enumeration(args):
    """The first --count elements of H, enumerated once and read by index.
    They are the identity and then the letters z1, z1^-1, z2, ... in order,
    the same for every basis of at least max(1, count // 2) generators, so
    no more generators than that are read."""
    basis = freegrp.SubBasis.first(min(args.basis, max(1, args.count // 2)))
    return list(islice(freegrp.h_elements(basis), args.count)).__getitem__


def cmd_diagonalize(args) -> int:
    s = _load_scale(args.scale, args.budget)
    prefix = freegrp.diagonalize(freegrp.ascending_generators(), s, _enumeration(args), args.count)
    _emit(load.dump(prefix), args.out)
    return EXIT_OK


def cmd_verify_blocked(args) -> int:
    prefix = load.read(args.nu, load.nu_prefix_from_json)
    s = _load_scale(args.scale, args.budget) if args.scale or args.check_witnesses else None
    asc = freegrp.ascending_generators()
    report = freegrp.reverify(prefix, asc, s, _enumeration(args), args.count)
    report["command"] = "verify-blocked"
    report["config"] = {"basis": args.basis, "count": args.count, "nu": args.nu}
    _emit(load.dump(report), args.out)
    return EXIT_OK if report["ok"] else EXIT_VERIFY_FAILED


def cmd_contrast(args) -> int:
    rng = random.Random(args.seed)
    nu_prefix = random_sparse_nu_prefix(rng)
    d = NullSequence.transpositions()
    report, limit, s = _solve_report(
        d, nu_prefix, args.budget, args.window, args.depth
    )
    solved = report["equationCheck"] == "ok"
    closure_ok = True
    if args.structure == "matching":  # argparse admits no other name but "trivial"
        closure_ok = closure_check(limit, MATCHING_STRUCTURE, args.window[1])
        report["closure"] = "ok" if closure_ok else "violation"

    h, asc = _enumeration(args), freegrp.ascending_generators()
    prefix = freegrp.diagonalize(asc, s, h, args.count)
    audit = freegrp.reverify(prefix, asc, s, h, args.count)
    blocked = audit["ok"]

    report["command"] = "contrast"
    report["config"] = {
        "basis": args.basis,
        "budget": args.budget,
        "count": args.count,
        "depth": args.depth,
        "seed": args.seed,
        "structure": args.structure,
        "window": list(args.window),
    }
    report["nu"] = load.nu_record(nu_prefix)
    report["permutationSide"] = "solved" if solved else "discrepant"
    report["diagonal"] = prefix
    report["reverify"] = audit
    report["freeSide"] = (
        f"blocked({args.count})" if blocked else f"survivor({audit.get('survivor')})"
    )
    _emit(load.dump(report), args.out)
    ok = solved and blocked and closure_ok
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so they exit 1 with one error line
    like any other input error; argparse's own exit 2 means not obeying.
    A window such as -1,2 is read as a value, as a negative number is."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+,-?\d+$")

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call.  A parse
    stores nothing in it: each parse_args fills a fresh Namespace, and a
    usage error raises before anything is stored."""
    parser = _Parser(
        prog="grpeq",
        description="Word-equation systems over permutation groups versus free groups.",
        epilog=(
            "exit codes: 0 ok, 1 input or usage error, 2 not obeying, 3 witness not found, "
            "4 bad driving sequence, 5 verification failure"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scale", help="print a scale prefix as a JSON array")
    p.add_argument("--d", default="builtin:transpositions", help="null sequence source")
    p.add_argument("--budget", type=int, default=1)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_scale)

    p = sub.add_parser("solve", help="solve and verify on a window")
    p.add_argument("--d", default="builtin:transpositions")
    p.add_argument("--nu", required=True, help="exponent sequence JSON file")
    p.add_argument("--budget", type=int, default=1)
    p.add_argument("--window", type=_parse_window, default=(4, 16))
    p.add_argument("--depth", type=int, default=128, help="witness search bound")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("diagonalize", help="build a blocking exponent prefix")
    p.add_argument("--basis", type=int, default=4)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--scale", default=None, help="scale JSON file; built in when absent")
    p.add_argument("--budget", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_diagonalize)

    p = sub.add_parser("verify-blocked", help="re-audit a blocking prefix")
    p.add_argument("--nu", required=True, help="diagonalize output JSON file")
    p.add_argument("--basis", type=int, default=4)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--scale", default=None)
    p.add_argument("--budget", type=int, default=1)
    p.add_argument(
        "--check-witnesses",
        action="store_true",
        help="also rebuild logged witnesses, against the built-in scale; "
        "--scale F alone turns this check on, against F",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify_blocked)

    p = sub.add_parser("contrast", help="solved permutation side versus blocked free side")
    p.add_argument("--basis", type=int, default=4)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--window", type=_parse_window, default=(4, 16))
    p.add_argument("--budget", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=128)
    p.add_argument("--structure", default="trivial", choices=["trivial", "matching"])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_contrast)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name in ("count", "depth", "budget"):
            if getattr(args, name, 0) < 0:
                raise ValueError(f"--{name} must be a natural")
        if min(getattr(args, "window", (0, 0))) < 0:
            raise ValueError("--window must be two naturals")
        return args.fn(args)
    except NotObeying as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_OBEYING
    except WitnessNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WITNESS_NOT_FOUND
    except (freegrp.BadDSeq, NotNull, NoBound, ShortPrefix) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_DSEQ
    except (ValueError, OSError, ShortScale) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
