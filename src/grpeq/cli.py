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
4 bad driving sequence, 5 verification failure.  Every error is one
"error:" line on stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from . import freegrp, load
from .load import null_sequence_from_json
from .perm import NoBound, NotNull, NullSequence, ShortPrefix, structure_by_name
from .scale import NotObeying, Scale, ShortScale, build_scale, find_witness, obeys_certificate
from .solver import LimitAutomorphism, WitnessNotFound, closure_check, verify_solution
from .words import nu_to_json, nu_words, random_sparse_nu_prefix

EXIT_OK = 0
EXIT_NOT_OBEYING = 2
EXIT_WITNESS_NOT_FOUND = 3
EXIT_BAD_DSEQ = 4
EXIT_VERIFY_FAILED = 5


def _dump(obj) -> str:
    """The canonical report text: byte for byte what
    json.dumps(obj, indent=2, sort_keys=True) gives, plus a newline, for
    reports built from int, str, bool, None, list and dict with str keys.
    Anything else raises TypeError.  json.dumps runs its pure-Python
    encoder once indent is set; this writer takes about half its time by
    writing the int and str items of a container inline, without a call
    per value."""
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _scalar(value) -> str:
    """The JSON text of a scalar a report may hold."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"a report cannot hold {type(value).__name__}")


def _write(obj, newline: str, out: list) -> None:
    """Append the text of obj to out.  newline is a line break plus the
    indent of obj's own line; obj's items go one level deeper."""
    if isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            sep = "," + inner
            kind = type(item)
            if kind is int:
                out.append(int.__repr__(item))
            elif kind is str:
                out.append(_quote(item))
            else:
                _write(item, inner, out)
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, got {type(key).__name__}")
            item = obj[key]
            out.append(sep + _quote(key) + ": ")
            sep = "," + inner
            kind = type(item)
            if kind is int:
                out.append(int.__repr__(item))
            elif kind is str:
                out.append(_quote(item))
            else:
                _write(item, inner, out)
        out.append(newline + "}")
    else:
        out.append(_scalar(obj))


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
    s = build_scale(d, args.budget, args.count)
    _emit(json.dumps(s.prefix(args.count)) + "\n", args.out)
    return EXIT_OK


def _sufficient_depth(exc: NotObeying, w, s, depth: int) -> NotObeying:
    """exc, extended with the least --depth that gives its pair a witness:
    the i1 of the pair's least witness with no bound, a search that ends
    for a list prefix.  When that search runs past the driving terms, exc
    is returned as it is."""
    try:
        wit = find_witness(w, s, exc.n_star, exc.m_star, sys.maxsize)
    except (ShortPrefix, NoBound):
        return exc
    return NotObeying(
        exc.n_star,
        exc.m_star,
        f" within --depth {depth}; --depth {wit.i1} suffices for this pair",
    )


def _solve_report(d, nu_prefix, budget, window, depth):
    w = nu_words(nu_prefix)
    s = build_scale(d, budget, 1)
    nw, mw = window
    up_to = max(nw + 1, mw)
    # one witness index: the limit's queries reuse the certificate's searches
    limit = LimitAutomorphism(d, w, s, search_bound=depth)
    try:
        certificate = obeys_certificate(limit.index, up_to)
    except NotObeying as exc:
        raise _sufficient_depth(exc, w, s, depth) from None
    b_star = [
        [n, [[m, limit.apply(n, m)] for m in range(mw)]] for n in range(nw)
    ]
    problems = verify_solution(limit, nw, mw)
    report = {
        "j": s.materialized(),
        "witnesses": [wit.as_json() for wit in certificate],
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
        "nu": nu_to_json(nu_prefix),
        "budget": args.budget,
        "window": list(args.window),
        "depth": args.depth,
    }
    _emit(_dump(report), args.out)
    return EXIT_OK if report["equationCheck"] == "ok" else EXIT_VERIFY_FAILED


def _enumeration(args):
    """The first --count elements of H, enumerated once and read by index."""
    basis = freegrp.SubBasis.first(args.basis)
    return list(islice(freegrp.h_elements(basis), args.count)).__getitem__


def cmd_diagonalize(args) -> int:
    s = _load_scale(args.scale, args.budget)
    prefix = freegrp.diagonalize(freegrp.ascending_generators(), s, _enumeration(args), args.count)
    _emit(_dump(prefix.to_json()), args.out)
    return EXIT_OK


def cmd_verify_blocked(args) -> int:
    prefix = load.read(args.nu, load.nu_prefix_from_json)
    s = _load_scale(args.scale, args.budget) if args.scale or args.check_witnesses else None
    asc = freegrp.ascending_generators()
    report = freegrp.reverify(prefix, asc, s, _enumeration(args), args.count)
    report["command"] = "verify-blocked"
    report["config"] = {"basis": args.basis, "count": args.count, "nu": args.nu}
    _emit(_dump(report), args.out)
    return EXIT_OK if report["ok"] else EXIT_VERIFY_FAILED


def cmd_contrast(args) -> int:
    rng = random.Random(args.seed)
    nu_prefix = random_sparse_nu_prefix(rng)
    d = NullSequence.transpositions()
    report, limit, s = _solve_report(
        d, nu_prefix, args.budget, args.window, args.depth
    )
    solved = report["equationCheck"] == "ok"
    structure = structure_by_name(args.structure)
    closure_ok = True
    if structure.name != "trivial":
        closure_ok = closure_check(limit, structure, args.window[1])
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
    report["nu"] = nu_to_json(nu_prefix)
    report["permutationSide"] = "solved" if solved else "discrepant"
    report["diagonal"] = prefix.to_json()
    report["reverify"] = audit
    report["freeSide"] = (
        f"blocked({args.count})" if blocked else f"survivor({audit.get('survivor')})"
    )
    _emit(_dump(report), args.out)
    ok = solved and blocked and closure_ok
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so they exit 1 with one error line
    like any other input error; argparse's own exit 2 means not obeying."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
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


if __name__ == "__main__":
    sys.exit(main())
