"""Input files: the one module that opens one or names a JSON field.

Loaders check the shape of their input and hand plain checked data to the
domain constructors, which keep their own checks.  An error keeps its type
and gains the JSON path of the rejected value ("c[12]: duplicate point 3");
read() puts the file name in front of that.
"""

from __future__ import annotations

import json
from functools import partial

from .freegrp import BlockSegment, NuPrefix, ObeysSegment
from .perm import NullSequence, Perm, _checked_moves, _quotients
from .scale import Scale
from .words import shown


def read(path: str, parse, *args):
    """parse(the JSON value in the UTF-8 file at path, *args), with the
    file named in front of the message of any ValueError."""
    try:
        with open(path, encoding="utf-8") as fh:
            value = json.load(fh)
        return parse(value, *args)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except UnicodeDecodeError as exc:  # its message is not its args
        raise ValueError(f"{path}: {exc}") from None
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _at(exc: ValueError, step: str) -> ValueError:
    """exc with step put in front of the JSON path that leads its message."""
    path, message = getattr(exc, "json_path", ("", str(exc)))
    exc.json_path = (step + path, message)
    exc.args = (f"{(step + path).lstrip('.')}: {message}",)
    return exc


def _expect(what: str, ok, value):
    """value when ok(value), else an error that names what was expected."""
    if not ok(value):
        raise ValueError(f"expected {what}, got {shown(value)}")
    return value


_list = partial(_expect, "a JSON list", lambda v: isinstance(v, list))
_object = partial(_expect, "a JSON object", lambda v: isinstance(v, dict))


def _natural(value) -> int:
    if type(value) is not int or value < 0:  # JSON true is not 1
        raise ValueError(f"expected a natural, got {shown(value)}")
    return value


def _each(value, check) -> list:
    """check of each item of a JSON list; an error gains the item's index."""
    items = _list(value)
    out = []
    try:
        for item in items:
            out.append(check(item))
    except ValueError as exc:
        raise _at(exc, f"[{len(out)}]")
    return out


def _fields(obj, spec: dict) -> list:
    """The checked values of a JSON object's fields, in spec's order.  spec
    maps each field to (check,), or to (check, default) when it may be left
    out; any other field is an error, not one left out."""
    for key in _object(obj):
        if key not in spec:
            names = ", ".join(f'"{f}"' for f in spec)
            raise ValueError(f"unknown field {shown(key)}; expected one of {names}")
    values = []
    for key, (check, *default) in spec.items():
        if key not in obj and not default:
            raise ValueError(f"missing field {shown(key)}")
        try:
            values.append(check(obj[key] if key in obj else default[0]))
        except ValueError as exc:
            raise _at(exc, "." + key)
    return values


def _moves(pairs) -> dict[int, int]:
    # the loading hot path: one call per permutation on top of the check
    return _checked_moves(pairs if isinstance(pairs, list) else _list(pairs))


_naturals = partial(_each, check=_natural)
_perms = partial(_each, check=_moves)
_OBEYS = {"kind": (str,), "nStar": (_natural,), "mStar": (_natural,), "i0": (_natural,),
          "i1": (_natural,)}
_BLOCK = {"kind": (str,), "target": (lambda t: t if t is None else _natural(t),),
          "exponent": (_natural,)}


def _mover_bounds(value) -> dict[int, int]:
    bounds: dict[int, int] = {}

    def add(pair):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"expected a [point, bound] pair, got {shown(pair)}")
        m, k = _naturals(pair)
        if m in bounds:
            raise ValueError(f"duplicate point {m}")
        bounds[m] = k

    _each(value, add)
    return bounds


def null_sequence_from_json(obj) -> NullSequence:
    """A driving sequence: {"kind": "transpositions"} for the built-in
    family, {"kind": "explicit", "perms": [...], "moverBound": [[m, K], ...]}
    for a declared prefix, or {"kind": "cauchy", "c": [...]} for the
    quotients of a Cauchy prefix.  Permutations are [point, image] pair
    lists, each checked as Perm.from_pairs checks it.  An explicit prefix
    answers the mover bound of only the points its moverBound lists; a
    Cauchy prefix gives 0 for a point that no quotient moves."""
    kind = _object(obj).get("kind")
    if kind == "explicit":
        spec = {"kind": (str,), "perms": (_perms,), "moverBound": (_mover_bounds, [])}
        _, perms, bounds = _fields(obj, spec)
        return NullSequence.explicit([Perm._trusted(moves) for moves in perms], bounds)
    if kind == "cauchy":
        return _quotients(_fields(obj, {"kind": (str,), "c": (_perms,)})[1])
    if kind == "transpositions":
        _fields(obj, {"kind": (str,)})
        return NullSequence.transpositions()
    raise ValueError(f"unknown null sequence kind {shown(kind)}")


def nu_from_json(obj) -> list[int]:
    """The prefix of an exponent sequence {"prefix": [t0, t1, ...], "tail":
    "zero"}, which nu_words reads as zero beyond its end.  "tail" may be
    left out."""
    tail = partial(_expect, '"zero"', lambda t: t == "zero")
    return _fields(obj, {"prefix": (_naturals,), "tail": (tail, "zero")})[0]


def _segment(item):
    kind = _object(item).get("kind")
    if kind == "obeys":
        return ObeysSegment(*_fields(item, _OBEYS)[1:])
    if kind == "block":
        return BlockSegment(*_fields(item, _BLOCK)[1:])
    raise ValueError(f"unknown log segment kind {shown(kind)}")


def nu_prefix_from_json(obj) -> NuPrefix:
    """A diagonalization prefix in the form NuPrefix.to_json writes,
    {"entries": [...], "log": [...]}; "log" may be left out."""
    log = (partial(_each, check=_segment), [])
    return NuPrefix(*_fields(obj, {"entries": (_naturals,), "log": log}))


def scale_from_json(obj, budget: int) -> Scale:
    """A loaded scale: a JSON list of its values, read with budget, or
    {"j": [...], "budget": b}, whose b replaces budget.  Scale.from_values
    checks that it starts at 0 and that each gap clears the budget."""
    if isinstance(obj, list):
        return Scale.from_values(_naturals(obj), _natural(budget))
    return Scale.from_values(*_fields(obj, {"j": (_naturals,), "budget": (_natural, budget)}))
