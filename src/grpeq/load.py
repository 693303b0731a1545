"""The JSON records: the one module that opens an input file or spells a
JSON field, for reading and for writing.

Each record kind has one field table, which maps each JSON field to its
attribute, its check and, where one exists, its default.  Loaders check
their input through the tables and hand plain checked data to the domain
constructors, which keep their own checks.  An error keeps its type and
gains the JSON path of the rejected value ("c[12]: duplicate point 3");
read() puts the file name in front of that.  A Cauchy prefix's members are
read in one loop over their pairs (_cauchy), outside the tables.  dump()
writes a report, and each record in it through its table.
"""

from __future__ import annotations

import gc
import json
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Optional

from .freegrp import BlockSegment, NuPrefix, ObeysSegment
from .perm import NotNull, NullSequence, Perm, _checked_moves, _product
from .scale import Scale
from .words import shown


def read(path: str, parse, *args):
    """parse(the JSON value in the UTF-8 file at path, *args), with the
    file named in front of the message of any ValueError.  The cyclic
    garbage collector is off across both, and on again after only if it
    was on: the decoded lists all live until the parse returns and form no
    cycle, so its passes over them would free nothing."""
    collecting = gc.isenabled()
    gc.disable()
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
    finally:
        if collecting:
            gc.enable()


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


def _fields(obj, table: dict) -> list:
    """The checked values of a JSON object's fields, in table's order.  table
    maps each field to (attribute, check), or to (attribute, check, default)
    when it may be left out; any other field is an error, not one left out."""
    for key in _object(obj):
        if key not in table:
            names = ", ".join(f'"{f}"' for f in table)
            raise ValueError(f"unknown field {shown(key)}; expected one of {names}")
    values = []
    for key, (_, check, *default) in table.items():
        if key not in obj and not default:
            raise ValueError(f"missing field {shown(key)}")
        try:
            values.append(check(obj[key] if key in obj else default[0]))
        except ValueError as exc:
            raise _at(exc, "." + key)
    return values


def _moves(pairs) -> dict[int, int]:
    """The moves of a JSON list of [point, image] pairs (see _checked_moves)."""
    return _checked_moves(_list(pairs))


_naturals = partial(_each, check=_natural)
_KIND = {"kind": ("kind", str)}


def _segment(item):
    kind = _object(item).get("kind")
    if not (isinstance(kind, str) and kind in _SEGMENTS):
        raise ValueError(f"unknown log segment kind {shown(kind)}")
    cls, table, _ = _SEGMENTS[kind]
    return cls(*_fields(item, table)[1:])


# The record kinds that are written and read back, each field in the order
# of the arguments of the class it is read into.
_OBEYS = {"nStar": ("n_star", _natural), "mStar": ("m_star", _natural),
          "i0": ("i0", _natural), "i1": ("i1", _natural)}
_BLOCK = {"target": ("target", lambda t: t if t is None else _natural(t)),
          "exponent": ("exponent", _natural)}
_PREFIX = {"entries": ("entries", _naturals), "log": ("log", partial(_each, check=_segment), [])}
_NU = {"prefix": ("prefix", _naturals),
       "tail": ("tail", partial(_expect, '"zero"', lambda t: t == "zero"), "zero")}


def _template(table: dict, kind=None):
    """The %-template of a record of table at the indent of "\\n", its fields
    in sorted order with "kind" written in when given, and the getter of
    the values it takes, in that order."""
    texts = {field: "%s" for field in table}
    if kind is not None:
        texts["kind"] = _quote(kind)
    text = "{" + ",".join(f"\n  {_quote(f)}: {texts[f]}" for f in sorted(texts)) + "\n}"
    return text, attrgetter(*(table[f][0] for f in sorted(table)))


# a log segment's "kind" names its class, its table with "kind" in front and
# its template; a certificate's pair is an obeys record without "kind"
_SEGMENTS = {kind: (cls, {**_KIND, **table}, _template(table, kind)) for kind, cls, table in
             [("obeys", ObeysSegment, _OBEYS), ("block", BlockSegment, _BLOCK)]}
_TEMPLATES = {cls: template for cls, _, template in _SEGMENTS.values()}
_PAIR = _template(_OBEYS)[0]


def _mover_bounds(value) -> dict[int, int]:
    """The bounds of a JSON list of [point, bound] pairs of naturals, each
    pair checked in one step of one loop; an error gains the pair's index."""
    items = _list(value)
    bounds: dict[int, int] = {}
    try:
        for pair in items:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValueError(f"expected a [point, bound] pair, got {shown(pair)}")
            m, k = pair
            if type(m) is not int or type(k) is not int or m < 0 or k < 0:
                _naturals(pair)  # names the first item that is not a natural
            if m in bounds:
                raise ValueError(f"duplicate point {m}")
            bounds[m] = k
    except ValueError as exc:  # every earlier pair is in bounds
        raise _at(exc, f"[{len(bounds)}]")
    return bounds


def _cauchy(c: list) -> NullSequence:
    """The null sequence of the quotients c[2n]^-1 c[2n+1] of a Cauchy
    prefix's members, read in one loop over their pairs.

    Term n moves m exactly when c[2n](m) != c[2n+1](m), and only points
    that a member of the pair moves can differ.  So the pass gives the
    mover bound of every point (one past the last pair that moves it, 0
    when no pair does) without composing anything, and a pair collapses
    when its two maps are equal.  Term n is built from the two maps the
    first time it is fetched, and kept for later fetches.

    A member that is plainly a permutation with no fixed points, a list of
    pairs of two ints, each point a natural other than its image, no point
    twice and the images the points again, is read in the loop, its map
    and inverse built pair by pair.  Any other member goes to _moves, the
    one validation rule, and its error gains its path, c[i].  The second
    member of a pair is compared with the first as it is read.  Every
    member is read before a NotNull is raised: an odd length first, then
    the first pair that collapses.
    """
    maps: list[dict[int, int]] = []  # the moves of c[0], c[1], ...
    bounds: dict[int, int] = {}
    collapsed = None
    pairs = iter(c)
    try:
        for n, (x, y) in enumerate(zip(pairs, pairs)):
            a = None
            if type(x) is list:
                a, inv = {}, {}
                try:
                    for p, q in x:
                        if type(p) is not int or type(q) is not int or p < 0 or p == q:
                            a = None
                            break
                        a[p] = q
                        inv[q] = p
                except (TypeError, ValueError):  # a pair that is not two values
                    a = None
                if a is not None and not (len(a) == len(x) and a.keys() == inv.keys()):
                    a = None
            if a is None:
                a = _moves(x)
            # as for x, and each point where b differs from a is recorded
            b, bound, get = None, n + 1, a.get
            if type(y) is list:
                b, inv = {}, {}
                try:
                    for p, q in y:
                        if type(p) is not int or type(q) is not int or p < 0 or p == q:
                            b = None
                            break
                        b[p] = q
                        inv[q] = p
                        if get(p, p) != q:
                            bounds[p] = bound
                except (TypeError, ValueError):
                    b = None
                if b is not None and not (len(b) == len(y) and b.keys() == inv.keys()):
                    b = None
            if b is None:  # the loop may have stopped early, so all of b is compared
                b = _moves(y)
                for p, q in b.items():
                    if get(p, p) != q:
                        bounds[p] = bound
            # maps with no fixed points are equal exactly when the members are
            if collapsed is None and a == b:
                collapsed = n
            for m in a:
                if m not in b:  # b fixes m and a moves it
                    bounds[m] = bound
            maps += a, b
        if len(c) % 2:
            a = None
            _moves(c[-1])
    except ValueError as exc:  # from _moves, on c[len(maps)] while a is None, else the next
        raise _at(exc, f".c[{len(maps) + (a is not None)}]")
    if len(c) % 2:
        raise NotNull(f"cauchy prefix has odd length {len(c)}: c[{len(c) - 1}] has no partner")
    if collapsed is not None:
        raise NotNull(f"pair {collapsed} collapses: c[{2 * collapsed}] equals c[{2 * collapsed + 1}]")
    terms: list[Optional[Perm]] = [None] * (len(maps) // 2)

    def quotient(n: int) -> Perm:
        d = terms[n]
        if d is None:
            a_inv = {q: p for p, q in maps[2 * n].items()}
            d = terms[n] = Perm._trusted(_product(a_inv, maps[2 * n + 1]))
        return d

    return NullSequence(gen=quotient, mover_bound=lambda m: bounds.get(m, 0), length=len(terms))


def null_sequence_from_json(obj) -> NullSequence:
    """A driving sequence: {"kind": "transpositions"} for the built-in
    family, {"kind": "explicit", "perms": [...], "moverBound": [[m, K], ...]}
    for a declared prefix, or {"kind": "cauchy", "c": [...]} for the
    quotients of a Cauchy prefix.  Permutations are [point, image] pair
    lists, each checked by the rule behind Perm(mapping).  An explicit prefix
    answers the mover bound of only the points its moverBound lists; a
    Cauchy prefix gives 0 for a point that no quotient moves.

    A Cauchy prefix's "c" is read in one pass (see _cauchy), which checks
    every member, c[i] named in front of its error, before it raises the
    NotNull of an odd length or of a collapsing pair, which carries no
    field path."""
    kind = _object(obj).get("kind")
    if kind == "explicit":
        table = {**_KIND, "perms": ("perms", partial(_each, check=_moves)),
                 "moverBound": ("bounds", _mover_bounds, [])}
        _, perms, bounds = _fields(obj, table)
        return NullSequence.explicit([Perm._trusted(moves) for moves in perms], bounds)
    if kind == "cauchy":
        return _cauchy(_fields(obj, {**_KIND, "c": ("c", _list)})[1])
    if kind == "transpositions":
        _fields(obj, _KIND)
        return NullSequence.transpositions()
    raise ValueError(f"unknown null sequence kind {shown(kind)}")


def nu_from_json(obj) -> list[int]:
    """The prefix of an exponent sequence {"prefix": [t0, t1, ...], "tail":
    "zero"}, which nu_words reads as zero beyond its end.  "tail" may be
    left out."""
    return _fields(obj, _NU)[0]


def nu_prefix_from_json(obj) -> NuPrefix:
    """A diagonalization prefix in the form dump writes a NuPrefix,
    {"entries": [...], "log": [...]}; "log" may be left out."""
    return NuPrefix(*_fields(obj, _PREFIX))


def scale_from_json(obj, budget: int) -> Scale:
    """A loaded scale: a JSON list of its values, read with budget, or
    {"j": [...], "budget": b}, whose b replaces budget.  Scale.from_values
    checks that it starts at 0 and that each gap clears the budget."""
    if isinstance(obj, list):
        return Scale.from_values(_naturals(obj), _natural(budget))
    table = {"j": ("values", _naturals), "budget": ("budget", _natural, budget)}
    return Scale.from_values(*_fields(obj, table))


def nu_record(prefix) -> dict:
    """The exponent sequence that nu_from_json reads back as prefix."""
    return dict(zip(_NU, (list(prefix), _NU["tail"][2])))


class Certificate(list):
    """A certificate's rows, as obeys_certificate returns them: row n* holds
    the (i0, i1) of each pair (n*, m*) in order of m*.  dump writes it as
    its pairs' records in row-major order, without an object per pair."""


class BStar(list):
    """The limit rows on a window: row n holds the images of 0, 1, ...
    under b*_n.  dump writes it as [[n, [[m, image], ...]], ...], without
    a list per pair."""


def dump(obj) -> str:
    """The canonical report text: byte for byte what
    json.dumps(obj, indent=2, sort_keys=True) gives, plus a newline, for
    reports built from int, str, bool, None, list, dict with str keys and
    records (log segments, NuPrefix, Certificate, BStar).  Anything else
    raises TypeError.  It takes about half the time of json.dumps, whose
    indent runs the pure-Python encoder: the int and str items of a
    container are written inline, and a segment or a pair through its
    template."""
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj, newline: str, out: list) -> None:
    """Append the text of obj to out.  newline is a line break plus the
    indent of obj's own line; obj's items go one level deeper."""
    if type(obj) is list:  # not a Certificate, which is written below
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
    elif type(obj) in _TEMPLATES:
        template, values = _TEMPLATES[type(obj)]
        values = values(obj)
        if None in values:  # a block's target
            values = tuple("null" if v is None else v for v in values)
        out.append(template.replace("\n", newline) % values)
    elif type(obj) is NuPrefix:
        _write({f: getattr(obj, attr) for f, (attr, *_) in _PREFIX.items()}, newline, out)
    elif type(obj) is Certificate:
        inner = newline + "  "
        template = _PAIR.replace("\n", inner)
        pairs = [template % (i0, i1, m, n)  # in sorted field order: i0, i1, mStar, nStar
                 for n, ends in enumerate(obj) for m, (i0, i1) in enumerate(ends)]
        out.append("[" + inner + ("," + inner).join(pairs) + newline + "]" if pairs else "[]")
    elif type(obj) is BStar:
        at = [newline + "  " * depth for depth in range(5)]  # the indent of each level
        pair = ("[" + at[4] + "%d," + at[4] + "%d" + at[3] + "]").__mod__
        rows = []
        for n, images in enumerate(obj):
            pairs = ("," + at[3]).join(map(pair, enumerate(images)))
            pairs = "[" + at[3] + pairs + at[2] + "]" if images else "[]"
            rows.append(f"[{at[2]}{n},{at[2]}{pairs}{at[1]}]")
        out.append("[" + at[1] + ("," + at[1]).join(rows) + newline + "]" if rows else "[]")
    elif obj is None or isinstance(obj, (str, int)):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"a report cannot hold {type(obj).__name__}")
