"""Command line behavior: reports, exit codes, byte determinism."""

import argparse
import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from grpeq import cli
from grpeq.cli import _enumeration, main
from grpeq.freegrp import BlockSegment, NuPrefix, SubBasis, h_elements
from grpeq.load import (
    BStar,
    Certificate,
    dump,
    nu_from_json,
    nu_prefix_from_json,
    nu_record,
    null_sequence_from_json,
)
from grpeq.perm import NoBound
from grpeq.scale import ObeysSegment

from test_perm_oracle import DEFECTS, T01, T12, T23, cauchy_prefixes, inject


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_scale_stdout_golden(capsys):
    code, out, _ = run(capsys, ["scale", "--count", "10"])
    assert code == 0
    assert out == "[0, 2, 4, 6, 8, 10, 12, 14, 16, 18]\n"
    assert run(capsys, ["scale", "--count", "0"]) == (0, "[]\n", "")


def test_scale_budget_flag(capsys):
    code, out, _ = run(capsys, ["scale", "--count", "6", "--budget", "0"])
    assert code == 0
    assert json.loads(out) == [0, 1, 2, 3, 4, 5]


def test_scale_out_file(tmp_path, capsys):
    target = tmp_path / "scale.json"
    code, out, _ = run(capsys, ["scale", "--count", "4", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == [0, 2, 4, 6]


@pytest.mark.parametrize("argv", [["scale", "--count", "5"], ["contrast", "--window", "1,1"]],
                         ids=["scale", "contrast"])
def test_out_of_memory_is_one_error_line(monkeypatch, capsys, argv):
    # a run that exhausts memory exits 1 with one error line, no traceback
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "build_scale", exhausted)
    assert run(capsys, argv) == (1, "", "error: out of memory\n")


def test_solve_report_golden(tmp_path, capsys):
    nu = write_json(tmp_path / "nu.json", {"prefix": [1], "tail": "zero"})
    code, out, _ = run(capsys, ["solve", "--nu", nu])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "solve"
    assert report["equationCheck"] == "ok"
    assert len(report["witnesses"]) == 256
    by_row = {n: pairs for n, pairs in report["bStar"]}
    assert by_row[0][:4] == [[0, 0], [1, 1], [2, 3], [3, 2]]
    for n in (1, 2, 3):
        assert by_row[n] == [[m, m] for m in range(16)]
    assert report["j"][:6] == [0, 2, 4, 6, 8, 10]


def test_solve_canonical_output_is_stable(tmp_path):
    nu = write_json(tmp_path / "nu.json", {"prefix": [0, 2], "tail": "zero"})
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", "--nu", nu, "--out", str(a)]) == 0
    assert main(["solve", "--nu", nu, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_not_obeying_exit(tmp_path, capsys):
    nu = write_json(tmp_path / "nu.json", {"prefix": [1], "tail": "zero"})
    code, out, err = run(capsys, ["solve", "--nu", nu, "--depth", "4"])
    assert code == 2
    assert out == ""
    assert "error" in err


def test_solve_depth_too_small_names_the_depth_that_suffices(tmp_path, capsys):
    nu = write_json(tmp_path / "nu.json", {"prefix": [0, 2, 0, 0, 1]})
    argv = ["solve", "--nu", nu, "--window", "4,42"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == (
        "error: no witness for pair (0, 41) within --depth 128; "
        "--depth 131 suffices for this window\n"
    )
    code, _, err = run(capsys, argv + ["--depth", "130"])
    assert code == 2
    assert err.endswith("within --depth 130; --depth 131 suffices for this window\n")
    code, _, err = run(capsys, argv + ["--depth", "131"])
    assert (code, err) == (0, "")
    # contrast solves through the same path
    code, out, err = run(capsys, ["contrast", "--window", "4,42"])
    assert (code, out) == (2, "")
    assert one_error_line(err) and "suffices for this window" in err


def test_solve_depth_hint_covers_the_whole_window(tmp_path, capsys):
    # the first failing pair (0, 39) needs --depth 130, but the window's
    # later pairs need more: one run names the depth for all of them
    prefix = [0, 2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 2] + [0] * 7
    nu = write_json(tmp_path / "nu.json", {"prefix": prefix})
    argv = ["solve", "--nu", nu, "--window", "4,42"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: no witness for pair (0, 39) within --depth 128; "
        "--depth 136 suffices for this window\n"
    )
    code, _, err = run(capsys, argv + ["--depth", "130"])
    assert code == 2
    assert err == (
        "error: no witness for pair (0, 40) within --depth 130; "
        "--depth 136 suffices for this window\n"
    )
    code, _, err = run(capsys, argv + ["--depth", "135"])
    assert code == 2
    assert err.endswith("within --depth 135; --depth 136 suffices for this window\n")
    code, _, err = run(capsys, argv + ["--depth", "136"])
    assert (code, err) == (0, "")


def test_solve_depth_hint_stops_at_the_driving_prefix(tmp_path, capsys):
    # the bounded search fits in the five explicit terms; the unbounded one
    # that would name a depth does not, so the line stays as it was
    perms = [[[2 * n, 2 * n + 1], [2 * n + 1, 2 * n]] for n in range(5)]
    bounds = [[m, m // 2 + 1] for m in range(40)]
    d = write_json(tmp_path / "d.json", {"kind": "explicit", "perms": perms, "moverBound": bounds})
    nu = write_json(tmp_path / "nu.json", {"prefix": [1]})
    code, out, err = run(capsys, ["solve", "--nu", nu, "--d", d, "--depth", "4"])
    assert (code, out) == (2, "")
    assert err == "error: no witness for pair (0, 0)\n"


def test_solve_depth_hint_keeps_the_error_when_the_rerun_stops(tmp_path, capsys):
    # the unbounded rerun meets the exponent 10**30 and stops at sys.maxsize
    # on a later pair; the bounded search's pair is the one reported
    nu = write_json(tmp_path / "nu.json", {"prefix": [0] * 40 + [10**30]})
    code, out, err = run(capsys, ["solve", "--nu", nu, "--window", "1,6", "--depth", "6"])
    assert (code, out) == (2, "")
    assert err == "error: no witness for pair (0, 1)\n"


def test_solve_bad_dseq_exit(tmp_path, capsys):
    pair = [[0, 1], [1, 0]]
    d = write_json(tmp_path / "d.json", {"kind": "cauchy", "c": [pair, pair]})
    nu = write_json(tmp_path / "nu.json", {"prefix": [], "tail": "zero"})
    code, _, err = run(capsys, ["solve", "--nu", nu, "--d", d])
    assert code == 4
    assert "error" in err


def test_solve_rejects_nonzero_tail(tmp_path, capsys):
    nu = write_json(tmp_path / "nu.json", {"prefix": [1], "tail": "ones"})
    code, _, err = run(capsys, ["solve", "--nu", nu])
    assert code == 1
    assert "error" in err


def one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "nu_obj",
    [
        [0, 1],  # not an object
        {"prefix": [True, 0, 0], "tail": "zero"},  # boolean entry
        {"prefix": [1.5], "tail": "zero"},  # non-integer entry
        {"prefix": [0, -2], "tail": "zero"},  # negative entry
    ],
    ids=["list", "boolean", "non-integer", "negative"],
)
def test_solve_rejects_malformed_nu(tmp_path, capsys, nu_obj):
    nu = write_json(tmp_path / "nu.json", nu_obj)
    code, out, err = run(capsys, ["solve", "--nu", nu])
    assert code == 1
    assert out == ""
    assert one_error_line(err)


def test_negative_count_rejected(tmp_path, capsys):
    nu = write_json(tmp_path / "nu.json", {"entries": [], "log": []})
    for argv in (
        ["scale"],
        ["diagonalize"],
        ["verify-blocked", "--nu", nu],
        ["contrast"],
    ):
        code, out, err = run(capsys, argv + ["--count", "-3"])
        assert code == 1, argv
        assert out == ""
        assert one_error_line(err)


@pytest.mark.parametrize(
    "argv",
    [
        ["--window", "4,-3"],
        ["--window=-1,3"],
        ["--depth", "-5"],
        ["--budget", "-1"],
    ],
    ids=["window-m", "window-n", "depth", "budget"],
)
def test_negative_window_and_depth_rejected(tmp_path, capsys, argv):
    nu = write_json(tmp_path / "nu.json", {"prefix": [1], "tail": "zero"})
    for command in (["solve", "--nu", nu], ["contrast"]):
        code, out, err = run(capsys, command + argv)
        assert code == 1, command + argv
        assert out == ""
        assert one_error_line(err)
        assert "must be" in err


@pytest.mark.parametrize("window", ["-1,2", "-1,-2"])
def test_negative_first_window_value_is_read_as_a_window(tmp_path, capsys, window):
    # argparse takes "-1,2" for an option unless the parser reads it as a
    # value, as it reads a negative number
    nu = write_json(tmp_path / "nu.json", {"prefix": [1], "tail": "zero"})
    for command in (["solve", "--nu", nu], ["contrast"]):
        for argv in (["--window", window], [f"--window={window}"]):
            assert run(capsys, command + argv) == (1, "", "error: --window must be two naturals\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--nu", "nu.json", "--window", "4,16,3"],
        ["scale"],
        ["scale", "--count", "x"],
    ],
    ids=["window-three-parts", "count-missing", "count-not-int"],
)
def test_usage_error_exits_1_not_the_not_obeying_code(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert one_error_line(err)


@pytest.mark.parametrize(
    "command,obj,where",
    [
        ("solve", {"kind": "explicit"}, "missing field 'perms'"),
        ("verify-blocked", {"entries": [], "log": [{"kind": "block", "target": 0}]},
         "log[0]: missing field 'exponent'"),
        ("verify-blocked",
         {"entries": [], "log": [{"kind": "obeys", "nStar": 0, "i0": 1, "i1": 5}]},
         "log[0]: missing field 'mStar'"),
    ],
    ids=["explicit-perms", "block-exponent", "obeys-mStar"],
)
def test_missing_json_field_is_named(tmp_path, capsys, command, obj, where):
    path = write_json(tmp_path / "in.json", obj)
    if command == "solve":
        nu = write_json(tmp_path / "nu.json", {"prefix": [1], "tail": "zero"})
        argv = ["solve", "--nu", nu, "--d", path]
    else:
        argv = ["verify-blocked", "--nu", path, "--count", "2"]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (1, "", f"error: {path}: {where}\n")


@pytest.mark.parametrize(
    "command,obj,err",
    [
        ("solve", {"prefx": [3, 1]}, "unknown field 'prefx'; expected one of \"prefix\", \"tail\""),
        ("solve", {"tail": "zero"}, "missing field 'prefix'"),
        ("verify-blocked", {"a": 1}, "unknown field 'a'; expected one of \"entries\", \"log\""),
        ("verify-blocked", {"log": []}, "missing field 'entries'"),
    ],
    ids=["solve-misspelled", "solve-no-prefix", "verify-unknown", "verify-no-entries"],
)
def test_nu_file_fields_are_required_and_known(tmp_path, capsys, command, obj, err):
    # a misspelled or missing field is an input error, not an empty sequence
    nu = write_json(tmp_path / "nu.json", obj)
    argv = [command, "--nu", nu] + (["--count", "2"] if command == "verify-blocked" else [])
    assert run(capsys, argv) == (1, "", f"error: {nu}: {err}\n")


def test_nu_tail_may_be_left_out(tmp_path, capsys):
    short = write_json(tmp_path / "short.json", {"prefix": [1]})
    full = write_json(tmp_path / "full.json", {"prefix": [1], "tail": "zero"})
    code, out, err = run(capsys, ["solve", "--nu", short])
    assert (code, err) == (0, "")
    assert run(capsys, ["solve", "--nu", full])[1] == out

    doc = {"entries": [0, 0, 2]}
    code, out, err = run(capsys, ["verify-blocked", "--nu", write_json(tmp_path / "d.json", doc),
                                  "--count", "1"])
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"] is True


HUGE = "x" * 1000000


@pytest.mark.parametrize(
    "argv,obj,short",
    [
        (["diagonalize", "--count", "2", "--scale"], [0, HUGE], "[1]: expected a natural, got "),
        # JSON caps an int at 4300 digits, still a 4000-byte line unclipped
        (["solve", "--nu", "nu.json", "--d"], {"kind": "cauchy", "c": [[int("9" * 4000)]]},
         "c[0]: not a [point, image] pair: "),
        (["solve", "--nu", "nu.json", "--d"],
         {"kind": "explicit", "perms": [[[0, 1], [1, 0]]], "moverBound": [[0, HUGE]]},
         "moverBound[0][1]: expected a natural, got "),
        (["solve", "--nu", "nu.json", "--d"], {"kind": HUGE}, "unknown null sequence kind "),
        (["solve", "--nu"], {"prefix": [1], HUGE: 0}, "unknown field "),
        (["verify-blocked", "--count", "2", "--nu"], {"entries": [], "log": [HUGE]},
         "log[0]: expected a JSON object, got "),
        (["verify-blocked", "--count", "2", "--nu"], {"entries": [], "log": [{"kind": HUGE}]},
         "log[0]: unknown log segment kind "),
    ],
    ids=["naturals", "pair", "mover-bound", "kind", "field", "log-item", "log-segment"],
)
def test_error_lines_clip_the_rejected_value(tmp_path, capsys, monkeypatch, argv, obj, short):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "nu.json", {"prefix": [1], "tail": "zero"})
    write_json(tmp_path / "in.json", obj)
    code, out, err = run(capsys, argv + ["in.json"])
    assert (code, out) == (1, "")
    assert one_error_line(err)
    assert err.startswith("error: in.json: " + short)
    assert len(err.encode()) < 300
    assert "..." in err


def test_error_lines_show_a_short_value_whole(tmp_path, capsys):
    scale = write_json(tmp_path / "scale.json", [0, "x" * 20])
    err = run(capsys, ["diagonalize", "--count", "2", "--scale", scale])[2]
    assert err == f"error: {scale}: [1]: expected a natural, got 'xxxxxxxxxxxxxxxxxxxx'\n"
    nu = write_json(tmp_path / "nu.json", {"prefix": [1], "tail": "zero"})
    d = write_json(tmp_path / "d.json", {"kind": "cauchy", "c": [[[0, 1], 5], [[0, 1], [1, 0]]]})
    err = run(capsys, ["solve", "--nu", nu, "--d", d])[2]
    assert err == f"error: {d}: c[0]: not a [point, image] pair: 5\n"


@pytest.mark.parametrize(
    "pair,shown", [([0, 1, 2], "[0, 1, 2]"), ([0], "[0]"), ("ab", "'ab'")],
    ids=["three-values", "one-value", "string"],
)
@pytest.mark.parametrize("kind", ["cauchy", "explicit"])
def test_a_pair_of_the_wrong_shape_is_named(tmp_path, capsys, kind, pair, shown):
    nu = write_json(tmp_path / "nu.json", {"prefix": [1], "tail": "zero"})
    perms = [[[0, 1], [1, 0], pair], [[0, 1], [1, 0], [2, 3], [3, 2]]]
    obj = {"kind": "cauchy", "c": perms} if kind == "cauchy" else {
        "kind": "explicit", "perms": perms, "moverBound": [[0, 1]]}
    d = write_json(tmp_path / "d.json", obj)
    code, out, err = run(capsys, ["solve", "--nu", nu, "--d", d])
    assert (code, out) == (1, "")
    field = "c" if kind == "cauchy" else "perms"
    assert err == f"error: {d}: {field}[0]: not a [point, image] pair: {shown}\n"


def test_solve_short_explicit_prefix_exit(tmp_path, capsys):
    d = write_json(
        tmp_path / "d.json",
        {"kind": "explicit", "perms": [[[0, 1], [1, 0]]], "moverBound": [[0, 1], [1, 1]]},
    )
    nu = write_json(tmp_path / "nu.json", {"prefix": [1], "tail": "zero"})
    code, out, err = run(capsys, ["solve", "--nu", nu, "--d", d])
    assert code == 4
    assert out == ""
    assert one_error_line(err)
    assert "prefix has 1 terms" in err


def test_solve_odd_cauchy_exit(tmp_path, capsys):
    pair = [[0, 1], [1, 0]]
    d = write_json(
        tmp_path / "d.json",
        {"kind": "cauchy", "c": [pair, [[0, 1], [1, 0], [2, 3], [3, 2]], pair]},
    )
    nu = write_json(tmp_path / "nu.json", {"prefix": [1], "tail": "zero"})
    code, out, err = run(capsys, ["solve", "--nu", nu, "--d", d])
    assert code == 4
    assert out == ""
    assert one_error_line(err)


@pytest.mark.parametrize(
    "c, code, line",
    [
        # pair 0 collapses, and the last member lists a point twice: every
        # member is checked before a pair, so the member's line wins
        ([[[0, 1], [1, 0]], [[0, 1], [1, 0]], [[2, 3], [3, 2]], [[2, 3], [3, 2], [7, 7], [7, 8]]],
         1, "c[3]: duplicate point 7"),
        # pair 0 collapses, and c[2] has no partner: the odd length wins,
        # with no field path in front
        ([[[0, 1], [1, 0]], [[0, 1], [1, 0]], [[2, 3], [3, 2]]],
         4, "cauchy prefix has odd length 3: c[2] has no partner"),
    ],
    ids=["member-over-collapse", "odd-over-collapse"],
)
def test_cauchy_errors_keep_their_precedence(tmp_path, capsys, c, code, line):
    d = write_json(tmp_path / "d.json", {"kind": "cauchy", "c": c})
    nu = write_json(tmp_path / "nu.json", {"prefix": [1], "tail": "zero"})
    assert run(capsys, ["solve", "--nu", nu, "--d", d]) == (code, "", f"error: {d}: {line}\n")


@pytest.mark.parametrize(
    "d_obj",
    [
        [1, 2],  # not an object
        {"kind": "cauchy", "c": 5},  # c not a list
        {"kind": "cauchy", "c": [5, [[0, 1], [1, 0]]]},  # a member not a pair list
        {"kind": "cauchy", "c": [[[0, 1], 5], [[0, 1], [1, 0]]]},  # a pair not a pair
        {"kind": "cauchy", "c": [[["a", 1], [1, "a"]], [[0, 1], [1, 0]]]},  # string point
        {"kind": "cauchy", "c": [[[True, 0], [0, True]], [[0, 1], [1, 0]]]},  # boolean point
        {"kind": "cauchy", "c": [[[[0], 1]], [[0, 1], [1, 0]]]},  # list point
        {"kind": "explicit", "perms": 7},  # perms not a list
        {"kind": "explicit", "perms": [[[0, 1], [1, 0]]], "moverBound": 5},
        {"kind": "explicit", "perms": [[[0, 1], [1, 0]]], "moverBound": [[0, "x"]]},
        {"kind": "explicit", "perms": [[[0, 1], [1, 0]]], "moverBound": [[0, -3]]},
        {"kind": "explicit", "perms": [[[0, 1], [1, 0]]], "moverBound": [[0, 1], [0, 5]]},
        {"kind": "explicit", "perms": [[[0, 1], [1, 0]]], "moverBound": [7]},
        {"kind": "explicit", "perms": [[[0, 1], [1, 0]]], "moverBound": [[0, 1, 2]]},
        {"kind": "explicit", "perms": [[[0, 1], [1, 0]]], "moverBound": [[True, 1]]},
    ],
    ids=["list", "c-int", "member-int", "pair-int", "string", "boolean", "list-point",
         "perms-int", "bounds-int", "bound-string", "bound-negative", "bound-duplicate",
         "bound-item-int", "bound-triple", "bound-boolean"],
)
def test_solve_rejects_malformed_dseq(tmp_path, capsys, d_obj):
    d = write_json(tmp_path / "d.json", d_obj)
    nu = write_json(tmp_path / "nu.json", {"prefix": [1], "tail": "zero"})
    code, out, err = run(capsys, ["solve", "--nu", nu, "--d", d])
    assert code == 1
    assert out == ""
    assert one_error_line(err)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    c=cauchy_prefixes(width=6, max_terms=6),
    defects=st.lists(st.tuples(st.sampled_from(DEFECTS), st.booleans()), min_size=1, max_size=2),
)
@example(c=[T01, T01, T12, T23], defects=[("duplicate", True)])
@example(c=[T01, T01, T12, T23], defects=[("odd", False)])
def test_defective_cauchy_file_is_one_error_line(tmp_path_factory, c, defects):
    # the defects of the loader's oracle test, each in a --d file: the run
    # ends in one error line naming the file, and exits 4 exactly for a
    # sequence that is not null (an odd length or a collapsing pair)
    c = list(c)
    for defect, late in defects:
        if defect != "odd":
            inject(c, defect, late)
    if any(defect == "odd" for defect, _ in defects):
        c.pop()
    base = tmp_path_factory.getbasetemp()
    d = write_json(base / "defective-cauchy.json", {"kind": "cauchy", "c": c})
    nu = write_json(base / "defective-cauchy-nu.json", {"prefix": [1], "tail": "zero"})
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", "--d", d, "--nu", nu])  # an exception escaping main fails here
    out, err = out.getvalue(), err.getvalue()
    assert out == ""
    assert err.startswith(f"error: {d}: ") and err.count("\n") == 1 and err.endswith("\n")
    message = err[len(f"error: {d}: "):]
    not_null = message.startswith("cauchy prefix has odd length ") or (
        message.startswith("pair ") and " collapses: " in message)
    assert code == (4 if not_null else 1)


@pytest.mark.parametrize("option", ["solve --nu", "solve --d", "diagonalize --scale",
                                    "verify-blocked --nu"])
def test_deeply_nested_json_is_one_error_line(tmp_path, capsys, option):
    # the JSON decoder recurses once per level, so this nesting overflows
    # it; a truncated file and one that is not UTF-8 are named the same way
    bad = tmp_path / "bad.json"
    nu = write_json(tmp_path / "nu.json", {"prefix": [1], "tail": "zero"})
    argv = {
        "solve --nu": ["solve", "--nu", str(bad)],
        "solve --d": ["solve", "--nu", nu, "--d", str(bad)],
        "diagonalize --scale": ["diagonalize", "--count", "2", "--scale", str(bad)],
        "verify-blocked --nu": ["verify-blocked", "--nu", str(bad), "--count", "2"],
    }[option]
    for content, message in [
        (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply"),
        (b'{"a": [1', "Expecting ',' delimiter: line 1 column 9 (char 8)"),
        (b"\xff[0]", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ]:
        bad.write_bytes(content)
        assert run(capsys, argv) == (1, "", f"error: {bad}: {message}\n")


OBEYS = {"kind": "obeys", "nStar": 0, "mStar": 0, "i0": 1, "i1": 5}
BLOCK = {"kind": "block", "target": 0, "exponent": 2}
PAIR = [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "option,doc,message",
    [
        ("--d", {"kind": "transpositions", "x": 1}, "unknown field 'x'; expected one of \"kind\""),
        ("--d", {"kind": "cauchy", "c": [[], PAIR], "x": 1},
         "unknown field 'x'; expected one of \"kind\", \"c\""),
        ("--d", {"kind": "explicit", "perms": [PAIR], "moverbound": [[0, 1], [1, 1]]},
         "unknown field 'moverbound'; expected one of \"kind\", \"perms\", \"moverBound\""),
        ("--scale", {"j": list(range(0, 60, 2)), "budget": 1, "x": 1},
         "unknown field 'x'; expected one of \"j\", \"budget\""),
        ("--nu", {"entries": [0] * 11 + [2], "log": [{**OBEYS, "x": 1}, BLOCK]},
         "log[0]: unknown field 'x'; "
         "expected one of \"kind\", \"nStar\", \"mStar\", \"i0\", \"i1\""),
        ("--nu", {"entries": [0] * 11 + [2], "log": [OBEYS, {**BLOCK, "x": 1}]},
         "log[1]: unknown field 'x'; expected one of \"kind\", \"target\", \"exponent\""),
        ("--d", {"kind": "explicit", "perms": [PAIR], "moverBound": [[0, 1], [0, 5]]},
         "moverBound[1]: duplicate point 0"),
    ],
    ids=["transpositions", "cauchy", "explicit-misspelled", "scale", "obeys", "block",
         "bound-duplicate"],
)
def test_inputs_once_read_as_valid_are_rejected(tmp_path, capsys, option, doc, message):
    # each of these was read as if the field were not there, and the last
    # one kept the later bound of point 0
    path = write_json(tmp_path / "in.json", doc)
    nu = write_json(tmp_path / "nu.json", {"prefix": [1]})
    argv = {
        "--d": ["solve", "--nu", nu, "--d", path],
        "--scale": ["diagonalize", "--count", "1", "--scale", path],
        "--nu": ["verify-blocked", "--nu", path, "--count", "1"],
    }[option]
    assert run(capsys, argv) == (1, "", f"error: {path}: {message}\n")


def test_mover_bound_contract_for_points_no_term_moves(tmp_path, capsys):
    # both sequences have the terms (4 5), (6 7); an explicit prefix
    # answers only its declared points, a Cauchy prefix gives 0 for the rest
    terms = [[[4, 5], [5, 4]], [[6, 7], [7, 6]]]
    explicit = {"kind": "explicit", "perms": terms, "moverBound": [[m, 1 + m // 6] for m in range(4, 8)]}
    cauchy = {"kind": "cauchy", "c": [[], terms[0], [], terms[1]]}
    d = null_sequence_from_json(explicit)
    assert d.mover_bound(4) == 1
    with pytest.raises(NoBound, match="no mover bound declared for point 0"):
        d.mover_bound(0)
    d = null_sequence_from_json(cauchy)
    assert [d.mover_bound(m) for m in (0, 4, 5, 6, 8, 1000)] == [0, 1, 1, 2, 0, 0]

    # entry 2 of the scale asks for the bounds of points 0 and 1
    argv = ["scale", "--count", "3", "--d"]
    code, out, err = run(capsys, argv + [write_json(tmp_path / "e.json", explicit)])
    assert (code, out, err) == (4, "", "error: no mover bound declared for point 0\n")
    code, out, err = run(capsys, argv + [write_json(tmp_path / "c.json", cauchy)])
    assert (code, out, err) == (0, "[0, 2, 4]\n", "")


def test_diagonalize_verify_roundtrip(tmp_path, capsys):
    blob = tmp_path / "diag.json"
    code, _, _ = run(capsys, ["diagonalize", "--count", "5", "--out", str(blob)])
    assert code == 0
    doc = json.loads(blob.read_text())
    assert doc["entries"][11] == 2
    assert doc["log"][0] == {"kind": "obeys", "nStar": 0, "mStar": 0, "i0": 1, "i1": 5}

    code, out, _ = run(capsys, ["verify-blocked", "--nu", str(blob), "--count", "5"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["verdicts"] == [[r, "dead"] for r in range(5)]

    code, out, _ = run(
        capsys,
        ["verify-blocked", "--nu", str(blob), "--count", "5", "--check-witnesses"],
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_blocked_detects_tampering(tmp_path, capsys):
    blob = tmp_path / "diag.json"
    assert main(["diagonalize", "--count", "4", "--out", str(blob)]) == 0
    capsys.readouterr()
    doc = json.loads(blob.read_text())
    doc["entries"] = [0] * len(doc["entries"])
    flat = write_json(tmp_path / "flat.json", doc)
    code, out, _ = run(capsys, ["verify-blocked", "--nu", flat, "--count", "4"])
    assert code == 5
    report = json.loads(out)
    assert report["ok"] is False
    assert report["survivor"] == 0


@pytest.mark.parametrize(
    "doc",
    [
        [0, 1],  # not an object
        {"entries": [0, 2], "log": [7]},  # log item not an object
        {"entries": [0, "2"], "log": []},  # string entry
        {"log": [{"kind": "obeys", "nStar": "0", "mStar": 0, "i0": 1, "i1": 5}]},
        {"log": [{"kind": "block", "target": "a", "exponent": 2}]},
        {"log": [{"kind": "block", "target": -1, "exponent": 2}]},
        {"log": [{"kind": "block", "target": True, "exponent": 2}]},
        {"log": [{"kind": "block", "target": 0, "exponent": -1}]},
        {"log": [{"kind": "block", "target": None, "exponent": True}]},
        {"log": [{"kind": "block", "target": 0, "exponent": 2.5}]},
    ],
    ids=["list", "log-item", "string-entry", "string-field", "block-target-string",
         "block-target-negative", "block-target-boolean", "block-exponent-negative",
         "block-exponent-boolean", "block-exponent-float"],
)
def test_verify_blocked_rejects_malformed_nu(tmp_path, capsys, doc):
    nu = write_json(tmp_path / "nu.json", doc)
    argv = ["verify-blocked", "--nu", nu, "--count", "2", "--check-witnesses"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert one_error_line(err)


def test_short_loaded_scale(tmp_path, capsys):
    short = write_json(tmp_path / "scale.json", [0, 2, 4])
    code, out, err = run(capsys, ["diagonalize", "--count", "3", "--scale", short])
    assert code == 1
    assert out == ""
    assert one_error_line(err)
    assert "3 loaded entries, asked for index 5" in err

    # the audit lists a witness that reads past the loaded scale as failed
    blob = tmp_path / "diag.json"
    assert main(["diagonalize", "--count", "3", "--out", str(blob)]) == 0
    capsys.readouterr()
    argv = ["verify-blocked", "--nu", str(blob), "--count", "3", "--scale", short]
    code, out, _ = run(capsys, argv + ["--check-witnesses"])
    assert code == 5
    report = json.loads(out)
    assert report["ok"] is False
    first = report["witnessFailures"][0]
    assert first == {"kind": "obeys", "nStar": 0, "mStar": 0, "i0": 1, "i1": 5}


@pytest.mark.parametrize("count", ["0", "3"])
def test_diagonalize_rejects_a_scale_budget_below_the_word_budget(capsys, count):
    # the words of nu mention one slot, which budget 0 does not leave room
    # for; the search refuses to start, even when there is no round to run
    code, out, err = run(capsys, ["diagonalize", "--budget", "0", "--count", count])
    assert (code, out, err) == (1, "", "error: word budget exceeds the scale budget\n")


def test_witness_audit_at_budget_0_has_no_budget_clause(tmp_path, capsys):
    # the audit checks the clauses of make_witness, none of them a budget:
    # at budget 0, j(i) = i, the two intervals around the entry at index 11
    # hold it, and the first segment still passes
    blob = tmp_path / "diag.json"
    assert main(["diagonalize", "--count", "3", "--out", str(blob)]) == 0
    capsys.readouterr()
    argv = ["verify-blocked", "--nu", str(blob), "--count", "3", "--budget", "0"]
    code, out, _ = run(capsys, argv + ["--check-witnesses"])
    assert code == 5
    report = json.loads(out)
    assert report["verdicts"] == [[r, "dead"] for r in range(3)]
    assert report["witnessFailures"] == [
        {"kind": "obeys", "nStar": 1, "mStar": 1, "i0": 6, "i1": 21},
        {"kind": "obeys", "nStar": 2, "mStar": 2, "i0": 6, "i1": 20},
    ]


def test_witness_audit_reads_no_word_past_the_entries(tmp_path, capsys):
    # the words past the entries are trivial, each of length 1: a segment
    # whose j(i1) or j(i0) lies far past them costs no read of those words
    nu = write_json(tmp_path / "nu.json", {"entries": [1], "log": [
        {"kind": "obeys", "nStar": 0, "mStar": 0, "i0": 1, "i1": 6},
        {"kind": "obeys", "nStar": 0, "mStar": 0, "i0": 5, "i1": 6},
    ]})
    scale = write_json(tmp_path / "scale.json", [0, 2, 4, 6, 8, 10, 10**9])
    argv = ["verify-blocked", "--nu", nu, "--count", "1", "--scale", scale]
    code, out, _ = run(capsys, argv + ["--check-witnesses"])
    assert code == 5
    report = json.loads(out)
    assert report["verdicts"] == [[0, "alive"]]
    assert report["witnessFailures"] == [
        {"kind": "obeys", "nStar": 0, "mStar": 0, "i0": 5, "i1": 6},
    ]


@pytest.mark.parametrize(
    "scale_obj",
    [
        5,  # neither a list nor an object
        {"budget": 1},  # an object without "j"
        {"j": 5},  # "j" not a list
        {"j": [0, 2, 4], "budget": "x"},  # string budget
        {"j": [0, 2, 4], "budget": -1},  # negative budget
        {"j": [0, 2, 4], "budget": True},  # boolean budget
        {"j": [0, 2, "4"]},  # string entry
        {"j": [0, 2, 4.5]},  # float entry
        [False, 2, 4],  # boolean entry
        [0, 2, -4],  # negative entry
    ],
    ids=["int", "no-j", "j-int", "budget-string", "budget-negative", "budget-boolean",
         "entry-string", "entry-float", "entry-boolean", "entry-negative"],
)
def test_malformed_scale_file_rejected(tmp_path, capsys, scale_obj):
    scale = write_json(tmp_path / "scale.json", scale_obj)
    code, out, err = run(capsys, ["diagonalize", "--count", "2", "--scale", scale])
    assert code == 1
    assert out == ""
    assert one_error_line(err)

    blob = tmp_path / "diag.json"
    assert main(["diagonalize", "--count", "2", "--out", str(blob)]) == 0
    capsys.readouterr()
    argv = ["verify-blocked", "--nu", str(blob), "--count", "2", "--scale", scale]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert one_error_line(err)


def test_scale_file_budget_reads_from_the_file(tmp_path, capsys):
    # a budget in the file overrides --budget; the gap check uses it
    wide = write_json(tmp_path / "wide.json", {"j": list(range(0, 300, 3)), "budget": 2})
    code, _, err = run(capsys, ["diagonalize", "--count", "2", "--scale", wide])
    assert (code, err) == (0, "")
    tight = write_json(tmp_path / "tight.json", {"j": [0, 2, 4], "budget": 2})
    code, out, err = run(capsys, ["diagonalize", "--count", "2", "--scale", tight])
    assert (code, out) == (1, "")
    assert err == f"error: {tight}: gap 0 -> 2 does not clear budget 2\n"


def test_contrast_deterministic_and_two_sided(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["contrast", "--out", str(a)]) == 0
    assert main(["contrast", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["command"] == "contrast"
    assert report["permutationSide"] == "solved"
    assert report["freeSide"] == "blocked(20)"
    assert report["nu"]["prefix"] == [
        0, 2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
    ]
    assert report["reverify"]["ok"] is True
    assert len(report["reverify"]["verdicts"]) == 20
    assert all(v == "dead" for _, v in report["reverify"]["verdicts"])
    assert report["config"]["seed"] == 0
    assert "closure" not in report


def test_contrast_matching_structure(tmp_path):
    out = tmp_path / "c.json"
    assert main(["contrast", "--structure", "matching", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["closure"] == "ok"
    assert report["permutationSide"] == "solved"


def test_contrast_other_seed(tmp_path):
    out = tmp_path / "c.json"
    assert main(["contrast", "--seed", "7", "--count", "6", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["permutationSide"] == "solved"
    assert report["freeSide"] == "blocked(6)"


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "grpeq.cli", "scale", "--count", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "[0, 2, 4]\n"


def test_main_in_one_process_answers_as_fresh_processes(tmp_path, monkeypatch, capsys):
    # one process, one parser, many calls, as the benchmark and the tests
    # drive main: nothing a call leaves behind may change the next one's
    # answer, not even a call that leaves the parser partway through a parse.
    # The built-in scale's entries are kept for the process: calls that read
    # many of them come first, and a later, smaller solve still reports in
    # "j" only the entries it read itself
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at this width
    nu = write_json(tmp_path / "nu.json", {"prefix": [1, 0, 2], "tail": "zero"})
    good = ["solve", "--nu", nu, "--window", "2,3"]
    calls = [
        *(
            call + ["--budget", budget]
            for budget in ("1", "2")
            for call in (
                ["diagonalize", "--count", "60"],
                ["solve", "--nu", nu, "--window", "8,20"],
                ["solve", "--nu", nu, "--window", "2,3"],
                ["scale", "--count", "3"],
            )
        ),
        ["solve", "--window", "2"],
        good,
        ["solve", "--window", "2,3"],  # no --nu
        ["frobnicate", "--count", "3"],  # no such subcommand
        ["solve", "--nu", nu, "--window", "3"],  # a window is N,M
        ["diagonalize", "--help"],
        good,
        ["solve", "--nu", nu],
        ["--help"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:  # --help exits from inside the parser
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "grpeq.cli", *argv], capture_output=True, text=True,
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_a_second_main_call_builds_no_parser(monkeypatch, capsys):
    assert run(capsys, ["scale", "--count", "1"]) == (0, "[0]\n", "")
    built = []
    init = cli._Parser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted_init)
    assert run(capsys, ["scale", "--count", "3"]) == (0, "[0, 2, 4]\n", "")
    assert run(capsys, ["solve", "--window", "2"])[0] == 1
    assert built == []


def test_enumeration_reads_no_more_generators_than_count_needs():
    # the first count elements of F(z1..zk) are the identity and then the
    # letters z1, z1^-1, z2, ..., whatever k is once 2k >= count - 1
    for k in range(1, 13):
        for count in range(41):
            want = list(islice(h_elements(SubBasis.first(k)), count))
            h = _enumeration(argparse.Namespace(basis=k, count=count))
            assert [h(r) for r in range(count)] == want, (k, count)


def test_a_huge_basis_answers_as_a_small_one(tmp_path, capsys):
    # 10**8 generators would take gigabytes to list; 10 are as many as
    # the first 20 elements read
    huge, ten = tmp_path / "huge.json", tmp_path / "ten.json"
    assert main(["diagonalize", "--basis", "100000000", "--count", "20", "--out", str(huge)]) == 0
    assert main(["diagonalize", "--basis", "10", "--count", "20", "--out", str(ten)]) == 0
    assert huge.read_bytes() == ten.read_bytes()
    code, out, err = run(capsys, [
        "verify-blocked", "--nu", str(huge), "--basis", "100000000", "--count", "20",
        "--check-witnesses",
    ])
    assert (code, err) == (0, "")
    assert json.loads(out)["config"]["basis"] == 100000000  # as given
    for argv in (["diagonalize", "--count", "20"], ["verify-blocked", "--nu", str(huge), "--count", "20"]):
        for basis in ("0", "-3"):
            assert run(capsys, argv + ["--basis", basis]) == (
                1, "", "error: a sub-basis must be nonempty\n",
            )


TEXT = st.text(max_size=8) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é☃𝄞", "a\nb\tc", ""])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.integers(-(10**60), 10**60)
    | TEXT
)
REPORTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(TEXT, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(REPORTS)
@example(-(10**50))
@example({"": [], "\u00e9": {}, "a\\": [None, True, False, 10**40]})
def test_dump_matches_json_dumps(report):
    assert dump(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


INDICES = st.integers(0, 5) | st.integers(0, 10**60)
ROWS = st.lists(st.lists(st.tuples(INDICES, INDICES), max_size=4), max_size=4)
SEGMENTS = st.builds(ObeysSegment, INDICES, INDICES, INDICES, INDICES) | st.builds(
    BlockSegment, st.none() | INDICES, INDICES
)


def pairs(rows):
    """A certificate's pairs (n*, m*, i0, i1) in row-major order."""
    return [(n, m, i0, i1) for n, ends in enumerate(rows) for m, (i0, i1) in enumerate(ends)]


def read_pairs(pair_records):
    # a pair is an obeys record without "kind"
    log = [{"kind": "obeys", **pair} for pair in pair_records]
    return [(s.n_star, s.m_star, s.i0, s.i1) for s in read_log(log)]


def read_log(log):
    return nu_prefix_from_json({"entries": [], "log": log}).log


def same(record):
    return record


def limit_rows(rows):
    """The limit rows as a report spelled them out: [[n, [[m, image], ...]], ...]."""
    return [[n, [[m, image] for m, image in enumerate(images)]] for n, images in enumerate(rows)]


# each record kind: (what it is drawn from, what dump is given for it, what
# the written JSON value reads back as, and what that must equal)
RECORD_KINDS = {
    "segment": (SEGMENTS, same, lambda obj: read_log([obj])[0], same),
    "prefix": (
        st.builds(NuPrefix, st.lists(INDICES, max_size=6), st.lists(SEGMENTS, max_size=5)),
        same, nu_prefix_from_json, same,
    ),
    "nu": (st.lists(INDICES, max_size=6), nu_record, nu_from_json, same),
    "certificate": (ROWS, Certificate, read_pairs, pairs),
    "bstar": (st.lists(st.lists(INDICES, max_size=4), max_size=4), BStar, same, limit_rows),
}
RECORDS = st.one_of(
    *(st.tuples(st.just(kind), strategy) for kind, (strategy, *_) in RECORD_KINDS.items())
)


def report_shape(command, record, j, other):
    """A report of the given command's shape, with a record where its
    certificate goes; other stands in for the values around it."""
    report = {
        "j": j,
        "witnesses": record,
        "bStar": other,
        "equationCheck": "ok",
        "command": command,
        "config": {"depth": 128, "window": [4, 16]},
    }
    if command == "contrast":
        report.update(
            closure="ok",
            nu={"prefix": [0, 2], "tail": "zero"},
            permutationSide="solved",
            diagonal=other,
            reverify={"ok": True, "rounds": other},
            freeSide="blocked(20)",
        )
    return report


def nest(record, depth, other):
    """The record depth levels down, through a dict and a list beside other."""
    for _ in range(depth):
        record = {"a": [other, {"b": record}]}
    return record


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    record=RECORDS,
    where=st.sampled_from(["solve", "contrast"]) | st.integers(0, 3),
    j=st.lists(INDICES, max_size=4),
    other=REPORTS,
)
@example(record=("certificate", []), where="solve", j=[], other=[])
@example(record=("certificate", [[]]), where="contrast", j=[0], other={})
@example(record=("certificate", [[(10**50, 10**60)]]), where="solve", j=[0, 2], other=None)
@example(record=("certificate", [[(m + 1, 2 * m + 7) for m in range(9)] for _ in range(7)]),
         where="contrast", j=[0, 2, 4], other=[[0, [[0, 1]]]])
@example(record=("bstar", []), where="solve", j=[], other=[])
@example(record=("bstar", [[], []]), where="contrast", j=[0], other={})
@example(record=("bstar", [[1, 0, 10**40], [], [7]]), where=2, j=[], other=[])
@example(record=("segment", BlockSegment(None, 3)), where=2, j=[], other=[])
@example(record=("prefix", NuPrefix([0, 0, 2], [ObeysSegment(0, 0, 1, 5), BlockSegment(0, 2),
                                                BlockSegment(None, 3)])), where=1, j=[], other={})
def test_every_record_kind_round_trips_through_its_table(record, where, j, other):
    # each kind is written canonically at any depth and in the reports'
    # shapes, and what is written reads back as the record
    kind, value = record
    _, written, read_back, want = RECORD_KINDS[kind]
    if isinstance(where, str):
        text = dump(report_shape(where, written(value), j, other))
        got = json.loads(text)["witnesses"]
    else:
        text = dump(nest(written(value), where, other))
        got = json.loads(text)
        for _ in range(where):
            got = got["a"][1]["b"]
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert read_back(got) == want(value)


def test_records_are_written_in_their_documented_form():
    cases = [
        (ObeysSegment(0, 1, 2, 3), {"kind": "obeys", "nStar": 0, "mStar": 1, "i0": 2, "i1": 3}),
        (BlockSegment(None, 2), {"kind": "block", "target": None, "exponent": 2}),
        (NuPrefix([0, 2], [BlockSegment(0, 2)]),
         {"entries": [0, 2], "log": [{"kind": "block", "target": 0, "exponent": 2}]}),
        (nu_record((0, 2)), {"prefix": [0, 2], "tail": "zero"}),
        (Certificate([[(1, 5), (2, 7)], [(3, 9)]]), [
            {"nStar": 0, "mStar": 0, "i0": 1, "i1": 5},
            {"nStar": 0, "mStar": 1, "i0": 2, "i1": 7},
            {"nStar": 1, "mStar": 0, "i0": 3, "i1": 9},
        ]),
        (BStar([[1, 0], []]), [[0, [[0, 1], [1, 0]]], [1, []]]),
        (BStar([]), []),
    ]
    for record, want in cases:
        assert dump(record) == json.dumps(want, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "bad",
    [1.5, Fraction(1, 2), {1: "a"}, {"a": [{"b": {None: 1}}]}, [0, [2.0]], (1, 2)],
)
def test_dump_rejects_what_a_report_cannot_hold(bad):
    with pytest.raises(TypeError):
        dump(bad)
