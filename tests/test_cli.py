"""Command line behavior: reports, exit codes, byte determinism."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from grpeq.cli import _Witnesses, _dump, main
from grpeq.load import null_sequence_from_json
from grpeq.perm import NoBound


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
    ],
    ids=["list", "c-int", "member-int", "pair-int", "string", "boolean", "list-point",
         "perms-int", "bounds-int", "bound-string", "bound-negative", "bound-duplicate"],
)
def test_solve_rejects_malformed_dseq(tmp_path, capsys, d_obj):
    d = write_json(tmp_path / "d.json", d_obj)
    nu = write_json(tmp_path / "nu.json", {"prefix": [1], "tail": "zero"})
    code, out, err = run(capsys, ["solve", "--nu", nu, "--d", d])
    assert code == 1
    assert out == ""
    assert one_error_line(err)


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
    # one process, four calls, as the benchmark and the tests drive main:
    # nothing a call leaves behind may change the next one's answer
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at this width
    nu = write_json(tmp_path / "nu.json", {"prefix": [1, 0, 2], "tail": "zero"})
    calls = [
        ["solve", "--window", "2"],
        ["solve", "--nu", nu, "--window", "2,3"],
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
    assert _dump(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


INDICES = st.integers(0, 5) | st.integers(0, 10**60)
ROWS = st.lists(st.lists(st.tuples(INDICES, INDICES), max_size=4), max_size=4)


def per_pair(rows):
    """The witness list as the report held it before the template: one
    dict per pair, in row-major order."""
    return [
        {"nStar": n_star, "mStar": m_star, "i0": i0, "i1": i1}
        for n_star, ends in enumerate(rows)
        for m_star, (i0, i1) in enumerate(ends)
    ]


def report_shape(command, witnesses, j, other):
    """A report of the given command's shape around a witness list; other
    stands in for the values the witnesses sit between."""
    report = {
        "j": j,
        "witnesses": witnesses,
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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    rows=ROWS,
    command=st.sampled_from(["solve", "contrast"]),
    j=st.lists(INDICES, max_size=4),
    other=REPORTS,
)
@example(rows=[], command="solve", j=[], other=[])
@example(rows=[[]], command="contrast", j=[0], other={})
@example(rows=[[(10**50, 10**60)]], command="solve", j=[0, 2], other=None)
@example(rows=[[(m + 1, 2 * m + 7) for m in range(9)] for _ in range(7)], command="contrast",
         j=[0, 2, 4], other=[[0, [[0, 1]]]])
def test_dump_writes_witness_rows_as_per_pair_dicts(rows, command, j, other):
    report = report_shape(command, _Witnesses(rows), j, other)
    want = report_shape(command, per_pair(rows), j, other)
    assert _dump(report) == json.dumps(want, indent=2, sort_keys=True) + "\n"
    # at any depth, not only at the report's top level
    nested = {"a": [j, {"b": _Witnesses(rows)}]}
    want = {"a": [j, {"b": per_pair(rows)}]}
    assert _dump(nested) == json.dumps(want, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "bad",
    [1.5, Fraction(1, 2), {1: "a"}, {"a": [{"b": {None: 1}}]}, [0, [2.0]], (1, 2)],
)
def test_dump_rejects_what_a_report_cannot_hold(bad):
    with pytest.raises(TypeError):
        _dump(bad)
