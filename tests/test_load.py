"""The README's file-format examples load through grpeq.load as written;
a read leaves the garbage collector as it found it; a malformed member of
a driving sequence gives one pinned error line."""

import gc
import json
import pathlib

import pytest

from grpeq import load
from grpeq.cli import main
from grpeq.load import nu_from_json, nu_prefix_from_json, null_sequence_from_json, scale_from_json
from grpeq.perm import NullSequence

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def format_examples():
    """The lines of each ```json block in the README's "File formats" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```json\n")[1:]
    return [[line for line in block.split("```", 1)[0].splitlines() if line] for block in blocks]


def test_readme_file_format_examples_load():
    # the blocks come in the order --d, solve --nu, verify-blocked --nu, --scale
    loaders = [
        null_sequence_from_json,
        nu_from_json,
        nu_prefix_from_json,
        lambda obj: scale_from_json(obj, 1),
    ]
    blocks = format_examples()
    assert len(blocks) == len(loaders)
    for block, load in zip(blocks, loaders):
        assert block
        for line in block:
            load(json.loads(line))
    # the loaded values are the documented ones, not just accepted
    explicit, cauchy = (null_sequence_from_json(json.loads(line)) for line in blocks[0][1:])
    assert [explicit.mover_bound(m) for m in (4, 5)] == [1, 1]
    assert cauchy.perm(0) == NullSequence.transpositions().perm(1)
    assert [nu_from_json(json.loads(line)) for line in blocks[1]] == [[0, 2, 0, 1], [1]]
    assert nu_prefix_from_json(json.loads(blocks[2][0])).entries[11] == 2
    wide = scale_from_json(json.loads(blocks[3][1]), 1)
    assert (wide.budget, wide.value(3)) == (2, 9)


T01, T23 = [[0, 1], [1, 0]], [[2, 3], [3, 2]]

# each way out of load.read: the file's bytes (None: no file) and what the
# read raises (None: it returns)
READS = {
    "ok": (b'{"kind": "cauchy", "c": [[[0, 1], [1, 0]], [[2, 3], [3, 2]]]}', None),
    "missing-file": (None, OSError),
    "invalid-json": (b'{"kind": ', ValueError),
    "invalid-utf8": (b"\xff[0]", ValueError),
    "nested-too-deeply": (b"[" * 100000 + b"]" * 100000, ValueError),
    "json-path": (b'{"kind": "cauchy", "c": [[[0, 0], [0, 1]]]}', ValueError),
}


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("way", list(READS))
def test_read_leaves_the_collector_as_it_found_it(tmp_path, way, collecting):
    data, raises = READS[way]
    path = tmp_path / "d.json"
    if data is not None:
        path.write_bytes(data)
    seen = []

    def parse(value):
        seen.append(gc.isenabled())
        return null_sequence_from_json(value)

    was = gc.isenabled()
    try:
        if collecting:
            gc.enable()
        else:
            gc.disable()
        if raises is None:
            assert load.read(str(path), parse).length == 1
        else:
            with pytest.raises(raises):
                load.read(str(path), parse)
        assert gc.isenabled() is collecting
        assert seen in ([], [False])  # off across the parse, when one runs
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()


def _member_cases():
    """(kind, field, members, index, line) of each malformed member: one
    that is not a list, or one holding a pair of the wrong shape, at the
    first and at the last member of a Cauchy c and of an explicit perms."""
    wrong_pairs = [[1, 2, 3], [4], 5, "ab", {"a": 1}, None]
    for kind, field in (("cauchy", "c"), ("explicit", "perms")):
        for index in (0, 3):
            for member in (5, "ab", {"a": 1}, None):
                members = [T01, T23, T01, T23]
                members[index] = member
                yield kind, field, members, index, f"expected a JSON list, got {member!r}"
            for pair in wrong_pairs:
                members = [T01, T23, T01, T23]
                members[index] = T01 + [pair]
                yield kind, field, members, index, f"not a [point, image] pair: {pair!r}"


@pytest.mark.parametrize("kind, field, members, index, line", list(_member_cases()))
def test_member_shape_error_lines(tmp_path, capsys, kind, field, members, index, line):
    obj = {"kind": kind, field: members}
    if kind == "explicit":
        obj["moverBound"] = [[0, 4]]
    path = tmp_path / "d.json"
    path.write_text(json.dumps(obj))
    assert main(["scale", "--d", str(path), "--count", "1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {path}: {field}[{index}]: {line}\n")
