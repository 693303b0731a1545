"""The README's file-format examples load through grpeq.load as written."""

import json
import pathlib

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
