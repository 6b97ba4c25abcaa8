import json

import pytest

import pinned_outputs


def test_outputs_match_pinned_reference():
    """The tables, marches, V-cycles, folds and level products reproduce
    the committed reference bitwise, on the machine it was made on; a
    mismatch names every entry that moved.  Elsewhere the rounding may
    differ, so the test skips, naming what differs."""
    reference = json.loads(pinned_outputs.REFERENCE.read_text())
    here = pinned_outputs.machine()
    differs = {key: (value, here.get(key)) for key, value in reference["machine"].items()
               if here.get(key) != value}
    if differs:
        pytest.skip(f"reference made on another machine: {differs}")
    entries = pinned_outputs.compute()
    expected = reference["entries"]
    moved = sorted(key for key in expected.keys() | entries.keys()
                   if entries.get(key) != expected.get(key))
    assert not moved, "outputs moved: " + ", ".join(moved)
