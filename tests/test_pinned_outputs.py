import pytest

import pinned_outputs


def test_outputs_match_pinned_reference():
    """The tables, marches, V-cycles, folds and level products reproduce
    bitwise the reference entry made on this machine; a mismatch names
    every entry that moved.  Elsewhere the rounding may differ, so on a
    machine with no entry of its own the test skips, naming the machines
    on record."""
    records = pinned_outputs.recorded()
    reference = pinned_outputs.entry_for(pinned_outputs.machine(), records)
    if reference is None:
        on_record = "; ".join("{cpu}, numpy {numpy}, scipy {scipy}, threads {threads}"
                              .format(**record["machine"]) for record in records)
        pytest.skip(f"no reference made on this machine; on record: {on_record}")
    entries = pinned_outputs.compute()
    expected = reference["entries"]
    moved = sorted(key for key in expected.keys() | entries.keys()
                   if entries.get(key) != expected.get(key))
    assert not moved, "outputs moved: " + ", ".join(moved)
