"""``docs/offload_protocol.md`` renders the code's two protocol tables;
these tests hold the doc and the code equal."""

import re
from pathlib import Path

from repro.core.offload import TRANSITIONS, UNMATCHED_ACK, RowState

DOC = Path(__file__).resolve().parents[2] / "docs" / "offload_protocol.md"


def table(name):
    """The body rows of the table between the ``name`` markers, as cells."""
    found = re.search(rf"<!-- {name}:begin -->\n(.*?)<!-- {name}:end -->", DOC.read_text(), re.S)
    assert found, f"docs/offload_protocol.md lost its {name} markers"
    lines = found.group(1).strip().splitlines()[2:]  # past the header and its rule
    return [[cell.strip().strip("`") for cell in line.strip().strip("|").split("|")] for line in lines]


def state(cell):
    return None if cell == "—" else RowState[cell]


def test_transition_table_is_the_code_table():
    documented = {}
    for before, trigger, after, *_ in table("transitions"):
        for name in before.split(", "):
            key = (state(name), trigger)
            assert key not in documented, f"{key} documented twice"
            documented[key] = state(after)
    assert documented == TRANSITIONS


def test_unmatched_ack_table_is_the_code_table():
    documented = {
        (standing, window == "yes"): outcome for standing, window, outcome, *_ in table("unmatched-ack")
    }
    assert documented == {key: outcome.value for key, outcome in UNMATCHED_ACK.items()}
