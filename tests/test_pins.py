"""A pin that moved fails with a message that says what moved: hand-made
mismatches against the recorded tables and a table written here."""

import json

import numpy as np
import pytest

import _pins

RS2D = ("rs2d", "--n", "64", "--xmax", "10", "--ordering", "px", "--epsilons=1,1")


def _failure(table, case, entry):
    """The message of the AssertionError that the check raises."""
    try:
        _pins.check(table, case, entry)
    except AssertionError as exc:
        return str(exc)
    except pytest.skip.Exception:
        pytest.fail("the check skipped instead of failing")
    pytest.fail("the check passed")


def test_a_changed_digit_names_its_json_path_and_both_values():
    text = _pins.stored("transport_stdout", RS2D)["stdout"]
    old = repr(json.loads(text)["verification"]["distances"]["pq"])
    new = old[:6] + str((int(old[6]) + 1) % 10) + old[7:]  # a digit that changes the float
    moved = text.replace(f'"pq": {old}', f'"pq": {new}')
    assert moved != text
    message = _failure("transport_stdout", RS2D, _pins.stdout(0, moved))
    assert message.splitlines() == [
        f"transport_stdout[{' '.join(RS2D)}]: verification.distances.pq: {old} -> {new} "
        f"(relative difference {abs(float(new) - float(old)) / max(float(old), float(new)):.3g})"
    ]


def test_a_changed_exit_code_is_named():
    text = _pins.stored("transport_stdout", RS2D)["stdout"]
    message = _failure("transport_stdout", RS2D, _pins.stdout(3, text))
    assert message == f"transport_stdout[{' '.join(RS2D)}]: exit code 0 -> 3"


def test_a_moved_element_names_the_summary_entries_that_moved(tmp_path, monkeypatch):
    monkeypatch.setattr(_pins, "DIR", tmp_path)
    values = np.linspace(0.0, 1.0, 8) + 1j * np.linspace(-1.0, 0.0, 8)
    _pins.write("made_up", {_pins.key((8, "complex")): _pins.array(values)})
    values[3] += 0.25j  # the imaginary part -4/7 moves towards 0
    message = _failure("made_up", (8, "complex"), _pins.array(values))
    moved = [line.split(": ")[1] for line in message.splitlines()]
    assert moved[0].startswith("sha256 ")
    assert moved[1:] == ["summary l1", "summary sum"]
    assert "(relative difference" in message


def test_a_case_with_no_entry_names_its_table_and_case():
    message = _failure("transport_stdout", ("rs1d", "--n", "8"), _pins.stdout(0, "{}"))
    assert message.startswith("transport_stdout[rs1d --n 8]: no recorded entry")
    assert _pins.ids([("rs1d", "--n", "8")], "transport_stdout") == ["argv0-None"]
