"""Rewrite every pin table under ``tests/pins/`` from the current tree.

    PYTHONPATH=src python3 tests/record_pins.py

It takes no options.  It runs every test module that imports ``_pins``
(but not ``test_pins.py``, which checks the pin module on made-up entries)
with recording on, so each pinned test keeps what it computed instead of
comparing it.  Nothing is written unless all of those tests pass.  It then
prints, table by table, every entry added or dropped and every field that
moved against the old tables, and writes one file per table in a format
that a second run on an unchanged tree reproduces byte for byte.
"""

import sys
import time
from pathlib import Path

import pytest

import _pins


def main():
    start = time.perf_counter()
    here = Path(__file__).resolve().parent
    modules = [str(p) for p in sorted(here.glob("test_*.py"))
               if p.name != "test_pins.py" and "import _pins" in p.read_text()]
    old = {p.stem: _pins._load(p) for p in sorted(_pins.DIR.glob("*.json"))}
    _pins.RECORDING = {}
    if pytest.main(["-q", "-p", "no:cacheprovider", *modules]) != 0:
        print("record_pins: a pinned test failed; no table written", file=sys.stderr)
        return 1
    new = _pins.RECORDING
    for table in sorted(old.keys() | new.keys()):
        before, after = old.get(table, {}), new.get(table, {})
        for name in sorted(before.keys() | after.keys()):
            if name not in after:
                print(f"{table}[{name}]: dropped")
            elif name not in before:
                print(f"{table}[{name}]: added")
            else:
                for line in _pins.diff(before[name], after[name]):
                    print(f"{table}[{name}]: {line}")
    for table in old.keys() - new.keys():
        (_pins.DIR / f"{table}.json").unlink()
    for table, entries in new.items():
        _pins.write(table, entries)
    count = sum(map(len, new.values()))
    print(f"record_pins: {count} entries in {len(new)} tables, "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
