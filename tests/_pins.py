"""Pins: the recorded bits of bellforge's checkable numbers, and the one
place that hashes, stores and compares them.

A table is one JSON file under ``tests/pins/``.  It maps a case key (a
string case itself, the words of a tuple of strings joined by spaces, the
``repr`` of any other case) to an entry of one of three kinds:

- a stdout pin, ``{"exit": code, "stdout": text}``: the exit code and the
  full text of one command's output.  A mismatch names the exit code, or
  each JSON path whose value moved (``verification.distances.pq``), with
  both values and their relative difference;
- an array pin, ``{"sha256": digest, "summary": {...}}``: the first 16 hex
  digits of the sha256 of the array's bytes (of each part's bytes in turn,
  for a pin of several arrays) and the min, max, sum and L1 norm of its
  real view (a complex array viewed as its real and imaginary parts).  A
  mismatch names each summary entry that moved, so it says how far the
  array moved.  A CSV file is pinned the same way, its summary taken over
  the cells that parse as floats;
- a scalar pin, ``{"repr": text}``: ``repr`` round-trips every bit of a
  float and shows the value that moved.

The test suite only compares.  ``tests/record_pins.py`` rewrites every
table from the current tree: it runs the pinned tests with
:data:`RECORDING` set, so that :func:`compare` keeps what each test
computed instead of comparing it.
"""

import ast
import csv
import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np

DIR = Path(__file__).resolve().parent / "pins"

# {table: {key: entry}} while tests/record_pins.py records; None in the tests
RECORDING = None


def digest(data):
    """First 16 hex digits of the sha256 of bytes, of a string's UTF-8 bytes
    or of an array's bytes in C order."""
    if isinstance(data, str):
        data = data.encode()
    elif not isinstance(data, bytes):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def stdout(code, text):
    return {"exit": code, "stdout": text}


def array(value=None, **parts):
    """The pin of one array, or of several named arrays hashed in turn."""
    parts = {name: np.ascontiguousarray(a) for name, a in (parts or {"": value}).items()}
    summary = {}
    for name, a in parts.items():
        real = a.view(a.real.dtype) if np.iscomplexobj(a) else a
        summary.update(_summary(real.astype(np.float64).ravel(), f"{name}." if name else ""))
    return {"sha256": digest(b"".join(a.tobytes() for a in parts.values())), "summary": summary}


def csv_file(path):
    """The pin of a CSV file: its bytes, summarized over its float cells."""
    values = []
    with open(path, newline="") as fh:
        for cell in (c for row in csv.reader(fh) for c in row):
            try:
                values.append(float(cell))
            except ValueError:  # a header or a label
                pass
    return {"sha256": digest(Path(path).read_bytes()), "summary": _summary(np.array(values))}


def scalar(value):
    """The pin of a Python float, or of a tuple of them."""
    return {"repr": repr(value)}


def _summary(real, prefix=""):
    return {prefix + "min": float(real.min()), prefix + "max": float(real.max()),
            prefix + "sum": float(real.sum()), prefix + "l1": float(np.abs(real).sum())}


def key(case):
    if isinstance(case, str):
        return case
    if isinstance(case, tuple) and all(isinstance(word, str) for word in case):
        return " ".join(case)
    return repr(case)


@functools.cache
def _load(path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def stored(table, case):
    """The recorded entry of a case, or None."""
    return _load(DIR / f"{table}.json").get(key(case))


def ids(cases, *tables):
    """pytest ids naming each case and the short form of its stored pins: a
    digest for a stdout or array pin, the repr for a scalar one and None
    where there is none.  A string case names itself, any other case is
    ``argv`` and its position, as pytest names them by default.  The ids
    keep the names the tests have always had; a re-recorded pin renames
    its test."""
    out = []
    for i, case in enumerate(cases):
        words = [case if isinstance(case, str) else f"argv{i}"]
        for table in tables:
            entry = stored(table, case) or {}
            words.append(str(digest(entry["stdout"]) if "stdout" in entry
                             else entry.get("sha256", entry.get("repr"))))
        out.append("-".join(words))
    return out


def compare(table, case, entry):
    """One line per field of ``entry`` that differs from the recorded one,
    each headed by the table and the case."""
    head = f"{table}[{key(case)}]"
    if RECORDING is not None:
        seen = RECORDING.setdefault(table, {}).setdefault(key(case), entry)
        return [f"{head}: recorded twice, {line}" for line in diff(seen, entry)]
    want = stored(table, case)
    if want is None:
        return [f"{head}: no recorded entry in {DIR.name}/{table}.json "
                "(record it with tests/record_pins.py)"]
    return [f"{head}: {line}" for line in diff(want, entry)]


def check(table, case, entry, context=""):
    """Raise AssertionError naming every field that moved; ``context`` (say
    the command's stderr) is appended to the message."""
    problems = compare(table, case, entry)
    if problems:
        raise AssertionError("\n".join(problems + ([context] if context else [])))


def diff(want, got):
    """What moved between two entries of the same kind, one line per field."""
    if "stdout" in want:
        code = [f"exit code {want['exit']} -> {got['exit']}"] if want["exit"] != got["exit"] else []
        return code + _text_diff(want["stdout"], got["stdout"])
    if "sha256" in want:
        if want["sha256"] == got["sha256"]:
            return []
        old, new = want["summary"], got["summary"]
        moved = [_value_line(f"summary {name}", old.get(name), new.get(name))
                 for name in sorted(old.keys() | new.keys())
                 if repr(old.get(name)) != repr(new.get(name))]
        return [f"sha256 {want['sha256']} -> {got['sha256']}"] + (
            moved or ["no summary entry moved: the bits moved below min, max, sum and L1"])
    if want["repr"] == got["repr"]:
        return []
    try:
        moved = list(_tree_diff("value", *map(ast.literal_eval, (want["repr"], got["repr"]))))
    except (ValueError, SyntaxError):  # say a nan, which literal_eval does not read
        moved = []
    return moved or [f"value: {want['repr']} -> {got['repr']}"]


def _text_diff(want, got):
    if want == got:
        return []
    try:
        moved = list(_tree_diff("", json.loads(want), json.loads(got)))
    except ValueError:
        moved = []
    if moved:
        return moved
    old, new = want.splitlines(), got.splitlines()
    line = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
    return [f"stdout line {line + 1}: {(old + [''])[line]!r} -> {(new + [''])[line]!r}"]


def _tree_diff(path, want, got):
    """The JSON paths (``a.b[2]``) whose values differ between two documents."""
    if isinstance(want, dict) and isinstance(got, dict):
        for name in sorted(want.keys() | got.keys()):
            sub = f"{path}.{name}" if path else name
            if name not in got or name not in want:
                yield _value_line(sub, want.get(name, "(absent)"), got.get(name, "(absent)"))
            else:
                yield from _tree_diff(sub, want[name], got[name])
    elif (isinstance(want, (list, tuple)) and isinstance(got, (list, tuple))
          and len(want) == len(got)):
        for i, (a, b) in enumerate(zip(want, got)):
            yield from _tree_diff(f"{path}[{i}]", a, b)
    elif repr(want) != repr(got):
        yield _value_line(path, want, got)


def _value_line(path, want, got):
    line = f"{path}: {want!r} -> {got!r}"
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (want, got)):
        scale = max(abs(want), abs(got))
        if scale and math.isfinite(scale):  # not for a moved sign of zero, a nan or an inf
            line += f" (relative difference {abs(got - want) / scale:.3g})"
    return line


def write(table, entries):
    """Write a table in the one format every run reproduces byte for byte."""
    DIR.mkdir(exist_ok=True)
    text = json.dumps(entries, indent=1, sort_keys=True) + "\n"
    (DIR / f"{table}.json").write_text(text, encoding="utf-8")
