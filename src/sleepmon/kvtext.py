"""The plain-text ``key=value`` files and the one codec that maps them to dataclasses.

Manifests, detector configs and scenario files share one discipline: UTF-8
text, one ``key=value`` per line, ``#`` starts a comment, blank lines are
ignored.  Keys may repeat (scenario timelines rely on repeated ``item=``
lines), so the low-level API works on ordered pairs rather than dicts.

Each of those files is the text form of a dataclass, and the dataclass is its
only definition: ``to_pairs`` and ``from_pairs`` take the keys, their order
and their value types from the fields.  A field annotated ``int``, ``float``
or ``str`` is one key of the same name; a field named ``roi`` is the four
keys ``roi_x``, ``roi_y``, ``roi_w``, ``roi_h``; fields of any other type (a
scenario's timeline) are not keys, and their owner writes them itself.
Floats are written with ``repr`` so they read back bit for bit, everything
else with ``str``.  The modules that own these dataclasses use
``from __future__ import annotations``, so the annotations are the strings
the codec looks up.
"""

from __future__ import annotations

import os
from dataclasses import fields

ROI_KEYS = ("roi_x", "roi_y", "roi_w", "roi_h")
_PARSERS = {"int": int, "float": float, "str": str}


def parse_pairs(text: str) -> list[tuple[str, str]]:
    """Parse key=value lines into an ordered list of (key, value) pairs."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def read_pairs(path: str | os.PathLike) -> list[tuple[str, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pairs(fh.read())


def format_pairs(pairs) -> str:
    return "".join(f"{k}={v}\n" for k, v in pairs)


def write_pairs(path: str | os.PathLike, pairs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_pairs(pairs))


def to_pairs(obj) -> list[tuple[str, str]]:
    """The key=value pairs of a dataclass instance, in field order."""
    pairs = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name == "roi":
            pairs += zip(ROI_KEYS, map(str, value))
        elif f.type == "float":
            pairs.append((f.name, repr(float(value))))
        elif f.type in _PARSERS:
            pairs.append((f.name, str(value)))
    return pairs


def from_pairs(cls, pairs, what: str, *, required: bool):
    """Build ``cls`` from key=value pairs, parsing each value by its field's type.

    Unknown and repeated keys raise ``ValueError``, and so do missing keys when
    ``required``; otherwise a missing key keeps its field default.  ``what``
    names the file in the messages.  A value the constructor rejects raises
    ``ValueError("invalid <what> (...)")``.
    """
    parsers = {}
    for f in fields(cls):
        if f.name == "roi":
            parsers.update(dict.fromkeys(ROI_KEYS, int))
        elif f.type in _PARSERS:
            parsers[f.name] = _PARSERS[f.type]
    values = {}
    for key, text in pairs:
        if key not in parsers:
            raise ValueError(f"unknown {what} key {key!r}")
        if key in values:
            raise ValueError(f"duplicate {what} key {key!r}")
        try:
            values[key] = parsers[key](text)
        except ValueError as exc:
            raise ValueError(f"bad {what} value for {key} ({exc})") from exc
    missing = [k for k in parsers if k not in values]
    if required and missing:
        raise ValueError(f"{what} missing keys {missing}")
    roi = tuple(values.pop(k) for k in ROI_KEYS if k in values)
    if roi:
        values["roi"] = roi
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"invalid {what} ({exc})") from exc
