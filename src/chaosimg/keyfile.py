"""Text key-file parsing: `name=value` lines, `#` comments, LF or CRLF.

Required names (each exactly once): map1.r, map1.x0, map1.y0,
map2.r, map2.a, map2.b, map2.x0, map2.y0, transient.
Unknown names are rejected.
"""

from __future__ import annotations

import math

from .cipher import KeyMaterial
from .errors import KeyFileError
from .maps import MapId, MapParams

FLOAT_KEYS = (
    "map1.r",
    "map1.x0",
    "map1.y0",
    "map2.r",
    "map2.a",
    "map2.b",
    "map2.x0",
    "map2.y0",
)
REQUIRED_KEYS = FLOAT_KEYS + ("transient",)


def parse_key_text(text: str) -> KeyMaterial:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise KeyFileError(f"line {lineno}: expected name=value, got {line!r}")
        name, _, value = line.partition("=")
        name = name.strip()
        value = value.strip()
        if name not in REQUIRED_KEYS:
            raise KeyFileError(f"line {lineno}: unknown key {name!r}")
        if name in values:
            raise KeyFileError(f"line {lineno}: duplicate key {name!r}")
        values[name] = value

    missing = [k for k in REQUIRED_KEYS if k not in values]
    if missing:
        raise KeyFileError(f"missing required key(s): {', '.join(missing)}")

    parsed: dict[str, float] = {}
    for name in FLOAT_KEYS:
        try:
            v = float(values[name])
        except ValueError:
            raise KeyFileError(f"key {name!r}: not a decimal: {values[name]!r}")
        if not math.isfinite(v):
            raise KeyFileError(f"key {name!r}: value must be finite")
        parsed[name] = v
    try:
        transient = int(values["transient"])
    except ValueError:
        raise KeyFileError(f"key 'transient': not an integer: {values['transient']!r}")
    if transient < 0:
        raise KeyFileError("key 'transient': must be non-negative")

    return KeyMaterial(
        map1=MapParams(
            map_id=MapId.MAP1,
            r=parsed["map1.r"],
            x0=parsed["map1.x0"],
            y0=parsed["map1.y0"],
            transient=transient,
        ),
        map2=MapParams(
            map_id=MapId.MAP2,
            r=parsed["map2.r"],
            a=parsed["map2.a"],
            b=parsed["map2.b"],
            x0=parsed["map2.x0"],
            y0=parsed["map2.y0"],
            transient=transient,
        ),
    )


def load_key_file(path) -> KeyMaterial:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_key_text(fh.read())

