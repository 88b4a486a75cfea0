"""Text key-file parsing: `name=value` lines, `#` comments, LF or CRLF.

Required names (each exactly once): map1.r, map1.x0, map1.y0,
map2.r, map2.a, map2.b, map2.x0, map2.y0, transient.
Unknown names are rejected, and so is a file over MAX_KEY_FILE bytes or
one that is not UTF-8 text.
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
MAX_KEY_FILE = 64 * 1024  # bytes; a complete key file is about 150


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

    num: dict[str, float] = {}
    for name in FLOAT_KEYS:
        try:
            v = float(values[name])
        except ValueError:
            raise KeyFileError(f"key {name!r}: not a decimal: {values[name]!r}")
        if not math.isfinite(v):
            raise KeyFileError(f"key {name!r}: value must be finite")
        num[name] = v
    try:
        transient = int(values["transient"])
    except ValueError:
        raise KeyFileError(f"key 'transient': not an integer: {values['transient']!r}")

    try:  # MapParams bounds the transient
        return KeyMaterial(
            map1=MapParams(MapId.MAP1, r=num["map1.r"], x0=num["map1.x0"],
                           y0=num["map1.y0"], transient=transient),
            map2=MapParams(MapId.MAP2, r=num["map2.r"], a=num["map2.a"], b=num["map2.b"],
                           x0=num["map2.x0"], y0=num["map2.y0"], transient=transient),
        )
    except ValueError as exc:
        raise KeyFileError(str(exc)) from None


def load_key_file(path) -> KeyMaterial:
    with open(path, "rb") as fh:
        data = fh.read(MAX_KEY_FILE + 1)
    if len(data) > MAX_KEY_FILE:
        raise KeyFileError(f"key file is longer than {MAX_KEY_FILE:,} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise KeyFileError(f"key file is not utf-8 text: byte 0x{data[exc.start]:02x}"
                           f" at offset {exc.start}") from None
    return parse_key_text(text)

