"""Text key-file parsing: `name=value` lines, `#` comments, LF or CRLF.

Required names (each exactly once): map1.r, map1.x0, map1.y0,
map2.r, map2.a, map2.b, map2.x0, map2.y0, transient.
Unknown names are rejected, and so is a file over MAX_KEY_FILE bytes.
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

    def map_params(map_id: MapId) -> MapParams:
        prefix = f"map{map_id.value}."
        fields = {k[len(prefix):]: v for k, v in parsed.items() if k.startswith(prefix)}
        return MapParams(map_id, transient=transient, **fields)

    try:  # MapParams bounds the transient
        return KeyMaterial(map1=map_params(MapId.MAP1), map2=map_params(MapId.MAP2))
    except ValueError as exc:
        raise KeyFileError(str(exc)) from None


def load_key_file(path) -> KeyMaterial:
    with open(path, "rb") as fh:
        data = fh.read(MAX_KEY_FILE + 1)
    if len(data) > MAX_KEY_FILE:
        raise KeyFileError(f"key file is longer than {MAX_KEY_FILE:,} bytes")
    return parse_key_text(data.decode("utf-8"))

