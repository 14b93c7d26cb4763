"""One strict codec between JSON values and the config dataclasses.

``load(cls, d)`` builds a dataclass from a JSON-shaped dict, driven by
``dataclasses.fields`` and the field annotations:

- an unknown key, a missing required key or a value of the wrong JSON type
  raises ConfigError naming the dotted path of the key;
- a bool is not an int, and NaN and +-Infinity are not numbers; an int is
  accepted for a float and kept as written, so a config dumps back as read;
- ``X | None`` also takes null, ``tuple[...]`` takes an array and a nested
  dataclass takes an object.

``dump(obj)`` is the inverse: fields in declaration order, None fields left
out, tuples as arrays.
"""

import dataclasses
import functools
import json
import math
import types
import typing

from wellqc.errors import ConfigError, shorten

_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}
_CONTAINERS = {list: "an array", tuple: "an array", dict: "an object"}
_type_hints = functools.cache(typing.get_type_hints)


def load(cls, data, where: str = ""):
    """Build ``cls`` from ``data``; ``where`` prefixes error messages with a key path."""
    if not isinstance(data, dict):
        raise _wrong_type(where or cls.__name__, "an object", data)
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise ConfigError(f"{where or cls.__name__}: unknown key(s) {', '.join(map(repr, unknown))}")
    hints = _type_hints(cls)
    kwargs = {}
    for f in fields:
        path = f"{where}.{f.name}" if where else f.name
        if f.name in data:
            kwargs[f.name] = _decode(hints[f.name], data[f.name], path)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{path}: missing required key")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        if not where:
            raise
        raise ConfigError(f"{where}: {exc}") from None


def dump(obj) -> dict:
    """The JSON-shaped dict ``load`` reads back into an equal object."""
    return {
        f.name: _encode(getattr(obj, f.name))
        for f in dataclasses.fields(obj)
        if getattr(obj, f.name) is not None
    }


def load_file(cls, path):
    """``load`` applied to a JSON file; every error names the file."""
    data = read_json(path)
    try:
        return load(cls, data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def read_json(path):
    """Parse a JSON file; text that is not JSON, or nests past the parser's depth, raises ConfigError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None


def write_json(path, data, sort_keys=False) -> None:
    """Write ``data`` as two-space-indented JSON and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _decode(tp, value, path: str):
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(tp):
            return None
        (tp,) = [t for t in typing.get_args(tp) if t is not type(None)]
        return _decode(tp, value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise _wrong_type(path, "an array", value)
        item_types = typing.get_args(tp)
        if len(item_types) == 2 and item_types[1] is Ellipsis:
            item_types = item_types[:1] * len(value)
        elif len(item_types) != len(value):
            raise ConfigError(f"{path}: expected an array of {len(item_types)} items, got {len(value)}")
        return tuple(_decode(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(item_types, value)))
    if dataclasses.is_dataclass(tp):
        return load(tp, value, path)
    accepted = (int, float) if tp is float else tp
    if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
        raise _wrong_type(path, _EXPECTED.get(tp, tp.__name__), value)
    if tp is float and not math.isfinite(value):
        raise _wrong_type(path, "a finite number", value)
    return value


def _encode(value):
    if dataclasses.is_dataclass(value):
        return dump(value)
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return value


def _wrong_type(path: str, expected: str, value) -> ConfigError:
    """Names an array or object by its kind and cuts a long value, so the message stays one short line."""
    shown = _CONTAINERS.get(type(value)) or shorten(json.dumps(value, default=repr))
    return ConfigError(f"{path}: expected {expected}, got {shown}")
