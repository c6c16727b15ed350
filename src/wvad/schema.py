"""One typed reader for the JSON in configs, manifests and checkpoint headers.

``from_json`` builds a dataclass from a parsed JSON value and checks every
value against its field's annotation, by the rules in the README's
"Configuration reference". Each class's field checks are resolved once, so
a record costs one walk over its keys. Range checks stay in each class's
``__post_init__``; their errors are re-raised with the key path.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import reprlib
import types
import typing

from .errors import WvadError


class _Invalid(Exception):
    """A misfit: ``args`` is the message, then the key path, innermost first."""


def from_json(cls, value, where: str, error: type[WvadError]):
    """``cls`` built from ``value``, or ``error`` naming ``where`` and the key."""
    try:
        return _checker(cls)(value)
    except _Invalid as e:
        key = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in reversed(e.args[1:]))
        raise error(f"{where}: {key[1:] + ': ' if key else ''}{e.args[0]}") from None


def _each(check_of, items) -> dict:
    """Check each (key, value) by ``check_of(key)``; a misfit's path gains its key."""
    out = {}
    for key, value in items:
        try:
            out[key] = check_of(key)(value)
        except _Invalid as e:
            raise _Invalid(*e.args, key) from None
    return out


@functools.cache
def _checker(tp):
    """The function that checks, and builds, a JSON value of annotation ``tp``."""
    if dataclasses.is_dataclass(tp):
        return _object_checker(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:   # X | None
        inner = _checker(next(a for a in args if a is not type(None)))
        return lambda value: None if value is None else inner(value)
    if origin in (list, tuple):   # list[X], or a fixed-length tuple[X, Y, ...]
        checks = [_checker(a) for a in args]
        check_of = (lambda _: checks[0]) if origin is list else checks.__getitem__
        size = "" if origin is list else f" of {len(args)}"

        def check_list(value):
            if type(value) is not list or (size and len(value) != len(args)):
                raise _Invalid(f"expected a list{size}, got {reprlib.repr(value)}")
            return origin(_each(check_of, enumerate(value)).values())
        return check_list
    accepted = (float, int) if tp is float else (tp,)   # an int stays an int

    def check_scalar(value):
        if type(value) not in accepted:
            raise _Invalid(f"expected {tp.__name__}, got {reprlib.repr(value)}")
        if type(value) is float and not math.isfinite(value):   # JSON NaN, Infinity
            raise _Invalid(f"expected a finite float, got {value}")
        return value
    return check_scalar


def _object_checker(cls):
    fields = [f for f in dataclasses.fields(cls) if f.init]
    hints = typing.get_type_hints(cls)
    checks = {f.name: _checker(hints[f.name]) for f in fields}
    required = {f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING}

    def check_object(value):
        if type(value) is not dict:
            raise _Invalid(f"expected a JSON object, got {reprlib.repr(value)}")
        if not checks.keys() >= value.keys():
            raise _Invalid(f"unknown keys {sorted(value.keys() - checks.keys())}")
        if not value.keys() >= required:
            raise _Invalid(f"missing keys {sorted(required - value.keys())}")
        try:
            return cls(**_each(checks.__getitem__, value.items()))
        except WvadError as e:
            raise _Invalid(str(e)) from None
    return check_object
