"""Scalar 3-valued logic.

Values are plain ints: ``0``, ``1`` and ``VX`` (unknown, encoded as 2).
This module provides the scalar evaluation used by composite ATPG
simulation and by the interpreted reference simulators of the tests.
"""

from __future__ import annotations

from typing import Iterable

Value = int
"""Type alias for a ternary value: one of :data:`V0`, :data:`V1`, :data:`VX`."""

V0: Value = 0
V1: Value = 1
VX: Value = 2

_CHARS = {V0: "0", V1: "1", VX: "x"}
_FROM_CHAR = {"0": V0, "1": V1, "x": VX, "X": VX}


def is_binary(value: Value) -> bool:
    """True for 0 or 1 (not X)."""
    return value in (V0, V1)


def invert(value: Value) -> Value:
    """Ternary NOT."""
    if value == VX:
        return VX
    return V1 - value


def and_reduce(values: Iterable[Value]) -> Value:
    """Ternary AND over one or more values.

    A controlling 0 dominates X; an all-1 input set gives 1.
    """
    saw_x = False
    for value in values:
        if value == V0:
            return V0
        if value == VX:
            saw_x = True
    return VX if saw_x else V1


def or_reduce(values: Iterable[Value]) -> Value:
    """Ternary OR over one or more values."""
    saw_x = False
    for value in values:
        if value == V1:
            return V1
        if value == VX:
            saw_x = True
    return VX if saw_x else V0


def xor_reduce(values: Iterable[Value]) -> Value:
    """Ternary XOR over one or more values (any X makes the result X)."""
    acc = V0
    for value in values:
        if value == VX:
            return VX
        acc ^= value
    return acc


def to_char(value: Value) -> str:
    """Render a ternary value as ``'0'``, ``'1'`` or ``'x'``."""
    try:
        return _CHARS[value]
    except KeyError:
        raise ValueError(f"not a ternary value: {value!r}") from None


def resolve_char(char: str) -> Value:
    """Parse ``'0'``/``'1'``/``'x'``/``'X'`` into a ternary value."""
    try:
        return _FROM_CHAR[char]
    except KeyError:
        raise ValueError(f"not a ternary character: {char!r}") from None
