"""Shared JSON form of the result dataclasses.

A result record's field list is its dataclass declaration; ``as_dict``
reads it from there, so the JSON keys follow the declaration order.
"""

from __future__ import annotations

from dataclasses import fields


def _plain(value):
    if hasattr(value, "as_dict"):
        return value.as_dict()
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


class Record:
    """Base for result dataclasses whose JSON form is their fields in order.

    A nested record (anything with ``as_dict``) is converted by its own
    method, a set becomes a sorted list, a tuple a list of converted
    elements; every other value is kept as it is.
    """

    def as_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
