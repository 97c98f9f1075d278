"""Toolchain for learning and suggesting lemma names in Coq developments."""

import json

__version__ = "0.1.0"


class DomainError(Exception):
    """Outside input the program rejects on purpose; any other exception is a defect."""


class InvalidValue(DomainError, ValueError):
    """A settings or request value of the wrong type or out of range."""


def check_counts(lowest: dict) -> None:
    """InvalidValue for the first `name: (value, low)` whose value is no int of at least low.

    A bool is no count; random.Random seeds by absolute value, so a seed
    of -3 would quietly mean 3.
    """
    for name, (value, low) in lowest.items():
        if type(value) is not int or value < low:
            raise InvalidValue(f"{name} must be an integer of at least {low}, got {value!r}")


def canonical_json(value) -> str:
    """The one JSON encoding of checkpoints, reports and server messages.

    Sorted keys, no whitespace, non-ASCII escaped; a set is written as its
    sorted list. Equal values give equal text.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=sorted)
