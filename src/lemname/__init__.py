"""Toolchain for learning and suggesting lemma names in Coq developments."""

import json

__version__ = "0.1.0"


class DomainError(Exception):
    """Outside input the program rejects on purpose; any other exception is a defect."""


class InvalidValue(DomainError, ValueError):
    """A settings or request value of the wrong type or out of range."""


def canonical_json(value) -> str:
    """The one JSON encoding of checkpoints, reports and server messages.

    Sorted keys, no whitespace, non-ASCII escaped; a set is written as its
    sorted list. Equal values give equal text.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=sorted)
