"""Toolchain for learning and suggesting lemma names in Coq developments."""

__version__ = "0.1.0"


class DomainError(Exception):
    """Outside input the program rejects on purpose; any other exception is a defect."""


class InvalidValue(DomainError, ValueError):
    """A settings or request value of the wrong type or out of range."""
