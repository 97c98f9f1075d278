"""Lossless reader and writer for the S-expression text format.

Trees are plain Python values: an atom is a ``str``, a list is a ``tuple``
of sub-expressions. ``parse`` and ``render`` are exact inverses on that
domain, so trees survive arbitrarily many round trips through text.
"""

from __future__ import annotations

from typing import Union

from . import DomainError

SExp = Union[str, tuple]

_WHITESPACE = frozenset(" \t\n\r\x0b\x0c")
_DELIMITERS = _WHITESPACE | {"(", ")", '"'}
# Escape sequences accepted inside quoted atoms, and their inverses.
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n"}
_UNESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n"}


class SExpError(DomainError):
    """Malformed S-expression text; carries the character offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class UnbalancedParen(SExpError):
    pass


class UnterminatedString(SExpError):
    pass


class InvalidEscape(SExpError):
    pass


class EmptyInput(Exception):
    """Raised by parse_one when the text contains no expression."""


def parse(text: str) -> list:
    """Parse every S-expression in text, returning them in order.

    Whitespace between expressions is insignificant. Atoms are either bare
    (runs of non-delimiter characters) or double-quoted with the escapes
    \\" \\\\ and \\n. Lists become tuples, atoms become strings.
    """
    exprs: list = []
    stack: list = []  # (offset of the open paren, children collected so far)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _WHITESPACE:
            i += 1
            continue
        if ch == "(":
            stack.append((i, []))
            i += 1
            continue
        if ch == ")":
            if not stack:
                raise UnbalancedParen("unmatched ')'", i)
            _, children = stack.pop()
            value: SExp = tuple(children)
            i += 1
        elif ch == '"':
            value, i = _scan_quoted(text, i)
        else:
            value, i = _scan_bare(text, i)
        if stack:
            stack[-1][1].append(value)
        else:
            exprs.append(value)
    if stack:
        raise UnbalancedParen("unclosed '('", stack[-1][0])
    return exprs


def parse_one(text: str) -> SExp:
    """Parse text that must contain exactly one S-expression."""
    exprs = parse(text)
    if not exprs:
        raise EmptyInput("no expression in input")
    if len(exprs) > 1:
        raise ValueError(f"expected one expression, found {len(exprs)}")
    return exprs[0]


def _scan_quoted(text: str, start: int) -> tuple[str, int]:
    parts: list[str] = []
    i = start + 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == '"':
            return "".join(parts), i + 1
        if ch == "\\":
            if i + 1 >= n:
                break
            esc = text[i + 1]
            if esc not in _ESCAPES:
                raise InvalidEscape(f"unsupported escape '\\{esc}'", i)
            parts.append(_ESCAPES[esc])
            i += 2
        else:
            parts.append(ch)
            i += 1
    raise UnterminatedString("unterminated quoted atom", start)


def _scan_bare(text: str, start: int) -> tuple[str, int]:
    i = start
    n = len(text)
    while i < n and text[i] not in _DELIMITERS:
        i += 1
    return text[start:i], i


def render(expr: SExp) -> str:
    """Serialize a tree to text such that parse(render(t)) == [t]."""
    return "".join(_joined(_tokens(expr, _render_atom)))


def linearize(expr: SExp) -> list[str]:
    """Flatten a tree to a depth-first token sequence with explicit parens.

    Atom texts appear unquoted; every list contributes a "(" and ")" pair,
    so the output is always balanced.
    """
    return list(iter_linearized(expr))


def iter_linearized(expr: SExp):
    """The tokens of `linearize`, made one at a time, so a reader can stop early."""
    return _tokens(expr, lambda atom: atom)


def _tokens(expr: SExp, atom_fn):
    # One iterator per open list; the bottom one holds the root.
    stack = [iter((expr,))]
    while stack:
        for node in stack[-1]:
            if isinstance(node, str):
                yield atom_fn(node)
            elif isinstance(node, tuple):
                yield "("
                stack.append(iter(node))
                break
            else:
                raise TypeError(f"not an S-expression node: {node!r}")
        else:
            stack.pop()
            if stack:
                yield ")"


def _joined(tokens):
    previous = None
    for tok in tokens:
        if previous is not None and previous != "(" and tok != ")":
            yield " "
        yield tok
        previous = tok


def _render_atom(atom: str) -> str:
    if atom and not any(c in _DELIMITERS or c == "\\" for c in atom):
        return atom
    return '"' + "".join(_UNESCAPES.get(c, c) for c in atom) + '"'
