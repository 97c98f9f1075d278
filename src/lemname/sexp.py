"""Lossless reader and writer for the S-expression text format.

Trees are plain Python values: an atom is a ``str``, a list is a ``tuple``
of sub-expressions. ``parse`` and ``render`` are exact inverses on that
domain, so trees survive arbitrarily many round trips through text.

``parse`` splits the text into tokens with one compiled regular
expression, ``_TOKEN``, the one definition of the grammar, and builds the
trees in one loop over the tokens, in time linear in the text on any input.
Malformed text raises an SExpError at the character offset of its first
fault. A quoted atom keeps every character between its quotes but the
escapes, carriage returns included.
"""

from __future__ import annotations

import re
from typing import Union

from . import DomainError

SExp = Union[str, tuple]

# Exactly these separate tokens; every other character, \x85, \xa0 and
# \u2028 included, belongs to an atom.
_SPACE = " \t\n\r\x0b\x0c"
# A paren, a quoted atom, or a bare atom. A quoted atom's escapes are \",
# \\ and \n, and its closing quote is optional, so no alternative can fail
# once it starts and matching never backtracks: a quoted atom that is not
# closed is a token that stops at the end of the text or at the backslash
# of a bad escape, and parse reports it.
_TOKEN = re.compile(rf'[()]|"[^"\\]*(?:\\["\\n][^"\\]*)*"?|[^()"{_SPACE}]+')
# What render may write without quotes: a bare atom holding no backslash.
_PLAIN = re.compile(rf'[^()"\\{_SPACE}]+')
_ESCAPE = re.compile(r'\\(["\\n])')
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


def parse(text: str) -> list:
    """Parse every S-expression in text, returning them in order.

    Whitespace between expressions is insignificant. Atoms are either bare
    (runs of non-delimiter characters) or double-quoted with the escapes
    \\" \\\\ and \\n. Lists become tuples, atoms become strings. Malformed
    text raises an SExpError carrying the offset of its first fault.
    """
    stack: list = []  # the children of each enclosing open list, innermost last
    children: list = []  # the children of the innermost open list, or the top level
    for token in _TOKEN.findall(text):
        if token == "(":
            stack.append(children)
            children = []
        elif token == ")":
            if not stack:
                _raise_first_fault(text)
            value = tuple(children)
            children = stack.pop()
            children.append(value)
        elif token[0] != '"':
            children.append(token)
        else:
            atom = _unquote(token)
            if atom is None:
                _raise_first_fault(text)
            children.append(atom)
    if stack:
        _raise_first_fault(text)
    return children


def _raise_first_fault(text: str):
    """Re-tokenize malformed text and raise its first fault, with its offset."""
    opens = []  # offsets of the open parens not yet closed
    for match in _TOKEN.finditer(text):
        token, start = match[0], match.start()
        if token == "(":
            opens.append(start)
        elif token == ")":
            if not opens:
                raise UnbalancedParen("unmatched ')'", start)
            opens.pop()
        elif token[0] == '"' and _unquote(token) is None:
            end = match.end()  # the end of the text, or a backslash
            if end + 1 < len(text):
                raise InvalidEscape(f"unsupported escape '\\{text[end + 1]}'", end)
            raise UnterminatedString("unterminated quoted atom", start)
    if opens:
        raise UnbalancedParen("unclosed '('", opens[-1])
    raise AssertionError("parse found a fault that re-tokenizing does not")


def _unquote(token: str):
    """The atom of a quoted-atom token, or None if the token is not closed.

    The final quote closes the atom unless it ends an odd run of
    backslashes, which escapes it.
    """
    inner = token[1:-1]
    if len(token) < 2 or token[-1] != '"' or (len(inner) - len(inner.rstrip("\\"))) % 2:
        return None
    return _ESCAPE.sub(lambda escape: _ESCAPES[escape[1]], inner)


def render(expr: SExp) -> str:
    """Serialize a tree to text such that parse(render(t)) == [t]."""
    return "".join(_joined(_tokens(expr, _render_atom)))


def iter_linearized(expr: SExp):
    """A tree's depth-first tokens with explicit parens, made one at a time.

    Atom texts appear unquoted; every list contributes a "(" and ")" pair,
    so the output is always balanced. A reader can stop early.
    """
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
    if _PLAIN.fullmatch(atom):
        return atom
    return '"' + "".join(_UNESCAPES.get(c, c) for c in atom) + '"'
