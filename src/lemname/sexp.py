"""Lossless reader and writer for the S-expression text format.

Trees are plain Python values: an atom is a ``str``, a list is a ``tuple``
of sub-expressions. ``parse`` and ``render`` are exact inverses on that
domain, so trees survive arbitrarily many round trips through text.

``_TOKEN``, one compiled regular expression, is the grammar. ``parse``
tokenizes with str methods, which run in C, where that is exact and
cheaper, and with ``_TOKEN.findall`` elsewhere; one loop over the tokens
builds the trees, in time linear in the text on any input. Malformed text
raises an SExpError at the character offset of its first fault. A quoted
atom keeps every character between its quotes but the escapes, carriage
returns included.
"""

from __future__ import annotations

import re
from typing import Union

from . import DomainError

SExp = Union[str, tuple]

# Exactly these separate tokens; every other character, \x85, \xa0 and
# \u2028 included, belongs to an atom.
_SPACE = " \t\n\r\x0b\x0c"
# The other characters that str.split splits at; they belong to atoms.
_ATOM_SPACES = "\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
_ATOM_SPACES += "\u2028\u2029\u202f\u205f\u3000"
# A quoted atom (escapes \", \\ and \n). Its closing quote is optional, so no
# alternative of _TOKEN fails once it starts and matching never backtracks: an
# unclosed quoted atom stops at the end of the text or at a bad escape's backslash.
_QUOTED = r'"[^"\\]*(?:\\["\\n][^"\\]*)*"?'
_TOKEN = re.compile(rf'[()]|{_QUOTED}|[^()"{_SPACE}]+')  # a paren, a quoted atom, or a bare atom
_QUOTED_CUT = re.compile(f"({_QUOTED})")  # splits text into bare runs and the quoted atoms between
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
    for token in _tokenize(text):
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


def _tokenize(text: str) -> list:
    """``_TOKEN.findall(text)``, by ``_split_tokens`` where that is exact and cheaper."""
    # _split_tokens spends a Python step on each quoted atom, where findall spends one
    # match: past one quote to two open parens, that costs more than splitting saves.
    if text.count('"') * 2 > text.count("(") or any(space in text for space in _ATOM_SPACES):
        return _TOKEN.findall(text)
    return _split_tokens(text)


def _split_tokens(text: str) -> list:
    """``_TOKEN.findall(text)`` for text that holds none of ``_ATOM_SPACES``."""
    tokens = []
    for piece in _QUOTED_CUT.split(text):
        if piece[:1] == '"':
            tokens.append(piece)
        else:  # a bare run, which holds no quote: its words, once each paren stands apart
            tokens += piece.replace("(", " ( ").replace(")", " ) ").split()
    return tokens


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
    # No written atom holds a newline or starts or ends with a paren, so the newlines
    # joined in are the gaps between tokens: those after "(" or before ")" close.
    text = "\n".join(linearize(expr, pieces=_render_atom))
    return text.replace("(\n", "(").replace("\n)", ")").replace("\n", " ")


def linearize(*forms: SExp, pieces, limit: int | None = None) -> list:
    """The forms' depth-first tokens, in turn, with explicit parens, in one list.

    Every list contributes a "(" and ")" pair and every atom the tokens
    `pieces(atom)`. With a `limit`, the walk checks after each atom and
    stops once `limit` tokens are out.
    """
    out = []
    stack = [iter(forms)]  # one iterator per open list; the bottom one holds the forms
    while stack:
        for node in stack[-1]:
            if isinstance(node, str):
                out += pieces(node)
                if limit is not None and len(out) >= limit:
                    return out[:limit]
            elif isinstance(node, tuple):
                out.append("(")
                stack.append(iter(node))
                break
            else:
                raise TypeError(f"not an S-expression node: {node!r}")
        else:
            stack.pop()
            if stack:
                out.append(")")
    return out[:limit]


def _render_atom(atom: str) -> tuple:
    if _PLAIN.fullmatch(atom):
        return (atom,)
    return ('"' + "".join(_UNESCAPES.get(c, c) for c in atom) + '"',)
