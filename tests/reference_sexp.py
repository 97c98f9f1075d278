# The character-by-character parser that preceded the regex tokenizer in
# lemname.sexp, kept unchanged (apart from this header and its imports) as
# the test oracle.
"""Reference S-expression parser: one Python step per character."""

from __future__ import annotations

from lemname.sexp import InvalidEscape, SExp, UnbalancedParen, UnterminatedString

_WHITESPACE = frozenset(" \t\n\r\x0b\x0c")
_DELIMITERS = _WHITESPACE | {"(", ")", '"'}
# Escape sequences accepted inside quoted atoms, and their inverses.
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n"}


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
