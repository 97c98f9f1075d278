"""Splitting lemma names and statement tokens into naming sub-tokens.

A name like ``extprod_mulgA`` decomposes into the pieces a naming
convention actually manipulates: words, underscores, digit runs, symbol
runs, and single-letter suffixes drawn from a lexicon of conventional
markers (by default A, C, g). Splitting is lossless: concatenating the
sub-tokens reproduces the input exactly.

Statement and tree tokens repeat (the 800 synthetic lemmas of the
baseline benchmark hold 46 distinct ones across three streams), so their
split is memoized. The cache is bounded twice, so that a long-running
server fed untrusted files cannot grow it without limit: by entry count
(the least recently used entry goes first) and by token length (a longer
token is split anew each time). Measured with tracemalloc, the worst case
is `SPLIT_CACHE_ENTRIES` tokens of `SPLIT_CACHE_MAX_CHARS` characters
that alternate an ASCII letter with one outside the Basic Multilingual
Plane, so each splits into 64 pieces: 3.5 KB an entry with the cache's
own bookkeeping, 55 MiB in all. ASCII tokens take at most about 2 KB an
entry (31 MiB in all).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from . import DomainError, InvalidValue

# Boundaries inside a letter run: lowercase-to-uppercase, and the end of an
# uppercase run before an Upper+lower word (CLocalAssum -> C, Local, Assum).
_CAMEL = re.compile(r".+?(?:(?<=[a-z])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])|$)")
# Character-class runs; the alternatives partition every possible character.
_CLASS_RUNS = re.compile(r"_|[A-Za-z]+|[0-9]+|[^A-Za-z0-9_]+")


SPLIT_CACHE_ENTRIES = 1 << 14
SPLIT_CACHE_MAX_CHARS = 64


class EmptyName(DomainError):
    """Raised when asked to sub-tokenize an empty name."""


@dataclass(frozen=True)
class SuffixLexicon:
    """Single letters that naming conventions append to a word (mulgA); none: no peeling."""

    letters: frozenset = field(default=frozenset({"A", "C", "g"}))

    def __post_init__(self):
        if not isinstance(self.letters, (list, tuple, set, frozenset)) or not all(
            isinstance(letter, str) for letter in self.letters
        ):
            raise InvalidValue(f"letters must be a set of strings, got {self.letters!r}")
        object.__setattr__(self, "letters", frozenset(self.letters))
        for letter in self.letters:
            if len(letter) != 1 or not letter.isalpha():
                raise InvalidValue(f"suffix lexicon entries must be single letters: {letter!r}")


DEFAULT_LEXICON = SuffixLexicon()


def subtokenize_name(name: str, lexicon: SuffixLexicon = DEFAULT_LEXICON) -> list[str]:
    """Split a lemma name into sub-tokens, peeling lexicon suffix letters."""
    if not name:
        raise EmptyName("cannot sub-tokenize an empty name")
    return _split(name, lexicon.letters)


def split_statement_token(token: str) -> tuple[str, ...]:
    """Split a statement or tree token, without suffix peeling.

    Memoized within the cache bounds. The result is a tuple, so no caller
    can change what the cache hands the next one.
    """
    if len(token) > SPLIT_CACHE_MAX_CHARS:
        return tuple(_split(token, frozenset()))
    return _cached_split(token)


@lru_cache(maxsize=SPLIT_CACHE_ENTRIES)
def _cached_split(token: str) -> tuple[str, ...]:
    return tuple(_split(token, frozenset()))


def _split(text: str, letters: frozenset) -> list[str]:
    out: list[str] = []
    for run in _CLASS_RUNS.findall(text):
        if run[0].isascii() and run[0].isalpha():
            for word in _CAMEL.findall(run):
                _append_word(out, word, letters)
        else:  # an underscore, a digit run or a symbol run
            out.append(run)
    return out


def _append_word(out: list[str], word: str, letters: frozenset) -> None:
    if word[-1] not in letters:
        out.append(word)
        return
    # Peel the trailing lexicon letters, each its own sub-token, but leave a
    # head that is never empty and is a lone letter only if that letter is
    # in the lexicon too: mulg peels to mul + g, but mg stays whole. The
    # letters are counted first and the word sliced once, so the cost is
    # linear in the word however many letters peel off.
    start = len(word) - 1  # where the run of trailing lexicon letters starts
    while start and word[start - 1] in letters:
        start -= 1
    head = max(start, 2) if start else 1
    out.append(word[:head])
    out.extend(word[head:])
