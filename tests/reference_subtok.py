"""The per-letter suffix peel that subtok's one-slice peel is tested against.

It drops one letter per step, copying the rest of the word each time, so
a name ending in n lexicon letters costs O(n^2). Runs and camel-case
words come from subtok's own patterns; only the peel is the reference.
"""

from __future__ import annotations

from lemname.subtok import _CAMEL, _CLASS_RUNS


def subtokenize_name(name: str, letters: frozenset | None) -> list[str]:
    """The name's sub-tokens, peeling `letters`; None: no peeling at all."""
    out: list[str] = []
    for run in _CLASS_RUNS.findall(name):
        if run[0].isascii() and run[0].isalpha():
            for word in _CAMEL.findall(run):
                out.extend(peel(word, letters) if letters is not None else [word])
        else:
            out.append(run)
    return out


def peel(word: str, letters: frozenset) -> list[str]:
    """Peel suffix letters right to left, one per step. Stop rather than
    leave a head that is empty or a lone letter outside the lexicon:
    mulg peels to mul + g, but mg stays whole."""
    suffixes: list[str] = []
    while len(word) >= 2 and word[-1] in letters and (len(word) > 2 or word[0] in letters):
        suffixes.append(word[-1])
        word = word[:-1]
    return [word, *reversed(suffixes)]
