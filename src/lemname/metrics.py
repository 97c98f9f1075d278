"""Evaluation metrics for suggested lemma names.

Four measures: sentence-level BLEU-4 over sub-token sequences, fragment
accuracy over underscore-separated name fragments, and top-1/top-5 exact
match. BLEU and fragment accuracy judge the best suggestion only; the
report aggregates arithmetic means over the test set.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from . import DomainError, canonical_json
from .subtok import subtokenize_name


class EmptyReference(Exception):
    pass


class EmptyTestSet(DomainError):
    pass


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu4(candidate, reference) -> float:
    """Sentence-level BLEU with n-grams 1..4 over sub-token sequences.

    Clipped precisions, add-one smoothing for n >= 2 whenever the match
    count is zero, geometric mean, and brevity penalty
    exp(1 - |ref|/|cand|) for short candidates. An empty candidate scores
    0; an empty reference is an error.
    """
    candidate = list(candidate)
    reference = list(reference)
    if not reference:
        raise EmptyReference("reference sub-token sequence is empty")
    if not candidate:
        return 0.0
    log_precision_sum = 0.0
    for n in range(1, 5):
        counts = _ngram_counts(candidate, n)
        limits = _ngram_counts(reference, n)
        matches = sum(min(count, limits[gram]) for gram, count in counts.items())
        total = sum(counts.values())
        if n == 1:
            if matches == 0:
                return 0.0
        elif matches == 0:
            matches, total = matches + 1, total + 1
        log_precision_sum += 0.25 * math.log(matches / total)
    if len(candidate) < len(reference):
        brevity = math.exp(1.0 - len(reference) / len(candidate))
    else:
        brevity = 1.0
    return brevity * math.exp(log_precision_sum)


def _fragments(name: str) -> list:
    return [fragment for fragment in name.split("_") if fragment]


def fragment_accuracy(candidate: str, reference: str) -> float:
    """Positional agreement of underscore-separated name fragments.

    Both names are split on underscores (underscores discarded); the
    score is the number of positions whose fragments match exactly,
    divided by the larger fragment count. A name of underscores alone has
    no fragment to agree with, so it scores 0.
    """
    candidate_fragments = _fragments(candidate)
    reference_fragments = _fragments(reference)
    if not candidate_fragments or not reference_fragments:
        return 0.0
    hits = sum(a == b for a, b in zip(candidate_fragments, reference_fragments))
    return hits / max(len(candidate_fragments), len(reference_fragments))


def topk_accuracy(suggestions, reference: str, k: int) -> int:
    """1 iff the reference name appears in the first k suggested names."""
    if k < 1:
        raise ValueError("k must be positive")
    names = [getattr(s, "name", s) for s in suggestions[:k]]
    return int(reference in names)


@dataclass(frozen=True)
class RecordEvaluation:
    name: str
    suggestions: tuple
    bleu4: float
    fragment_accuracy: float
    top1: int
    top5: int


@dataclass(frozen=True)
class EvalReport:
    k: int
    rows: tuple
    bleu4: float
    fragment_accuracy: float
    top1: float
    top5: float

    def to_text(self) -> str:
        top = min(self.k, 5)  # with fewer than 5 suggestions, top-5 is top-k
        lines = [
            f"lemmas evaluated:  {len(self.rows)}",
            f"top-1 accuracy:    {self.top1:.4f}",
            f"top-{top} accuracy:    {self.top5:.4f}",
            f"bleu-4:            {self.bleu4:.4f}",
            f"fragment accuracy: {self.fragment_accuracy:.4f}",
            "",
        ]
        name_width = max([len("reference")] + [len(row.name) for row in self.rows])
        header = f"{'reference':<{name_width}}  top1  top{top}  bleu4   frag    best suggestion"
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            best = row.suggestions[0].name if row.suggestions else ""
            lines.append(
                f"{row.name:<{name_width}}  {row.top1:>4}  {row.top5:>4}  "
                f"{row.bleu4:.4f}  {row.fragment_accuracy:.4f}  {best}"
            )
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        lines = []
        for row in self.rows:
            lines.append(
                canonical_json(
                    {
                        "name": row.name,
                        "suggestions": [
                            {"name": s.name, "score": s.score} for s in row.suggestions
                        ],
                        "bleu4": row.bleu4,
                        "fragment_accuracy": row.fragment_accuracy,
                        "top1": row.top1,
                        "top5": row.top5,
                    }
                )
            )
        lines.append(
            canonical_json(
                {
                    "aggregate": True,
                    "lemmas": len(self.rows),
                    "k": self.k,
                    "bleu4": self.bleu4,
                    "fragment_accuracy": self.fragment_accuracy,
                    "top1": self.top1,
                    "top5": self.top5,
                }
            )
        )
        return "\n".join(lines) + "\n"


def evaluate(suggester, records, k: int = 5) -> EvalReport:
    """Score a suggester (model or baseline) over a test set.

    The suggester must expose suggest_many(records, k) returning ranked
    suggestions per record, and the lexicon that splits names into its
    sub-tokens, which splits the references too. suggest_many is called
    once, so a model decodes the whole set as one batch. BLEU-4 and
    fragment accuracy judge the top suggestion, and an empty list scores 0
    on both.
    top-1/top-5 look for the reference among the first 1/5 names. Rows
    keep test-set order; averages are arithmetic means.
    """
    records = list(records)
    if not records:
        raise EmptyTestSet("evaluation needs at least one record")
    rows = []
    for record, suggestions in zip(records, suggester.suggest_many(records, k)):
        suggestions = tuple(suggestions)
        reference_subtokens = subtokenize_name(record.name, suggester.lexicon)
        if suggestions:
            best = suggestions[0]
            row_bleu = bleu4(best.sub_tokens, reference_subtokens)
            row_fragment = fragment_accuracy(best.name, record.name)
        else:
            row_bleu = 0.0
            row_fragment = 0.0
        rows.append(
            RecordEvaluation(
                name=record.name,
                suggestions=suggestions,
                bleu4=row_bleu,
                fragment_accuracy=row_fragment,
                top1=topk_accuracy(suggestions, record.name, 1),
                top5=topk_accuracy(suggestions, record.name, 5),
            )
        )
    count = len(rows)
    return EvalReport(
        k=k,
        rows=tuple(rows),
        bleu4=sum(r.bleu4 for r in rows) / count,
        fragment_accuracy=sum(r.fragment_accuracy for r in rows) / count,
        top1=sum(r.top1 for r in rows) / count,
        top5=sum(r.top5 for r in rows) / count,
    )
