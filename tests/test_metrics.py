"""Tests for BLEU-4, fragment accuracy, top-k accuracy, and evaluation reports."""

import json
import math
import random
from types import SimpleNamespace

import pytest

import golden_metrics
from lemname.metrics import (
    EmptyReference,
    EmptyTestSet,
    EvalReport,
    bleu4,
    evaluate,
    fragment_accuracy,
    topk_accuracy,
)
from lemname.model import Suggestion
from lemname.subtok import DEFAULT_LEXICON, subtokenize_name

# Hand evaluation of candidate [mg,_,eq] vs reference [mg,_,eq,_,nerode]:
# every 1/2/3-gram of the candidate occurs in the reference, the candidate
# has no 4-grams (smoothed to 1/1), so the geometric mean is 1 and only the
# brevity penalty exp(1 - 5/3) remains.
GOLDEN_SHORT_PREFIX_BLEU = 0.5134171190325922


# ---------------------------------------------------------------------- bleu4


def test_bleu_identity():
    tokens = subtokenize_name("mg_eq_nerode")
    assert bleu4(tokens, tokens) == pytest.approx(1.0, abs=1e-12)


def test_bleu_empty_candidate_scores_zero():
    assert bleu4([], ["mg"]) == 0.0


def test_bleu_empty_reference_raises():
    with pytest.raises(EmptyReference):
        bleu4(["mg"], [])


def test_bleu_short_prefix_golden():
    value = bleu4(["mg", "_", "eq"], ["mg", "_", "eq", "_", "nerode"])
    assert value == pytest.approx(GOLDEN_SHORT_PREFIX_BLEU, abs=1e-12)
    assert value == pytest.approx(math.exp(1.0 - 5.0 / 3.0), abs=1e-12)


def test_module_golden_constants_are_exact():
    # The published constants must reproduce bit-for-bit, not approximately.
    assert bleu4(*golden_metrics.GOLDEN_BLEU_PREFIX_CASE) == golden_metrics.GOLDEN_BLEU_PREFIX
    assert (
        fragment_accuracy(*golden_metrics.GOLDEN_FRAGMENT_SUFFIX_SWAP_CASE)
        == golden_metrics.GOLDEN_FRAGMENT_SUFFIX_SWAP
    )
    assert (
        fragment_accuracy(*golden_metrics.GOLDEN_FRAGMENT_SPLIT_DISAGREEMENT_CASE)
        == golden_metrics.GOLDEN_FRAGMENT_SPLIT_DISAGREEMENT
    )


def test_bleu_disjoint_tokens_score_zero():
    assert bleu4(["a", "b"], ["c", "d"]) == 0.0


def test_bleu_is_not_symmetric():
    a = ["mg", "_", "eq"]
    b = ["mg", "_", "eq", "_", "nerode"]
    assert bleu4(a, b) != bleu4(b, a)


def brute_force_bleu(candidate, reference):
    """Independent scorer: exhaustive n-gram matching, no Counter reuse."""
    if not reference:
        raise EmptyReference("empty")
    if not candidate:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        cand_grams = [tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1)]
        ref_grams = [tuple(reference[i : i + n]) for i in range(len(reference) - n + 1)]
        used = [False] * len(ref_grams)
        matches = 0
        for gram in cand_grams:
            for j, other in enumerate(ref_grams):
                if not used[j] and other == gram:
                    used[j] = True
                    matches += 1
                    break
        total = len(cand_grams)
        if n == 1:
            if matches == 0:
                return 0.0
        elif matches == 0:
            matches, total = matches + 1, total + 1
        log_sum += 0.25 * math.log(matches / total)
    brevity = 1.0
    if len(candidate) < len(reference):
        brevity = math.exp(1.0 - len(reference) / len(candidate))
    return brevity * math.exp(log_sum)


def test_bleu_matches_brute_force_on_random_pairs():
    rng = random.Random(42)
    alphabet = ["mg", "_", "eq", "nerode", "mul", "g", "A", "add", "C"]
    for _ in range(200):
        candidate = [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
        reference = [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
        assert abs(bleu4(candidate, reference) - brute_force_bleu(candidate, reference)) < 1e-9


def test_bleu_stays_in_unit_interval():
    rng = random.Random(7)
    alphabet = ["a", "b", "c", "_"]
    for _ in range(100):
        candidate = [rng.choice(alphabet) for _ in range(rng.randint(1, 6))]
        reference = [rng.choice(alphabet) for _ in range(rng.randint(1, 6))]
        assert 0.0 <= bleu4(candidate, reference) <= 1.0 + 1e-12


# ---------------------------------------------------------- fragment accuracy


def test_fragment_identity():
    assert fragment_accuracy("mg_eq_nerode", "mg_eq_nerode") == 1.0


def test_fragment_half_match_golden():
    assert fragment_accuracy("extprod_mulgC", "extprod_mulgA") == 0.5


def test_fragment_split_mismatch_golden():
    # Fragments [mul, gA] vs [mulgA]: position 0 differs, denominator 2.
    assert fragment_accuracy("mul_gA", "mulgA") == 0.0


def test_fragment_length_normalizes_by_longer_name():
    assert fragment_accuracy("mg_eq", "mg_eq_nerode") == pytest.approx(2.0 / 3.0)
    assert fragment_accuracy("mg_eq_nerode", "mg_eq") == pytest.approx(2.0 / 3.0)


def test_fragment_discards_empty_fragments():
    assert fragment_accuracy("mg__eq", "mg_eq") == 1.0
    assert fragment_accuracy("_mg_eq_", "mg_eq") == 1.0


def test_fragment_underscore_only_name_scores_zero():
    # A name of underscores alone has no fragment to agree with: it scores 0.
    assert fragment_accuracy("_", "mg") == 0.0
    assert fragment_accuracy("mg", "__") == 0.0


def test_fragment_matches_brute_force_on_random_pairs():
    rng = random.Random(3)
    pieces = ["mg", "eq", "mul", "gA", "rev", "cat"]
    for _ in range(200):
        a = "_".join(rng.choice(pieces) for _ in range(rng.randint(1, 4)))
        b = "_".join(rng.choice(pieces) for _ in range(rng.randint(1, 4)))
        fa = [p for p in a.split("_") if p]
        fb = [p for p in b.split("_") if p]
        hits = 0
        for i in range(min(len(fa), len(fb))):
            if fa[i] == fb[i]:
                hits += 1
        expected = hits / max(len(fa), len(fb))
        assert abs(fragment_accuracy(a, b) - expected) < 1e-9


# -------------------------------------------------------------- topk accuracy


def test_topk_rank_one():
    assert topk_accuracy(["mg_eq"], "mg_eq", 1) == 1


def test_topk_rank_three():
    suggestions = ["a", "b", "mg_eq", "c"]
    assert topk_accuracy(suggestions, "mg_eq", 1) == 0
    assert topk_accuracy(suggestions, "mg_eq", 5) == 1


def test_topk_absent_reference():
    for k in (1, 5, 10):
        assert topk_accuracy(["a", "b"], "mg_eq", k) == 0


def test_topk_accepts_suggestion_objects():
    suggestions = [Suggestion(name="mg_eq", score=-0.1, sub_tokens=("mg", "_", "eq"))]
    assert topk_accuracy(suggestions, "mg_eq", 1) == 1


def test_topk_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        topk_accuracy(["a"], "a", 0)


# ------------------------------------------------------------------- evaluate


class FixedSuggester:
    """Maps each record name to a fixed ranked list of suggested names."""

    lexicon = DEFAULT_LEXICON

    def __init__(self, table):
        self.table = table

    def suggest(self, record, k=5):
        names = self.table[record.name][:k]
        return [
            Suggestion(name=n, score=-float(i), sub_tokens=tuple(subtokenize_name(n)))
            for i, n in enumerate(names)
        ]

    def suggest_many(self, records, k=5):
        return [self.suggest(r, k) for r in records]


def record(name):
    return SimpleNamespace(name=name)


def test_evaluate_perfect_memorizer():
    records = [record("join_gA"), record("mul_comm"), record("size_dual")]
    suggester = FixedSuggester({r.name: [r.name] for r in records})
    report = evaluate(suggester, records)
    assert report.top1 == report.top5 == 1.0
    assert report.bleu4 == pytest.approx(1.0, abs=1e-12)
    assert report.fragment_accuracy == 1.0


def test_evaluate_constant_wrong_name():
    records = [record("join_gA"), record("mul_comm")]
    suggester = FixedSuggester({r.name: ["nonsense"] for r in records})
    report = evaluate(suggester, records)
    assert report.top1 == 0.0
    assert report.top5 == 0.0


def test_evaluate_mixed_fixture_matches_hand_scores():
    records = [record("join_gA"), record("mul_comm"), record("size_dual"), record("opp_invC")]
    suggester = FixedSuggester(
        {
            "join_gA": ["join_gA", "joingA"],
            "mul_comm": ["mul_assoc", "mul_comm"],
            "size_dual": ["cat_rev", "size_perm"],
            "opp_invC": [],
        }
    )
    report = evaluate(suggester, records, k=5)
    # Row 1: exact hit -> all ones.
    # Row 2: best "mul_assoc" vs "mul_comm": p1=2/3, p2=1/2, p3 smoothed 1/2,
    #        p4 smoothed 1/1, no brevity penalty -> (1/6)^(1/4); fragments 1/2.
    # Row 3: best "cat_rev" vs "size_dual": p1=1/3, p2 smoothed 1/3,
    #        p3 smoothed 1/2, p4 smoothed 1/1 -> (1/18)^(1/4); fragments 0.
    # Row 4: no suggestions -> zeros.
    expected_bleu = (1.0 + (1.0 / 6.0) ** 0.25 + (1.0 / 18.0) ** 0.25 + 0.0) / 4.0
    assert [r.top1 for r in report.rows] == [1, 0, 0, 0]
    assert [r.top5 for r in report.rows] == [1, 1, 0, 0]
    assert report.top1 == 0.25
    assert report.top5 == 0.5
    assert report.bleu4 == pytest.approx(expected_bleu, abs=1e-12)
    assert report.fragment_accuracy == pytest.approx((1.0 + 0.5 + 0.0 + 0.0) / 4.0)


def test_evaluate_scores_an_underscore_only_best_suggestion_as_no_fragments():
    records = [record("join_gA"), record("mul_comm")]
    suggester = FixedSuggester({"join_gA": ["____", "join_gA"], "mul_comm": ["mul_comm"]})
    report = evaluate(suggester, records)
    assert [row.fragment_accuracy for row in report.rows] == [0.0, 1.0]
    assert [row.top5 for row in report.rows] == [1, 1]
    assert report.rows[0].bleu4 == bleu4(("_",) * 4, ("join", "_", "g", "A"))
    assert report.fragment_accuracy == 0.5


def test_evaluate_empty_test_set():
    with pytest.raises(EmptyTestSet):
        evaluate(FixedSuggester({}), [])


def test_evaluate_top5_never_below_top1():
    rng = random.Random(9)
    names = ["add_mul", "mul_add", "join_gA", "size_dual", "opp_inv"]
    records = [record(n) for n in names]
    table = {
        n: rng.sample(names, k=rng.randint(1, len(names)))
        for n in names
    }
    report = evaluate(FixedSuggester(table), records)
    for row in report.rows:
        assert row.top5 >= row.top1
        assert 0.0 <= row.bleu4 <= 1.0
        assert 0.0 <= row.fragment_accuracy <= 1.0
    assert report.top5 >= report.top1


def test_report_text_rendering():
    records = [record("join_gA"), record("mul_comm")]
    suggester = FixedSuggester({"join_gA": ["join_gA"], "mul_comm": ["nope"]})
    text = evaluate(suggester, records).to_text()
    assert "lemmas evaluated:  2" in text
    assert "top-1 accuracy:    0.5000" in text
    assert "join_gA" in text and "mul_comm" in text
    assert text.endswith("\n")


def test_report_labels_top_k_below_five():
    records = [record("join_gA"), record("mul_comm")]
    suggester = FixedSuggester({"join_gA": ["x", "y", "join_gA"], "mul_comm": ["nope"]})
    text = evaluate(suggester, records, k=3).to_text()
    assert "top-3 accuracy:    0.5000" in text
    assert "top1  top3  bleu4" in text
    assert "top-5" not in text and "top5" not in text
    assert "top-5 accuracy:" in evaluate(suggester, records, k=7).to_text()


def test_report_jsonl_rendering():
    records = [record("join_gA"), record("mul_comm")]
    suggester = FixedSuggester({"join_gA": ["join_gA"], "mul_comm": ["nope"]})
    report = evaluate(suggester, records)
    lines = report.to_jsonl().strip().split("\n")
    assert len(lines) == 3
    rows = [json.loads(line) for line in lines]
    assert rows[0]["name"] == "join_gA"
    assert rows[0]["top1"] == 1
    assert rows[1]["suggestions"][0]["name"] == "nope"
    aggregate = rows[2]
    assert aggregate["aggregate"] is True
    assert aggregate["lemmas"] == 2
    assert aggregate["top1"] == 0.5


def test_report_is_plain_dataclass():
    report = EvalReport(k=5, rows=(), bleu4=0.0, fragment_accuracy=0.0, top1=0.0, top5=0.0)
    assert report.k == 5
