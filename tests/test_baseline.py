"""Tests for the TF-IDF retrieval baseline."""

import dataclasses
import math

import numpy as np
import pytest

from lemname.baseline import RetrievalBaseline
from lemname.corpus import (
    bundled_corpus_dir,
    load_directory,
    ordered_records,
    split_corpus,
)
from lemname.model import EmptyTrainingSet, ModelConfig, Suggestion


@pytest.fixture(scope="module")
def corpus():
    documents = load_directory(bundled_corpus_dir())
    split = split_corpus(sorted(documents), seed=0)
    train = ordered_records(documents, split.train)
    test = ordered_records(documents, split.test)
    return train, test


@pytest.fixture(scope="module")
def baseline(corpus):
    train, _ = corpus
    return RetrievalBaseline(train)


def test_empty_training_set():
    with pytest.raises(EmptyTrainingSet):
        RetrievalBaseline([])
    with pytest.raises(EmptyTrainingSet):
        RetrievalBaseline(record for record in ())


def test_a_generator_of_records_builds_the_baseline_a_list_does(baseline, corpus):
    train, _ = corpus
    streamed = RetrievalBaseline(record for record in train)
    assert streamed._names == baseline._names
    assert streamed._index == baseline._index
    assert streamed._idf.tobytes() == baseline._idf.tobytes()
    assert streamed._matrix.tobytes() == baseline._matrix.tobytes()


def test_unknown_stream_rejected(corpus):
    train, _ = corpus
    with pytest.raises(ValueError):
        RetrievalBaseline(train, inputs=("statement", "proofs"))


def test_self_retrieval_is_rank_one(baseline, corpus):
    train, _ = corpus
    for record in train[::7]:
        suggestions = baseline.suggest(record, k=3)
        assert suggestions[0].name == record.name
        assert suggestions[0].score == pytest.approx(1.0)


def test_scores_are_sorted_cosines(baseline, corpus):
    _, test = corpus
    for record in test:
        suggestions = baseline.suggest(record, k=5)
        scores = [s.score for s in suggestions]
        assert scores == sorted(scores, reverse=True)
        assert all(-1e-12 <= s <= 1.0 + 1e-12 for s in scores)


def test_suggestions_are_deduplicated(baseline, corpus):
    _, test = corpus
    for record in test:
        names = [s.name for s in baseline.suggest(record, k=10)]
        assert len(names) == len(set(names))


def test_suggestion_subtokens_join_to_name(baseline, corpus):
    _, test = corpus
    suggestion = baseline.suggest(test[0], k=1)[0]
    assert isinstance(suggestion, Suggestion)
    assert "".join(suggestion.sub_tokens) == suggestion.name


def test_rejects_nonpositive_k(baseline, corpus):
    _, test = corpus
    with pytest.raises(ValueError):
        baseline.suggest(test[0], k=0)


def test_tie_break_keeps_corpus_order(corpus):
    train, _ = corpus
    # Duplicate statements guarantee exact similarity ties; the earlier
    # training record must win.
    first = train[0]
    clone = dataclasses.replace(train[1], name="clone_of_first",
                                statement_tokens=first.statement_tokens,
                                syntax_tree=first.syntax_tree,
                                kernel_tree=first.kernel_tree)
    baseline = RetrievalBaseline([first, clone])
    suggestions = baseline.suggest(first, k=2)
    assert [s.name for s in suggestions] == [first.name, "clone_of_first"]
    assert suggestions[0].score == pytest.approx(suggestions[1].score)


def test_idf_formula_matches_definition(corpus):
    train, _ = corpus
    baseline = RetrievalBaseline(train[:8], inputs=("statement",))
    bags = [baseline._bag(r) for r in train[:8]]
    for text, column in baseline._index.items():
        df = sum(text in bag for bag in bags)
        expected = math.log((1 + 8) / (1 + df)) + 1.0
        assert baseline._idf[column] == pytest.approx(expected)


def test_statement_only_ignores_trees(corpus):
    train, test = corpus
    baseline = RetrievalBaseline(train, inputs=("statement",))
    record = test[0]
    mangled = dataclasses.replace(record, kernel_tree=("Mangled",))
    assert np.array_equal(baseline.similarities(record), baseline.similarities(mangled))


def test_default_inputs_match_model_default(baseline):
    assert baseline.inputs == ModelConfig().inputs
