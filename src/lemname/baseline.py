"""Nearest-lemma retrieval baseline over TF-IDF sub-token vectors.

Each training lemma becomes a bag of the same sub-tokens the neural
model consumes (per enabled input stream). A query lemma is vectorized
the same way and the names of the most cosine-similar training lemmas
are suggested verbatim. This is the reference point the learned model
has to beat: it can only replay names it has seen.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .chop import DEFAULT_CHOP_CONFIG, ChopConfig
from .corpus import record_texts
from .model import DEFAULT_INPUT_CONFIG, INPUT_CONFIGS, EmptyTrainingSet, Suggestion
from .subtok import DEFAULT_LEXICON, subtokenize_name


class RetrievalBaseline:
    """TF-IDF + cosine retrieval with corpus-order tie breaking.

    `records` is read once and may be a generator: of each record only its
    name and bag of sub-tokens are kept, so a streamed corpus is not held.
    """

    def __init__(
        self,
        records,
        inputs=INPUT_CONFIGS[DEFAULT_INPUT_CONFIG],
        chop_config: ChopConfig = DEFAULT_CHOP_CONFIG,
        lexicon=DEFAULT_LEXICON,
    ):
        self.inputs = tuple(inputs)
        self.chop_config = chop_config
        self.lexicon = lexicon
        self._names, bags = [], []
        for record in records:
            self._names.append(record.name)
            bags.append(self._bag(record))
        if not bags:
            raise EmptyTrainingSet("retrieval baseline needs at least one record")

        document_frequency = Counter()
        for bag in bags:
            document_frequency.update(set(bag))
        self._index = {text: i for i, text in enumerate(sorted(document_frequency))}
        n_docs = len(bags)
        self._idf = np.zeros(len(self._index))
        for text, column in self._index.items():
            self._idf[column] = math.log((1 + n_docs) / (1 + document_frequency[text])) + 1.0
        self._matrix = np.zeros((n_docs, len(self._index)))
        for row, bag in enumerate(bags):
            self._matrix[row] = self._vector(bag)

    def _bag(self, record) -> Counter:
        bag = Counter()
        for texts in record_texts(record, self.inputs, self.chop_config, self.lexicon).values():
            bag.update(texts)
        return bag

    def _vector(self, bag: Counter) -> np.ndarray:
        vector = np.zeros(len(self._index))
        for text, count in bag.items():
            column = self._index.get(text)
            if column is not None:
                vector[column] = count * self._idf[column]
        norm = np.linalg.norm(vector)
        return vector / norm if norm > 0.0 else vector

    def similarities(self, record) -> np.ndarray:
        """Cosine similarity of the query against every training lemma."""
        return self._matrix @ self._vector(self._bag(record))

    def suggest(self, record, k: int = 5) -> list:
        """Names of the top-k most similar training lemmas, deduplicated.

        Equal similarities keep training corpus order; scores are cosine
        similarities in [0, 1].
        """
        if k < 1:
            raise ValueError("k must be positive")
        sims = self.similarities(record)
        suggestions = []
        seen = set()
        for row in np.argsort(-sims, kind="stable"):
            name = self._names[row]
            if name in seen:
                continue
            seen.add(name)
            sub_tokens = tuple(subtokenize_name(name, self.lexicon))
            suggestions.append(Suggestion(name=name, score=float(sims[row]), sub_tokens=sub_tokens))
            if len(suggestions) == k:
                break
        return suggestions

    def suggest_many(self, records, k: int = 5) -> list:
        """suggest(record, k) for each record, in order."""
        return [self.suggest(record, k) for record in records]
