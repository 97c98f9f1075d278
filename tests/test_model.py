"""Tests for the multi-input encoder-decoder, training loop, and checkpoints."""

import dataclasses
import gc
import hashlib
import itertools
import json
import struct
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lemname.corpus
import lemname.model
import lemname.subtok
from lemname import InvalidValue, canonical_json
from lemname.baseline import RetrievalBaseline
from lemname.chop import ChopConfig
from lemname.cli import main
from lemname.corpus import (
    BOS_ID,
    EOS_ID,
    INPUT_STREAMS,
    PAD_ID,
    UNK_ID,
    DatasetSplit,
    EmptyStream,
    Vocabulary,
    generate_synthetic_corpus,
    load_directory,
    load_document,
    ordered_records,
    record_texts,
    stream_subtoken_texts,
)
from lemname.metrics import evaluate
from lemname.model import (
    INPUT_CONFIGS,
    CorruptCheckpoint,
    EmptyTrainingSet,
    LemmaNameModel,
    ModelCheckpoint,
    ModelConfig,
    Suggestion,
    TrainingConfig,
    VersionMismatch,
    _header_digest,
    _section,
    load_checkpoint,
    save_checkpoint,
    train,
)
from lemname.nn import NonFiniteValue, Tensor, backward
from lemname.subtok import DEFAULT_LEXICON, SuffixLexicon

from gradcheck import finite_difference_check
from reference_beam import full_width_suggest_many


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_corpus")
    generate_synthetic_corpus(root, seed=7, n_docs=5, lemmas_per_doc=4)
    documents = load_directory(root)
    # 5 documents floor to an empty validation slice, so split by hand.
    doc_ids = sorted(documents)
    split = DatasetSplit(train=tuple(doc_ids[:3]), validation=(doc_ids[3],), test=(doc_ids[4],))
    return documents, split


def small_config(**overrides):
    base = dict(
        inputs=INPUT_CONFIGS["stmt+ckt"],
        embed_dim=8,
        hidden_dim=12,
        max_input_len=96,
        max_output_len=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="session")
def trained(tiny_corpus):
    documents, split = tiny_corpus
    config = small_config(embed_dim=16, hidden_dim=24)
    hyper = TrainingConfig(epochs=70, batch_size=8, seed=0, learning_rate=5e-3)
    checkpoint, metrics = train(documents, split, config, hyper)
    return checkpoint, metrics, documents, split


# ----------------------------------------------------------- config validation


def test_config_rejects_duplicate_streams():
    with pytest.raises(ValueError):
        ModelConfig(inputs=("statement", "statement"))


def test_config_rejects_unknown_stream():
    with pytest.raises(ValueError):
        ModelConfig(inputs=("statement", "proof_script"))


def test_config_rejects_empty_inputs():
    with pytest.raises(ValueError):
        ModelConfig(inputs=())


def test_config_allows_plain_decoder():
    config = ModelConfig(use_copy=False)
    assert not config.use_copy


def test_config_rejects_odd_hidden_for_bidirectional():
    with pytest.raises(ValueError):
        ModelConfig(hidden_dim=13)


@pytest.mark.parametrize("field_name", ["embed_dim", "hidden_dim", "max_input_len", "max_output_len"])
def test_config_rejects_nonpositive_dims(field_name):
    with pytest.raises(ValueError):
        ModelConfig(**{field_name: 0})


def test_input_configs_cover_expected_combinations():
    assert set(INPUT_CONFIGS) == {"stmt", "stmt+cst", "stmt+ckt", "cst+ckt", "stmt+cst+ckt"}
    for streams in INPUT_CONFIGS.values():
        assert all(s in INPUT_STREAMS for s in streams)


def test_training_config_rejects_negative_epochs():
    with pytest.raises(ValueError):
        TrainingConfig(epochs=-1)


@pytest.mark.parametrize(
    "field_name, value",
    [
        ("epochs", 1.5), ("epochs", True), ("batch_size", 2.5), ("batch_size", 0), ("seed", -1), ("seed", "0"),
        ("min_frequency", 0), ("output_min_frequency", 0), ("output_min_frequency", 1.0), ("learning_rate", "0.1"),
        ("learning_rate", True),
    ],
)
def test_training_config_checks_every_field(field_name, value):
    with pytest.raises(InvalidValue, match=field_name):
        TrainingConfig(**{"epochs": 1, field_name: value})


# ------------------------------------------------------------------- training


def test_training_loss_decreases(tiny_corpus):
    documents, split = tiny_corpus
    hyper = TrainingConfig(epochs=5, batch_size=8, seed=0, learning_rate=3e-3)
    _, metrics = train(documents, split, small_config(), hyper)
    losses = [m.train_loss for m in metrics]
    assert losses[-1] < losses[0]
    increases = sum(b > a for a, b in zip(losses, losses[1:]))
    assert increases <= 1
    assert [m.epoch for m in metrics] == [1, 2, 3, 4, 5]


def test_training_is_deterministic(tiny_corpus):
    documents, split = tiny_corpus
    hyper = TrainingConfig(epochs=2, batch_size=8, seed=3)
    first, _ = train(documents, split, small_config(), hyper)
    second, _ = train(documents, split, small_config(), hyper)
    assert sorted(first.parameter_state) == sorted(second.parameter_state)
    for name, value in first.parameter_state.items():
        assert np.array_equal(value, second.parameter_state[name])


def test_training_subtokenizes_each_record_stream_once(tiny_corpus, monkeypatch):
    documents, split = tiny_corpus
    calls = {}
    original = lemname.corpus.stream_subtoken_texts

    def counting(record, stream, *args, **kwargs):
        calls[(id(record), stream)] = calls.get((id(record), stream), 0) + 1
        return original(record, stream, *args, **kwargs)

    monkeypatch.setattr(lemname.corpus, "stream_subtoken_texts", counting)
    config = small_config()
    train(documents, split, config, TrainingConfig(epochs=3, batch_size=8, seed=0))
    train_records = ordered_records(documents, split.train)
    val_records = ordered_records(documents, split.validation)
    # Validation compares names as strings, so only training records split theirs.
    assert len(calls) == len(train_records) * (len(config.inputs) + 1) + len(val_records) * len(config.inputs)
    assert set(calls.values()) == {1}


def test_training_holds_one_batch_graph(tiny_corpus, monkeypatch):
    """No batch's graph outlives its Adam step: every batch and validation start with the same live Tensors."""
    documents, split = tiny_corpus
    live = []

    def counting(method):
        def wrapper(self, *args, **kwargs):
            live.append(sum(isinstance(o, Tensor) for o in gc.get_objects()))
            return method(self, *args, **kwargs)

        return wrapper

    for name in ("_loss_batch", "_greedy_hits"):  # _greedy_hits: the validation pass
        monkeypatch.setattr(LemmaNameModel, name, counting(getattr(LemmaNameModel, name)))
    gc.collect()  # garbage other tests left must not be collected mid-count
    train(documents, split, small_config(), TrainingConfig(epochs=2, batch_size=4, seed=0))
    batches = -(-len(ordered_records(documents, split.train)) // 4)
    assert batches >= 3 and split.validation
    assert len(live) == 2 * (batches + 1)
    assert live == [live[0]] * len(live)


def cyclic_garbage(run) -> int:
    """Objects the cyclic collector finds after `run()`, which runs with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_training_and_evaluation_leave_no_cycles(cli_env, tmp_path, capsys):
    """Batch commands run with the cyclic collector off: what they build must be freed by reference counts."""
    documents, split = cli_env.documents, cli_env.split
    assert cyclic_garbage(lambda: train(documents, split, small_config(), TrainingConfig(epochs=4, batch_size=8))) == 0

    def evaluate_baseline(n_docs, lemmas_per_doc):
        data = tmp_path / f"corpus_{n_docs}x{lemmas_per_doc}"
        generate_synthetic_corpus(data, seed=3, n_docs=n_docs, lemmas_per_doc=lemmas_per_doc)
        return cyclic_garbage(lambda: main(["evaluate", "--data", str(data), "--baseline"]))

    # What is left is the argument parser's (319 objects on CPython 3.11), whatever the corpus size.
    assert evaluate_baseline(5, 4) == evaluate_baseline(20, 16)
    assert "lemmas evaluated:" in capsys.readouterr().out


def test_training_seed_changes_parameters(tiny_corpus):
    documents, split = tiny_corpus
    first, _ = train(documents, split, small_config(), TrainingConfig(epochs=1, seed=0))
    second, _ = train(documents, split, small_config(), TrainingConfig(epochs=1, seed=1))
    assert any(
        not np.array_equal(value, second.parameter_state[name])
        for name, value in first.parameter_state.items()
    )


def test_zero_epochs_returns_initial_parameters(tiny_corpus):
    documents, split = tiny_corpus
    config = small_config()
    checkpoint, metrics = train(documents, split, config, TrainingConfig(epochs=0, seed=5))
    assert metrics == []
    fresh = LemmaNameModel(config, checkpoint.chop_config, checkpoint.lexicon, checkpoint.vocabularies, seed=5)
    for name, value in checkpoint.parameter_state.items():
        assert np.array_equal(value, fresh.parameters[name].data)


def test_empty_training_set_raises(tiny_corpus):
    documents, _ = tiny_corpus
    doc_ids = sorted(documents)
    empty_train = DatasetSplit(train=(), validation=(doc_ids[0],), test=(doc_ids[1],))
    with pytest.raises(EmptyTrainingSet):
        train(documents, empty_train, small_config(), TrainingConfig(epochs=1))


def test_loss_requires_records(trained):
    checkpoint, _, _, _ = trained
    model = checkpoint.to_model()
    with pytest.raises(EmptyTrainingSet):
        model.loss([])


# ----------------------------------------------------------------- model core


def truncated_source(model, record) -> list:
    """The record's source sub-tokens as prepare reads them: streams truncated, then concatenated."""
    texts = record_texts(record, model.config.inputs, model.chop_config, model.lexicon)
    return [t for stream in model.config.inputs for t in texts[stream][: model.config.max_input_len]]


def test_model_requires_all_vocabularies(trained):
    checkpoint, _, _, _ = trained
    partial = dict(checkpoint.vocabularies)
    del partial["output"]
    with pytest.raises(ValueError):
        LemmaNameModel(checkpoint.config, checkpoint.chop_config, checkpoint.lexicon, partial)


def test_stream_texts_respects_max_input_len(trained):
    checkpoint, _, documents, split = trained
    record = ordered_records(documents, split.train)[0]
    config = dataclasses.replace(checkpoint.config, max_input_len=5)
    model = LemmaNameModel(config, checkpoint.chop_config, checkpoint.lexicon, checkpoint.vocabularies)
    prepared = model.prepare(record)
    assert all(len(ids) <= 5 for ids in prepared.stream_ids.values())
    assert len(truncated_source(model, record)) == len(prepared.source_ext_ids)
    assert len(prepared.source_ext_ids) == sum(len(ids) for ids in prepared.stream_ids.values())


def assert_same_prepared(first, second):
    assert first.stream_ids.keys() == second.stream_ids.keys()
    for stream, ids in first.stream_ids.items():
        assert np.array_equal(ids, second.stream_ids[stream])
    assert first.oov_texts == second.oov_texts
    assert np.array_equal(first.source_ext_ids, second.source_ext_ids)
    assert np.array_equal(first.target_ext_ids, second.target_ext_ids)


@pytest.mark.parametrize("max_input_len", [1, 5, 40, 96])
def test_prepare_reads_the_prefix_of_the_whole_streams(trained, max_input_len):
    checkpoint, _, documents, split = trained
    config = dataclasses.replace(checkpoint.config, max_input_len=max_input_len)
    model = LemmaNameModel(config, checkpoint.chop_config, checkpoint.lexicon, checkpoint.vocabularies)
    for record in ordered_records(documents, documents):
        whole = record_texts(record, (*config.inputs, "name"), model.chop_config, model.lexicon)
        assert_same_prepared(model._targeted(record), model.prepare(record, whole))
        inputs = {stream: whole[stream] for stream in config.inputs}
        assert_same_prepared(model.prepare(record), model.prepare(record, inputs))


def test_prepare_splits_only_as_far_as_the_encoder_reads(cli_env, deep_lemma_file, monkeypatch):
    (record,) = load_document(deep_lemma_file)
    model = cli_env.model
    split = lemname.subtok._split
    splits = []
    monkeypatch.setattr(lemname.subtok, "_split", lambda text, lexicon: splits.append(text) or split(text, lexicon))
    lemname.subtok._cached_split.cache_clear()
    prepared = model._targeted(record)
    # At most max_input_len tokens per input stream, and the name once.
    assert 0 < len(splits) <= len(model.config.inputs) * model.config.max_input_len + 1
    whole = record_texts(record, (*model.config.inputs, "name"), model.chop_config, model.lexicon)
    assert len(whole["chopped_kernel_tree"]) > 100 * model.config.max_input_len
    assert_same_prepared(prepared, model.prepare(record, whole))


def test_prepare_splits_at_most_max_input_len_atoms_of_a_wide_tree(cli_env, lemma_file, monkeypatch):
    """The walk checks the limit after each atom, not only between lists.

    The kernel tree is one list of distinct atoms, so the split cache
    cannot hide a split past the limit.
    """
    atoms = [f"a{index}" for index in range(100_000)]
    (record,) = load_document(lemma_file("(" + " ".join(atoms) + ")"))
    model = cli_env.model
    split = lemname.subtok._split
    splits = []
    monkeypatch.setattr(lemname.subtok, "_split", lambda text, lexicon: splits.append(text) or split(text, lexicon))
    lemname.subtok._cached_split.cache_clear()
    prepared = model.prepare(record)
    kernel = set(atoms)
    assert 0 < sum(text in kernel for text in splits) <= model.config.max_input_len
    inputs = record_texts(record, model.config.inputs, model.chop_config, model.lexicon)
    assert len(inputs["chopped_kernel_tree"]) == 2 * len(atoms) + 2
    assert_same_prepared(prepared, model.prepare(record, inputs))
    for n in (1, 2, 3, 95, 96, 97, 1000):
        limited = record_texts(record, model.config.inputs, model.chop_config, model.lexicon, limit=n)
        assert limited == {stream: texts[:n] for stream, texts in inputs.items()}


@pytest.mark.parametrize("entry", ["record_texts", "prepare", "train", "RetrievalBaseline.suggest"])
def test_empty_stream_raises(tiny_corpus, entry):
    """A stream with no sub-tokens fails the same way through every caller of record_texts."""
    documents, split = tiny_corpus
    config = small_config()
    records = ordered_records(documents, split.train)
    gutted = dataclasses.replace(records[0], statement_tokens=())
    if entry == "prepare":
        model = train(documents, split, config, TrainingConfig(epochs=0))[0].to_model()
    elif entry == "RetrievalBaseline.suggest":
        baseline = RetrievalBaseline(records, inputs=config.inputs)
    with pytest.raises(EmptyStream) as err:
        if entry == "record_texts":
            record_texts(gutted, (*config.inputs, "name"), ChopConfig(), DEFAULT_LEXICON)
        elif entry == "prepare":
            model.prepare(gutted)
        elif entry == "train":
            first_doc = sorted(split.train)[0]  # records[0] is its first record
            train({**documents, first_doc: [gutted, *documents[first_doc][1:]]}, split, config, TrainingConfig(epochs=0))
        else:
            baseline.suggest(gutted, k=1)
    assert err.value.stream == "statement"


def test_loss_is_finite_scalar(trained):
    checkpoint, _, documents, split = trained
    model = checkpoint.to_model()
    records = ordered_records(documents, split.train)[:4]
    loss = model.loss(records)
    assert loss.shape == ()
    assert np.isfinite(loss.data)
    assert float(loss.data) >= 0.0


def test_numeric_entry_points_check_without_help_from_the_caller(trained):
    checkpoint, _, documents, split = trained
    model = checkpoint.to_model()
    records = ordered_records(documents, split.train)[:4]
    loss = model.loss(records)  # a graph built while the model is sound
    # out.w as if it had overflowed: the logits and backward's g @ out.w.T
    # then add inf to -inf or take inf - inf, which makes a NaN.
    model.parameters["out.w"].data[:] = np.inf
    with pytest.raises(NonFiniteValue, match="invalid value"):
        model.loss(records)
    with pytest.raises(NonFiniteValue, match="invalid value"):
        model.suggest_many(records, 2)
    with pytest.raises(NonFiniteValue, match="invalid value encountered in matmul"):
        backward(loss, model.parameters)


def test_statement_only_model_ignores_trees(tiny_corpus):
    documents, split = tiny_corpus
    hyper = TrainingConfig(epochs=1, batch_size=8, seed=0)
    config = small_config(inputs=INPUT_CONFIGS["stmt"])
    checkpoint, _ = train(documents, split, config, hyper)
    model = checkpoint.to_model()
    record = ordered_records(documents, split.train)[0]
    mangled = dataclasses.replace(record, kernel_tree=("Mangled",), syntax_tree=("Other",))
    assert float(model.loss([record]).data) == float(model.loss([mangled]).data)
    assert model.suggest(record, k=2) == model.suggest(mangled, k=2)


def test_batch_padding_matches_single_encoding(trained):
    checkpoint, _, documents, split = trained
    model = checkpoint.to_model()
    records = ordered_records(documents, split.train)
    prepared = [model.prepare(r) for r in records[:4]]
    lengths = {len(p.stream_ids["statement"]) for p in prepared}
    assert len(lengths) > 1, "fixture should mix statement lengths"
    batched = model._encode(prepared, keep_graph=False)
    # Inference and training run the same encoder loop.
    graphed = model._encode(prepared, keep_graph=True)
    assert np.array_equal(batched.hidden.data, graphed.hidden.data)
    assert np.array_equal(batched.state.data, graphed.state.data)
    for i, one in enumerate(prepared):
        single = model._encode([one], keep_graph=True)
        np.testing.assert_allclose(batched.state.data[i], single.state.data[0], atol=1e-12)
        real = batched.mask[i] > 0
        assert real.sum() == single.mask.size
        np.testing.assert_allclose(batched.hidden.data[i][real], single.hidden.data[0], atol=1e-12)
        assert np.array_equal(batched.source_ext_ids[i][real], one.source_ext_ids)


def test_encoder_states_are_held_once(trained):
    """Each stream writes its states into its slice of `hidden`; no concat copy exists."""
    checkpoint, _, documents, split = trained
    model = checkpoint.to_model()
    prepared = [model.prepare(r) for r in ordered_records(documents, split.train)[:4]]
    batch = model._encode(prepared, keep_graph=True)
    streams = batch.hidden._parents
    assert len(streams) == len(model.config.inputs)
    for states in streams:
        assert np.shares_memory(batch.hidden.data, states.data)
    assert np.array_equal(batch.hidden.data, np.concatenate([states.data for states in streams], axis=1))
    # The gradient each stream gets is its slice of the gradient of `hidden`.
    g = np.random.default_rng(0).normal(size=batch.hidden.shape)
    assert np.array_equal(np.concatenate(batch.hidden._backward(g), axis=1), g)


def test_padding_leaks_into_neither_encoder_direction(trained):
    checkpoint, _, documents, split = trained
    model = checkpoint.to_model()
    prepared = [model.prepare(r) for r in ordered_records(documents, split.train + split.validation)]
    inputs = model.config.inputs
    for stream in inputs:
        assert len({len(p.stream_ids[stream]) for p in prepared}) > 1, f"fixture should mix {stream} lengths"
        # Padding looks up the PAD row; a loud one shows any position that reads it.
        model.parameters[f"enc.{stream}.embed"].data[PAD_ID] = 5.0
    half = model.config.hidden_dim // 2
    batched = model._encode(prepared, keep_graph=False)
    widths = [max(len(p.stream_ids[stream]) for p in prepared) for stream in inputs]
    for i, one in enumerate(prepared):
        single = model._encode([one], keep_graph=False)
        np.testing.assert_allclose(batched.state.data[i], single.state.data[0], rtol=0, atol=1e-12)
        lengths = [len(one.stream_ids[stream]) for stream in inputs]
        for s, (width, n) in enumerate(zip(widths, lengths)):
            states = batched.hidden.data[i, sum(widths[:s]) : sum(widths[: s + 1])]
            alone = single.hidden.data[0, sum(lengths[:s]) : sum(lengths[: s + 1])]
            np.testing.assert_allclose(states[:n], alone, rtol=0, atol=1e-12)
            # Past the record's end the forward direction carries its final
            # state and the reverse direction still holds its zero initial state.
            assert np.array_equal(states[n:, :half], np.broadcast_to(states[n - 1, :half], (width - n, half)))
            assert not states[n:, half:].any()


# ------------------------------------------------------------------- decoding


def test_decode_distribution_sums_to_one(trained):
    checkpoint, _, documents, split = trained
    model = checkpoint.to_model()
    base = len(model.vocabularies["output"])
    prepared = [model.prepare(r) for r in ordered_records(documents, split.validation)[:3]]
    batch = model._encode(prepared, keep_graph=False)
    state = batch.state
    previous = np.full(len(prepared), BOS_ID)
    for _ in range(4):
        state, probs = model._distribution(state, previous, batch)
        for row, record in enumerate(prepared):
            own = base + len(record.oov_texts)
            assert np.all(probs[row, :own] >= 0.0)
            assert abs(probs[row, :own].sum() - 1.0) < 1e-10
            assert not probs[row, own:].any()
        previous = np.argmax(probs[:, :base], axis=1)


def test_attention_is_the_masked_softmax_of_its_scores(cli_env):
    """_decode's attention is bit for bit the normalization it once wrote out by hand."""
    model = cli_env.model
    prepared = [model.prepare(r) for r in ordered_records(cli_env.documents, cli_env.split.train)]
    batch = model._encode(prepared, keep_graph=False)
    assert len({int(row.sum()) for row in batch.mask}) > 1, "fixture should mix record lengths"
    for steps, keep_graph in ((1, False), (3, True)):
        input_ids = np.full((len(prepared), steps), BOS_ID)
        _, _, attention, _ = model._decode(batch.state, input_ids, batch, keep_graph=keep_graph)
        (scores,) = attention._parents
        mask = np.repeat(batch.mask, steps, axis=0)
        e = np.exp(scores.data - scores.data.max(axis=1, keepdims=True)) * mask
        assert np.array_equal(attention.data, e / e.sum(axis=1, keepdims=True))
        assert not attention.data[mask == 0].any()


def test_extended_texts_cover_out_of_vocabulary_sources(trained):
    checkpoint, _, documents, split = trained
    model = checkpoint.to_model()
    record = ordered_records(documents, split.test)[0]
    prepared = model._targeted(record)
    source = truncated_source(model, record)
    out_vocab = model.vocabularies["output"]
    base = len(out_vocab)
    assert prepared.oov_texts == tuple(dict.fromkeys(t for t in source if t not in out_vocab.texts))
    assert prepared.oov_texts, "fixture should have out-of-vocabulary sources"

    def ext_text(ext_id):
        return out_vocab.texts[ext_id] if ext_id < base else prepared.oov_texts[ext_id - base]

    assert len(prepared.source_ext_ids) == len(source)
    for position, text in enumerate(source):
        assert ext_text(prepared.source_ext_ids[position]) == text
    name = stream_subtoken_texts(record, "name")
    assert len(prepared.target_ext_ids) == len(name)
    for text, ext_id in zip(name, prepared.target_ext_ids):
        if text in out_vocab.texts or text in prepared.oov_texts:
            assert ext_text(ext_id) == text
        else:
            assert ext_id == -1


def reference_greedy(model, records) -> list:
    """Argmax decoding, one sub-token per step, independent of the beam search."""
    prepared = [model.prepare(r) for r in records]
    base = len(model.vocabularies["output"])
    batch = model._encode(prepared, keep_graph=False)
    state = batch.state
    previous = np.full(len(prepared), BOS_ID)
    names = [[] for _ in prepared]
    finished = [False] * len(prepared)
    for step in range(model.config.max_output_len):
        state, probs = model._distribution(state, previous, batch)
        for row, record in enumerate(prepared):
            if finished[row]:
                continue
            own = probs[row, : base + len(record.oov_texts)].copy()
            own[[PAD_ID, BOS_ID] + ([EOS_ID] if step == 0 else [])] = -1.0
            best = int(np.argmax(own))
            if best == EOS_ID:
                finished[row] = True
                continue
            text = model.vocabularies["output"].texts[best] if best < base else record.oov_texts[best - base]
            names[row].append(text)
            previous[row] = best if best < base else UNK_ID
    return ["".join(texts) for texts in names]


def test_beam_width_one_matches_reference_greedy(trained):
    checkpoint, _, documents, split = trained
    model = checkpoint.to_model()
    records = ordered_records(documents, split.train + split.validation)
    expected = reference_greedy(model, records)
    found = model.suggest_many(records, 1)
    assert [len(s) for s in found] == [1] * len(records)
    assert [s[0].name for s in found] == expected


def stepwise_loss(model, prepared) -> float:
    """Mean -log p over one record's targets, each p read from one inference step.

    The inputs are the teacher-forced ones, and targets map to ids as the
    loss maps them: without copy, a target the output vocabulary lacks
    counts as UNK.
    """
    base = len(model.vocabularies["output"])
    batch = model._encode([prepared], keep_graph=False)
    state = batch.state
    previous = np.array([BOS_ID])
    nll = []
    for target in [*prepared.target_ext_ids, EOS_ID]:
        generable = 0 <= target < base
        state, probs = model._distribution(state, previous, batch)
        if model.config.use_copy:
            p = probs[0, target] if target >= 0 else 0.0
        else:
            p = probs[0, target if generable else UNK_ID]
        nll.append(-np.log(p + 1e-12))
        previous = np.array([target if generable else UNK_ID])
    return float(np.mean(nll))


@pytest.mark.parametrize(
    "overrides",
    [{}, {"use_copy": False}],
    ids=["copy", "no_copy"],
)
def test_loss_agrees_with_stepwise_inference(trained, overrides):
    checkpoint, _, documents, split = trained
    config = dataclasses.replace(checkpoint.config, **overrides)
    model = LemmaNameModel(config, checkpoint.chop_config, checkpoint.lexicon, checkpoint.vocabularies)
    for name, tensor in model.parameters.items():  # trained values wherever they fit
        value = checkpoint.parameter_state[name]
        if value.shape == tensor.shape:
            tensor.data = value.copy()
    records = ordered_records(documents, split.train + split.validation + split.test)
    prepared = [model._targeted(r) for r in records]
    base = len(model.vocabularies["output"])
    assert any((p.target_ext_ids >= base).any() for p in prepared), "fixture should have copy-only targets"
    for record, one in zip(records, prepared):
        assert abs(float(model.loss([record]).data) - stepwise_loss(model, one)) < 1e-12


@pytest.mark.parametrize("k", [1, 4])
def test_suggest_many_matches_per_record_suggest(trained, k):
    checkpoint, _, documents, split = trained
    model = checkpoint.to_model()
    records = ordered_records(documents, split.validation + split.test)
    batched = model.suggest_many(records, k)
    assert len(batched) == len(records)
    for record, together in zip(records, batched):
        alone = model.suggest(record, k)
        assert [(s.name, s.sub_tokens) for s in together] == [(s.name, s.sub_tokens) for s in alone]
        np.testing.assert_allclose(
            [s.score for s in together], [s.score for s in alone], rtol=0, atol=1e-9
        )


def test_suggest_many_decodes_large_inputs_in_groups(trained, monkeypatch):
    checkpoint, _, documents, split = trained
    model = checkpoint.to_model()
    records = ordered_records(documents, split.train + split.validation + split.test)
    whole = model.suggest_many(records, 3)
    monkeypatch.setattr(lemname.model, "_DECODE_GROUP", 3)
    searches = []
    encode = model._encode
    monkeypatch.setattr(model, "_encode", lambda p, keep_graph: searches.append(len(p)) or encode(p, keep_graph))
    grouped = model.suggest_many(records, 3)
    assert sum(searches) == len(records) and max(searches) == 3
    assert [[s.name for s in row] for row in grouped] == [[s.name for s in row] for row in whole]
    for together, apart in zip(whole, grouped):
        np.testing.assert_allclose([s.score for s in apart], [s.score for s in together], rtol=0, atol=1e-9)


def test_suggest_many_prepares_each_group_just_before_decoding_it(cli_env, monkeypatch):
    model = cli_env.model
    records = all_records(cli_env) * 4
    live = weakref.WeakValueDictionary()  # by id: a PreparedRecord holds a dict, so it has no hash for a WeakSet
    most = []
    prepare = model.prepare

    def tracked(record):
        prepared = prepare(record)
        live[id(prepared)] = prepared
        most.append(len(live))
        return prepared

    monkeypatch.setattr(model, "prepare", tracked)
    suggestions = model.suggest_many(records, 2)
    assert len(records) == len(suggestions) == len(most) == 100
    assert max(most) == lemname.model._DECODE_GROUP == 32


def exact(suggestions) -> list:
    return [[(s.name, s.sub_tokens, s.score.hex()) for s in row] for row in suggestions]


def all_records(env) -> list:
    return ordered_records(env.documents, sorted(env.documents))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_suggest_many_equals_the_full_width_search(cli_env, k):
    records = all_records(cli_env)
    assert exact(cli_env.model.suggest_many(records, k)) == exact(full_width_suggest_many(cli_env.model, records, k))


@settings(max_examples=30)
@given(k=st.sampled_from([1, 2, 5]), picks=st.lists(st.integers(0, 24), min_size=1, max_size=25))
def test_suggest_many_equals_the_full_width_search_on_any_subset_and_order(cli_env, k, picks):
    records = all_records(cli_env)
    assert len(records) == 25
    chosen = [records[i] for i in picks]
    assert exact(cli_env.model.suggest_many(chosen, k)) == exact(full_width_suggest_many(cli_env.model, chosen, k))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_a_record_alone_gets_what_it_gets_beside_itself(cli_env, k):
    model = cli_env.model
    for record in all_records(cli_env):
        assert exact(model.suggest_many([record], k)) == exact(model.suggest_many([record, record], k)[:1]), record.name


@pytest.mark.parametrize("k", [1, 2, 5])
def test_beam_search_decodes_only_live_rows(cli_env, monkeypatch, k):
    model = cli_env.model
    records = all_records(cli_env)
    rows = []
    distribution = model._distribution
    monkeypatch.setattr(
        model, "_distribution", lambda state, ids, batch: rows.append(len(ids)) or distribution(state, ids, batch)
    )
    model.suggest_many(records, k)
    # Step 0 has one live hypothesis per record.
    assert rows[0] == len(records)
    assert max(rows) <= len(records) * k
    assert sum(rows) < len(rows) * len(records) * k


def test_a_lone_live_record_decodes_one_row(cli_env, monkeypatch):
    model = cli_env.model
    # Memorized training records: greedy decoding emits each one's own name.
    by_length = sorted(ordered_records(cli_env.documents, cli_env.split.train), key=lambda r: len(r.name))
    shortest, short, longest = by_length[0], by_length[1], by_length[-1]
    steps = [len(stream_subtoken_texts(r, "name")) + 1 for r in (shortest, short, longest)]
    assert steps[2] > max(steps[:2]), "fixture should have one name longer than two others"
    rows = []
    distribution = model._distribution
    monkeypatch.setattr(
        model, "_distribution", lambda state, ids, batch: rows.append(len(ids)) or distribution(state, ids, batch)
    )
    for chosen in ([longest, short, shortest], [shortest, short, longest]):
        rows.clear()
        found = exact(model.suggest_many(chosen, 1))
        # One row per record still live; the longest name decodes its last steps alone.
        assert rows == [sum(step < s for s in steps) for step in range(steps[2])]
        assert rows[-1] == 1
        assert found == exact(full_width_suggest_many(model, chosen, 1))


@pytest.fixture(scope="module")
def greedy_names(cli_env) -> list:
    """Each cli_env record's greedy top-1 name, decoded with all the records."""
    return [row[0].name for row in cli_env.model.suggest_many(all_records(cli_env), 1)]


NAME_KINDS = ("own", "prefix", "longer", "other")


@settings(max_examples=40)
@given(
    group=st.sampled_from([3, 32]),
    picks=st.lists(
        st.tuples(st.integers(0, 24), st.sampled_from(NAME_KINDS), st.integers(0, 24)), min_size=1, max_size=25
    ),
)
def test_pruned_greedy_hits_equal_the_top1_matches(cli_env, greedy_names, group, picks):
    model = cli_env.model
    records = all_records(cli_env)
    prepared, names = [], []
    for index, kind, other in picks:
        own = greedy_names[index]
        prepared.append(model.prepare(records[index]))
        names.append(
            {
                "own": own,  # its greedy name: a hit
                "prefix": own[: other % len(own)],  # a proper prefix, possibly empty
                "longer": own + "_" + records[other].name,
                "other": records[other].name,
            }[kind]
        )
    with mock.patch.object(lemname.model, "_DECODE_GROUP", group):
        found = model._search(prepared, 1)
        hits = model._greedy_hits(prepared, names)
    assert hits == sum(row[0].name == name for row, name in zip(found, names))


def test_a_search_for_names_nothing_spells_takes_one_step(cli_env, monkeypatch):
    model = cli_env.model
    prepared = [model.prepare(r) for r in all_records(cli_env)]
    rows = []
    distribution = model._distribution
    monkeypatch.setattr(
        model, "_distribution", lambda state, ids, batch: rows.append(len(ids)) or distribution(state, ids, batch)
    )
    assert model._greedy_hits(prepared, ["\0"] * len(prepared)) == 0  # no sub-token holds a NUL
    assert rows == [len(prepared)]


def test_only_a_greedy_search_is_pruned_by_names(cli_env):
    prepared = [cli_env.model.prepare(r) for r in all_records(cli_env)[:2]]
    with pytest.raises(ValueError, match="greedy"):
        cli_env.model._search(prepared, 2, ["a", "b"])


def test_a_record_prepared_without_its_name_has_no_loss(cli_env):
    model = cli_env.model
    record = all_records(cli_env)[0]
    untargeted = model.prepare(record)
    assert untargeted.target_ext_ids is None
    with pytest.raises(ValueError, match="no target"):
        model._loss_batch([model._targeted(record), untargeted])


@pytest.mark.parametrize("width", [1, 3])
def test_copy_gate_of_a_row_does_not_depend_on_the_other_rows(cli_env, width):
    model = cli_env.model
    prepared = [model.prepare(r) for r in all_records(cli_env)]
    batch = model._encode(prepared, keep_graph=False)
    rng = np.random.default_rng(0)
    n = len(prepared) * width
    state = Tensor(rng.uniform(-1.0, 1.0, (n, model.config.hidden_dim)))
    ids = rng.integers(EOS_ID + 1, len(model.vocabularies["output"]), (n, 1))
    full = model._decode(state, ids, batch, keep_graph=False)[3].data
    subsets = [[i, i + 1] for i in range(len(prepared) - 1)] + [list(range(0, len(prepared), 3)), [7, 2, 19]]
    subsets += [[i] for i in range(len(prepared))]
    for subset in subsets:
        part = lemname.model._Batch(
            hidden=Tensor(batch.hidden.data[subset]),
            mask=batch.mask[subset],
            source_ext_ids=batch.source_ext_ids[subset],
            state=Tensor(batch.state.data[subset]),
        )
        rows = (np.array(subset)[:, None] * width + np.arange(width)).reshape(-1)
        p_gen = model._decode(Tensor(state.data[rows]), ids[rows], part, keep_graph=False)[3].data
        assert np.array_equal(p_gen, full[rows]), f"records {subset}"


def test_evaluate_makes_one_suggest_many_call_like_per_record_suggest(trained, monkeypatch):
    checkpoint, _, documents, split = trained
    model = checkpoint.to_model()
    records = ordered_records(documents, split.validation + split.test)
    one_by_one = SimpleNamespace(
        lexicon=model.lexicon, suggest_many=lambda rs, k: [model.suggest(r, k) for r in rs]
    )
    expected = evaluate(one_by_one, records, k=3)
    calls = []
    batched = model.suggest_many
    monkeypatch.setattr(model, "suggest_many", lambda rs, k: calls.append(len(rs)) or batched(rs, k))
    report = evaluate(model, records, k=3)
    assert calls == [len(records)]
    assert len(report.rows) == len(expected.rows) == len(records)
    for row, want in zip(report.rows, expected.rows):
        assert (row.name, row.bleu4, row.fragment_accuracy, row.top1, row.top5) == (
            want.name, want.bleu4, want.fragment_accuracy, want.top1, want.top5
        )
        assert [s.name for s in row.suggestions] == [s.name for s in want.suggestions]
        np.testing.assert_allclose(
            [s.score for s in row.suggestions], [s.score for s in want.suggestions], rtol=0, atol=1e-9
        )


def test_eos_biased_model_never_suggests_empty_name(trained):
    checkpoint, _, documents, split = trained
    model = checkpoint.to_model()
    # End the name at once: EOS dominates the output layer, and the gate generates.
    model.parameters["out.b"].data[EOS_ID] = 30.0
    model.parameters["copy.b"].data[:] = 30.0
    record = ordered_records(documents, split.train)[0]
    best = model.suggest(record, 1)
    assert len(best) == 1 and best[0].name
    wider = model.suggest(record, 3)
    assert wider and all(s.name for s in wider)


def test_suggestions_are_ranked_and_unique(trained):
    checkpoint, _, documents, split = trained
    model = checkpoint.to_model()
    for record in ordered_records(documents, split.validation):
        suggestions = model.suggest(record, k=4)
        assert 1 <= len(suggestions) <= 4
        names = [s.name for s in suggestions]
        assert len(set(names)) == len(names)
        scores = [s.score for s in suggestions]
        assert scores == sorted(scores, reverse=True)
        for suggestion in suggestions:
            assert isinstance(suggestion, Suggestion)
            assert "".join(suggestion.sub_tokens) == suggestion.name
            assert suggestion.score <= 0.0


def test_suggest_rejects_nonpositive_k(trained):
    checkpoint, _, documents, split = trained
    model = checkpoint.to_model()
    record = ordered_records(documents, split.train)[0]
    with pytest.raises(ValueError):
        model.suggest(record, k=0)


def test_suggest_many_empty_input(trained):
    checkpoint, _, _, _ = trained
    assert checkpoint.to_model().suggest_many([], 1) == []


def test_trained_model_overfits_training_set(trained):
    checkpoint, metrics, documents, split = trained
    model = checkpoint.to_model()
    records = ordered_records(documents, split.train)
    names = [best[0].name for best in model.suggest_many(records, 1)]
    top1 = sum(n == r.name for n, r in zip(names, records)) / len(records)
    assert top1 >= 0.75
    assert metrics[-1].train_loss < metrics[0].train_loss / 2


# ------------------------------------------------------------------ gradcheck


def test_end_to_end_gradients(tiny_corpus):
    documents, split = tiny_corpus
    records = ordered_records(documents, split.train)[:2]
    config = small_config(embed_dim=6, hidden_dim=8)
    hyper = TrainingConfig(epochs=0, seed=2)
    checkpoint, _ = train(documents, split, config, hyper)
    model = checkpoint.to_model()
    rng = np.random.default_rng(11)
    finite_difference_check(model.parameters, lambda: model.loss(records), rng, n_coords=15)


def test_end_to_end_gradients_without_copy(tiny_corpus):
    documents, split = tiny_corpus
    records = ordered_records(documents, split.train)[:2]
    config = small_config(embed_dim=6, hidden_dim=8, use_copy=False)
    checkpoint, _ = train(documents, split, config, TrainingConfig(epochs=0, seed=2))
    model = checkpoint.to_model()
    rng = np.random.default_rng(13)
    finite_difference_check(model.parameters, lambda: model.loss(records), rng, n_coords=12)


# ----------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip_is_byte_identical(trained, tmp_path):
    checkpoint, _, _, _ = trained
    first = tmp_path / "first.ckpt"
    second = tmp_path / "second.ckpt"
    save_checkpoint(first, checkpoint)
    save_checkpoint(second, load_checkpoint(first))
    assert first.read_bytes() == second.read_bytes()


def test_header_digest_is_hashlib_sha256_of_the_canonical_header():
    header = {"name": "add_comm_ℕ", "letters": ["é", "λ", "𝔽"], "header_digest": "stale"}
    rest = {"name": "add_comm_ℕ", "letters": ["é", "λ", "𝔽"]}
    assert _header_digest(header) == hashlib.sha256(canonical_json(rest).encode("utf-8")).hexdigest()


def test_checkpoint_restores_model_behaviour(trained, tmp_path):
    checkpoint, _, documents, split = trained
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, checkpoint)
    restored = load_checkpoint(path).to_model()
    original = checkpoint.to_model()
    records = ordered_records(documents, split.validation)[:3]
    assert restored.suggest_many(records, 3) == original.suggest_many(records, 3)
    assert float(restored.loss(records).data) == float(original.loss(records).data)
    assert restored.vocabularies == checkpoint.vocabularies
    assert restored.config == checkpoint.config


def test_checkpoint_bad_magic(trained, tmp_path):
    checkpoint, _, _, _ = trained
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, checkpoint)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(trained, tmp_path):
    checkpoint, _, _, _ = trained
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, checkpoint)
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(data))
    with pytest.raises(VersionMismatch) as err:
        load_checkpoint(path)
    assert err.value.found == 99


def test_checkpoint_truncation(trained, tmp_path):
    checkpoint, _, _, _ = trained
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, checkpoint)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 9])
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_checkpoint_trailing_garbage(trained, tmp_path):
    checkpoint, _, _, _ = trained
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, checkpoint)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_checkpoint_digest_tamper(trained, tmp_path):
    checkpoint, _, _, _ = trained
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, checkpoint)
    data = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", data, 8)
    header = data[16 : 16 + header_len]
    swapped = header.replace(b'"max_output_len":8', b'"max_output_len":9')
    assert swapped != header, "fixture should hit the max_output_len field"
    path.write_bytes(data[:16] + swapped + data[16 + header_len :])
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_checkpoint_preserves_chop_and_lexicon(trained, tmp_path):
    checkpoint, _, _, _ = trained
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, checkpoint)
    restored = load_checkpoint(path)
    assert restored.chop_config == ChopConfig()
    assert restored.lexicon == DEFAULT_LEXICON


def test_checkpoint_vocabulary_tamper(trained, tmp_path):
    checkpoint, _, _, _ = trained
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, checkpoint)
    data = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", data, 8)
    header = json.loads(data[16 : 16 + header_len])
    tokens = header["vocabularies"]["output"]["tokens"]
    renamed = next(t for t in tokens if len(t) == 3)
    tokens[tokens.index(renamed)] = "zzz"  # same length, so the layout stays put
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert len(blob) == header_len and "zzz" not in checkpoint.vocabularies["output"].texts
    path.write_bytes(data[:16] + blob + data[16 + header_len :])
    with pytest.raises(CorruptCheckpoint, match="digest"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "settings",
    [
        small_config(inputs=("statement",), use_copy=False, max_output_len=3),
        ChopConfig(location_tags=frozenset({"loc", "vernac_loc"}), enable_singleton_extract=False),
        SuffixLexicon(letters=frozenset({"A", "n"}), enabled=False),
        Vocabulary(["b", "a"], min_frequency=3),
    ],
    ids=lambda settings: type(settings).__name__,
)
def test_settings_round_trip_through_the_header(settings):
    data = json.loads(canonical_json(dataclasses.asdict(settings)))
    assert _section(type(settings), data) == settings


@pytest.mark.parametrize("data", [None, [], {"letters": ["A"]}, {"letters": ["A"], "enabled": True, "x": 1}])
def test_settings_section_needs_exactly_its_fields(data):
    with pytest.raises(CorruptCheckpoint, match="malformed header: SuffixLexicon needs the keys"):
        _section(SuffixLexicon, data)


def test_checkpoint_with_deeply_nested_header_is_corrupt(tmp_path):
    blob = b"[" * 100_000 + b"]" * 100_000
    path = tmp_path / "deep.ckpt"
    prefix = b"LNCK" + struct.pack("<I", lemname.model.CHECKPOINT_VERSION) + struct.pack("<Q", len(blob))
    path.write_bytes(prefix + blob)
    with pytest.raises(CorruptCheckpoint, match="unreadable header"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def small_checkpoint_bytes(tmp_path_factory):
    """An untrained one-stream checkpoint: 2.4 kB, of which 1.3 kB header and 1.1 kB parameters."""
    vocabularies = {name: Vocabulary(["add", "mul", "_", "n"]) for name in ("statement", "output")}
    config = ModelConfig(inputs=("statement",), embed_dim=2, hidden_dim=2, max_input_len=4, max_output_len=2)
    model = LemmaNameModel(config, ChopConfig(), DEFAULT_LEXICON, vocabularies)
    path = tmp_path_factory.mktemp("small_checkpoint") / "small.ckpt"
    state = {name: t.data for name, t in model.parameters.items()}
    save_checkpoint(path, ModelCheckpoint(config, ChopConfig(), DEFAULT_LEXICON, vocabularies, state))
    return path.read_bytes()


@given(data=st.data())
def test_tampered_checkpoint_loads_or_fails_as_corrupt(data, small_checkpoint_bytes, tmp_path_factory):
    edited = bytearray(small_checkpoint_bytes)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        kind = data.draw(st.sampled_from(["flip", "insert", "truncate"]), label="kind")
        # Counting from the end half the time reaches the parameter blocks,
        # since drawn integers lean towards small values.
        position = data.draw(st.integers(0, len(edited)), label="position")
        if data.draw(st.booleans(), label="from end"):
            position = len(edited) - position
        if kind == "insert":
            edited.insert(position, data.draw(st.integers(0, 255), label="byte"))
        elif kind == "truncate":
            del edited[position:]
        elif position < len(edited):
            edited[position] ^= data.draw(st.integers(1, 255), label="mask")
    path = tmp_path_factory.getbasetemp() / "tampered.ckpt"
    path.write_bytes(bytes(edited))
    try:
        checkpoint = load_checkpoint(path)
    except (CorruptCheckpoint, VersionMismatch):
        return
    checkpoint.to_model()  # a checkpoint that loads always makes a model


def rewrite_header(data: bytes, edit) -> bytes:
    """The checkpoint `data` with its header edited by `edit` and a matching digest."""
    (header_len,) = struct.unpack_from("<Q", data, 8)
    header = json.loads(data[16 : 16 + header_len])
    edit(header)
    header["header_digest"] = _header_digest(header)
    blob = canonical_json(header).encode("utf-8")
    return data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + header_len :]


def reshape_first_entry(header):
    entry = header["parameters"][0]
    entry["shape"] = [1, *entry["shape"]]  # the same bytes, another shape


@pytest.mark.parametrize(
    "edit, name",
    [
        (reshape_first_entry, "attn.w"),
        (lambda header: header["parameters"][0].update(name="attn.v"), "attn.v"),  # one name extra, one missing
        (lambda header: header["config"].update(embed_dim=3), "copy.w"),
        (lambda header: header["vocabularies"]["output"]["tokens"].pop(), "dec.embed"),
    ],
    ids=["index", "renamed", "config", "vocabulary"],
)
def test_load_checkpoint_rejects_an_index_that_does_not_fit_the_config(edit, name, small_checkpoint_bytes, tmp_path):
    path = tmp_path / "index.ckpt"
    path.write_bytes(rewrite_header(small_checkpoint_bytes, edit))
    with pytest.raises(CorruptCheckpoint, match=f"unusable parameters: parameter {name}: "):
        load_checkpoint(path)


def test_load_checkpoint_rejects_a_missing_vocabulary(small_checkpoint_bytes, tmp_path):
    path = tmp_path / "vocabulary.ckpt"
    path.write_bytes(rewrite_header(small_checkpoint_bytes, lambda header: header["vocabularies"].pop("output")))
    with pytest.raises(CorruptCheckpoint, match=r"malformed header: vocabularies missing entries: \['output'\]"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_load_checkpoint_rejects_a_non_finite_block(bad, small_checkpoint_bytes, tmp_path):
    data = bytearray(small_checkpoint_bytes)
    struct.pack_into("<d", data, len(data) - 8, bad)  # the last value of the last block
    path = tmp_path / "non_finite.ckpt"
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptCheckpoint, match="parameter out.w_c holds non-finite values"):
        load_checkpoint(path)


def test_to_model_draws_nothing(small_checkpoint_bytes, tmp_path, monkeypatch):
    path = tmp_path / "small.ckpt"
    path.write_bytes(small_checkpoint_bytes)
    checkpoint = load_checkpoint(path)

    def draw(*args):
        raise AssertionError("a loaded model drew an initial value")

    monkeypatch.setattr(lemname.model, "linear_init", draw)
    monkeypatch.setattr(lemname.model, "embedding_init", draw)
    model = checkpoint.to_model()
    assert model.parameters.keys() == checkpoint.parameter_state.keys()
    for name, value in checkpoint.parameter_state.items():
        assert np.array_equal(model.parameters[name].data, value)
        assert model.parameters[name].data.flags.writeable  # its own copy, not a view of the file


HEADER_VALUES = (None, True, False, 0, -1, 2, 1.5, "", "no", [], ["x"], {})


def settings_of(checkpoint) -> list:
    return [checkpoint.config, checkpoint.chop_config, checkpoint.lexicon, *checkpoint.vocabularies.values()]


def header_sections(header) -> list:
    return [header["config"], header["chop_config"], header["lexicon"], *header["vocabularies"].values()]


def field_types(settings) -> list:
    return [type(getattr(s, f.name)) for s in settings for f in dataclasses.fields(s)]


def test_every_mistyped_settings_field_fails_as_corrupt_or_keeps_its_type(small_checkpoint_bytes, tmp_path):
    data = small_checkpoint_bytes
    (header_len,) = struct.unpack_from("<Q", data, 8)
    header = json.loads(data[16 : 16 + header_len])
    path = tmp_path / "field.ckpt"
    path.write_bytes(data)
    expected = field_types(settings_of(load_checkpoint(path)))
    outcomes = {"loaded": 0, "corrupt": 0}
    for index, section in enumerate(header_sections(header)):
        for field_name, value in itertools.product(sorted(section), HEADER_VALUES):
            edited = json.loads(json.dumps(header))
            header_sections(edited)[index][field_name] = value
            edited["header_digest"] = _header_digest(edited)
            blob = canonical_json(edited).encode("utf-8")
            path.write_bytes(data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + header_len :])
            try:
                checkpoint = load_checkpoint(path)
                checkpoint.to_model()
            except CorruptCheckpoint:
                outcomes["corrupt"] += 1
                continue
            outcomes["loaded"] += 1
            settings = settings_of(checkpoint)
            assert field_types(settings) == expected, (field_name, value)
            for s in settings:
                for f in dataclasses.fields(s):
                    members = getattr(s, f.name)
                    if isinstance(members, (tuple, frozenset)):
                        assert all(type(m) is str for m in members), (field_name, value)
    assert outcomes["loaded"] and outcomes["corrupt"]
