"""Dataset format, splitting, vocabulary, and synthetic-corpus behaviour."""

import logging
import math
import os
import random

import pytest

from lemname import InvalidValue
from lemname.chop import ChopConfig
from lemname.corpus import (
    BOS_ID,
    DOCUMENT_SUFFIX,
    EOS_ID,
    INPUT_STREAMS,
    PAD_ID,
    RESERVED_TOKENS,
    STREAM_NAME,
    UNK_ID,
    DatasetSplit,
    FormatError,
    MissingDocument,
    TooFewDocuments,
    Vocabulary,
    build_vocabulary,
    bundled_corpus_dir,
    generate_synthetic_corpus,
    load_directory,
    load_document,
    ordered_records,
    record_texts,
    split_corpus,
    stream_subtoken_texts,
)
from lemname.sexp import render
from lemname.subtok import DEFAULT_LEXICON, subtokenize_name

# Statement parenthesis tokens are quoted atoms so they stay tokens.
GOOD_RECORD = (
    '(lemma (name addgA) (path (synth doc_000)) (line 2)'
    ' (stmt (forall x y z : G , add "(" add x y ")" z = add x "(" add y z ")"))'
    " (cst (CRef (Ser_Qualid (DirPath ()) (Id add))))"
    " (ckt (App (Const (Qualid (DirPath ()) (Id add))) (Rel 1))))"
)


def write_doc(tmp_path, body, name="doc_x" + DOCUMENT_SUFFIX):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


class TestLoadDocument:
    def test_reads_well_formed_records(self, tmp_path):
        path = write_doc(tmp_path, GOOD_RECORD + "\n" + GOOD_RECORD)
        records = load_document(path)
        assert len(records) == 2
        record = records[0]
        assert record.name == "addgA"
        assert record.module_path == ("synth", "doc_000")
        assert record.source.line == 2
        assert record.source.file == path.name
        assert record.statement_tokens[0] == "forall"
        assert record.kernel_tree[0] == "App"

    def test_defective_record_is_skipped_with_warning(self, tmp_path, caplog):
        missing_ckt = GOOD_RECORD.replace(
            " (ckt (App (Const (Qualid (DirPath ()) (Id add))) (Rel 1))))", ")"
        )
        path = write_doc(tmp_path, missing_ckt + "\n" + GOOD_RECORD)
        with caplog.at_level(logging.WARNING, logger="lemname.corpus"):
            records = load_document(path)
        assert len(records) == 1
        assert "skipping record 0" in caplog.text

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda s: s.replace("(name addgA)", "(name 0bad)"),
            lambda s: s.replace("(line 2)", "(line two)"),
            lambda s: s.replace("(line 2)", "(line 0)"),
            lambda s: s.replace(
                '(stmt (forall x y z : G , add "(" add x y ")" z = add x "(" add y z ")"))',
                "(stmt ())",
            ),
            lambda s: s.replace("(path (synth doc_000))", "(path synth)"),
            # Unknown extra field at the end.
            lambda s: s[:-1] + " (extra 1))",
            # Fields out of order.
            lambda s: s.replace("(name addgA) (path (synth doc_000))", "(path (synth doc_000)) (name addgA)"),
            # A digit that str.isdigit accepts and int() rejects.
            lambda s: s.replace("(line 2)", "(line \u00b2)"),
        ],
    )
    def test_invariant_violations_are_skipped(self, tmp_path, mangle, caplog):
        path = write_doc(tmp_path, mangle(GOOD_RECORD))
        with caplog.at_level(logging.WARNING, logger="lemname.corpus"):
            assert load_document(path) == []
        assert "skipping record" in caplog.text

    def test_non_lemma_toplevel_form_is_a_format_error(self, tmp_path):
        path = write_doc(tmp_path, GOOD_RECORD + "\n(theorem x)")
        with pytest.raises(FormatError):
            load_document(path)

    def test_syntax_error_is_a_format_error(self, tmp_path):
        path = write_doc(tmp_path, "(lemma (name x)")
        with pytest.raises(FormatError):
            load_document(path)

    def test_non_utf8_document_is_a_format_error_naming_the_file(self, tmp_path):
        path = tmp_path / ("latin1" + DOCUMENT_SUFFIX)
        path.write_bytes(GOOD_RECORD.replace("addgA", "add\xe9").encode("latin-1"))
        with pytest.raises(FormatError, match=f"unreadable document {path.name}: not UTF-8 text") as err:
            load_document(path)
        assert err.value.position == GOOD_RECORD.index("addgA") + 3

    @pytest.mark.parametrize("newline", ["\r", "\r\n", "\n\r"])
    def test_carriage_returns_in_quoted_atoms_are_kept(self, tmp_path, newline):
        token = f"x{newline}y"
        stmt = GOOD_RECORD[GOOD_RECORD.index("(stmt") : GOOD_RECORD.index(" (cst")]
        path = tmp_path / ("crlf" + DOCUMENT_SUFFIX)
        path.write_bytes(GOOD_RECORD.replace(stmt, f"(stmt (forall {render(token)} , x = x))").encode())
        (record,) = load_document(path)
        assert record.statement_tokens == ("forall", token, ",", "x", "=", "x")

    def test_offsets_count_carriage_returns(self, tmp_path):
        path = tmp_path / ("crlf" + DOCUMENT_SUFFIX)
        path.write_bytes(b"\r\n\r\n(lemma")
        with pytest.raises(FormatError) as err:
            load_document(path)
        assert err.value.position == 4

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_document(tmp_path / ("nope" + DOCUMENT_SUFFIX))


class TestLoadDirectory:
    def test_loads_only_dataset_files_sorted(self, tmp_path):
        write_doc(tmp_path, GOOD_RECORD, "b" + DOCUMENT_SUFFIX)
        write_doc(tmp_path, GOOD_RECORD, "a" + DOCUMENT_SUFFIX)
        (tmp_path / "notes.txt").write_text("ignore me")
        documents = load_directory(tmp_path)
        assert list(documents) == ["a" + DOCUMENT_SUFFIX, "b" + DOCUMENT_SUFFIX]

    def test_a_fifo_named_like_a_document_is_rejected(self, tmp_path):
        write_doc(tmp_path, GOOD_RECORD, "a" + DOCUMENT_SUFFIX)
        os.mkfifo(tmp_path / ("b" + DOCUMENT_SUFFIX))
        with pytest.raises(MissingDocument, match="no such lemma-dataset file"):
            load_directory(tmp_path)

    def test_bundled_corpus_is_complete(self):
        documents = load_directory(bundled_corpus_dir())
        assert len(documents) == 10
        assert all(len(records) == 10 for records in documents.values())


class TestSplit:
    def test_default_ratio_on_ten_documents(self):
        ids = [f"doc_{i:03d}" for i in range(10)]
        split = split_corpus(ids, seed=0)
        assert (len(split.train), len(split.validation), len(split.test)) == (8, 1, 1)

    def test_partition_is_disjoint_and_complete(self):
        for n in range(3, 41):
            ids = {f"d{i}" for i in range(n)}
            split = split_corpus(ids, seed=n)
            assert split.train | split.validation | split.test == ids
            assert not split.train & split.validation
            assert not split.train & split.test
            assert not split.validation & split.test
            assert len(split.train) == int(n * 0.8)
            assert len(split.validation) == int(n * 0.1)

    def test_same_seed_same_split(self):
        ids = [f"d{i}" for i in range(17)]
        assert split_corpus(ids, seed=5) == split_corpus(ids, seed=5)
        assert split_corpus(ids, seed=5) != split_corpus(ids, seed=6)

    @pytest.mark.parametrize("seed", [-3, True, 2.0, "0"])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        # random.Random seeds by absolute value: -3 would quietly split as 3.
        with pytest.raises(InvalidValue, match="split seed"):
            split_corpus([f"d{i}" for i in range(10)], seed=seed)

    def test_too_few_documents(self):
        with pytest.raises(TooFewDocuments):
            split_corpus(["a", "b"])

    def test_ordered_records_follow_sorted_doc_order(self, tmp_path):
        write_doc(tmp_path, GOOD_RECORD, "b" + DOCUMENT_SUFFIX)
        write_doc(tmp_path, GOOD_RECORD.replace("addgA", "zmul"), "a" + DOCUMENT_SUFFIX)
        documents = load_directory(tmp_path)
        records = ordered_records(documents, documents.keys())
        assert [r.name for r in records] == ["zmul", "addgA"]


class TestVocabulary:
    def test_reserved_ids(self):
        vocab = Vocabulary(["x"])
        assert vocab.texts[PAD_ID] == "<pad>"
        assert vocab.texts[UNK_ID] == "<unk>"
        assert vocab.texts[BOS_ID] == "<bos>"
        assert vocab.texts[EOS_ID] == "<eos>"
        assert vocab.ids_of(["x"]) == [len(RESERVED_TOKENS)]

    def test_unknown_text_maps_to_unk(self):
        vocab = Vocabulary(["x"])
        assert vocab.ids_of(["never-seen"]) == [UNK_ID]

    def test_frequency_then_lexicographic_order(self, tmp_path):
        body = "\n".join(
            GOOD_RECORD.replace("addgA", name) for name in ["mul", "mul", "add", "zz", "aa"]
        )
        records = load_document(write_doc(tmp_path, body))
        vocab = build_vocabulary(stream_subtoken_texts(r, "name") for r in records)
        ordered = vocab.texts[len(RESERVED_TOKENS) :]
        assert ordered == ("mul", "aa", "add", "zz")

    def test_min_frequency_filters(self, tmp_path):
        body = "\n".join(
            GOOD_RECORD.replace("addgA", name) for name in ["mul", "mul", "add"]
        )
        records = load_document(write_doc(tmp_path, body))
        vocab = build_vocabulary(
            (stream_subtoken_texts(r, "name") for r in records), min_frequency=2
        )
        assert "mul" in vocab.texts
        assert "add" not in vocab.texts
        assert vocab.ids_of(["add"]) == [UNK_ID]

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["x", "x"])

    @pytest.mark.parametrize("tokens", ["xy", ["x", 7]])
    def test_mistyped_tokens_rejected(self, tokens):
        with pytest.raises(ValueError, match="tokens must be"):
            Vocabulary(tokens)

    def test_same_corpus_same_vocabulary(self):
        documents = load_directory(bundled_corpus_dir())
        records = ordered_records(documents, documents.keys())
        v1 = build_vocabulary(stream_subtoken_texts(r, "statement") for r in records)
        v2 = build_vocabulary(stream_subtoken_texts(r, "statement") for r in records)
        assert v1 == v2


class TestStreams:
    def test_statement_stream_subtokenizes_tokens(self, tmp_path):
        records = load_document(write_doc(tmp_path, GOOD_RECORD))
        texts = stream_subtoken_texts(records[0], "statement")
        assert texts[:5] == ["forall", "x", "y", "z", ":"]

    def test_tree_streams_are_chopped(self, tmp_path):
        records = load_document(write_doc(tmp_path, GOOD_RECORD))
        texts = stream_subtoken_texts(records[0], "chopped_syntax_tree")
        # The fully qualified reference collapsed to its identifier.
        assert "Ser" not in texts and "Dir" not in texts
        assert "add" in texts

    def test_name_stream_peels_suffixes(self, tmp_path):
        records = load_document(write_doc(tmp_path, GOOD_RECORD))
        assert stream_subtoken_texts(records[0], "name") == ["add", "g", "A"]

    def test_unknown_stream_rejected(self, tmp_path):
        records = load_document(write_doc(tmp_path, GOOD_RECORD))
        with pytest.raises(ValueError):
            stream_subtoken_texts(records[0], "proof")


class TestGenerator:
    def test_deterministic_bytes(self, tmp_path):
        a = generate_synthetic_corpus(tmp_path / "a", seed=7, n_docs=3, lemmas_per_doc=4)
        b = generate_synthetic_corpus(tmp_path / "b", seed=7, n_docs=3, lemmas_per_doc=4)
        assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
        c = generate_synthetic_corpus(tmp_path / "c", seed=8, n_docs=3, lemmas_per_doc=4)
        assert [p.read_bytes() for p in a] != [p.read_bytes() for p in c]

    def test_generated_records_load_and_round_trip(self, tmp_path):
        generate_synthetic_corpus(tmp_path, seed=3, n_docs=4, lemmas_per_doc=5)
        documents = load_directory(tmp_path)
        records = ordered_records(documents, documents.keys())
        assert len(records) == 20
        for record in records:
            assert "".join(subtokenize_name(record.name)) == record.name
            assert record.statement_tokens
            # Every word fragment of the name is visible in the statement.
            for fragment in record.name.split("_"):
                word = fragment.rstrip("gAC") or fragment
                assert word in record.statement_tokens

    @pytest.mark.parametrize("seed", [-1, True])
    def test_rejects_a_seed_before_writing_anything(self, seed, tmp_path):
        with pytest.raises(InvalidValue, match="seed"):
            generate_synthetic_corpus(tmp_path / "corpus", seed=seed)
        assert not (tmp_path / "corpus").exists()

    def test_rejects_degenerate_dimensions(self, tmp_path):
        for arguments in ({"n_docs": 0}, {"lemmas_per_doc": 0}, {"n_docs": 2.0}):
            with pytest.raises(InvalidValue, match=next(iter(arguments))):
                generate_synthetic_corpus(tmp_path / "corpus", **arguments)
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize(
        "operations",
        [(), ("add",), ("add", "add"), ("add", ""), ("add", "mul1"), ("add", "m_l"), ("add", "mül"), ("add", 3)],
    )
    def test_rejects_operations_before_writing_anything(self, operations, tmp_path):
        with pytest.raises(InvalidValue, match="operations"):
            generate_synthetic_corpus(tmp_path / "corpus", operations=operations)
        assert not (tmp_path / "corpus").exists()

    def test_any_two_words_make_identifier_names(self, tmp_path):
        generate_synthetic_corpus(tmp_path, seed=4, n_docs=2, lemmas_per_doc=10, operations=iter(["Foo", "bar"]))
        documents = load_directory(tmp_path)
        records = ordered_records(documents, documents)
        assert len(records) == 20  # load_document rejects a name that is not an identifier
        assert {fragment.rstrip("gAC") for r in records for fragment in r.name.split("_")} <= {"Foo", "bar"}


def test_limited_streams_are_prefixes_of_the_whole_streams(cli_env):
    streams = (*INPUT_STREAMS, STREAM_NAME)
    longest = 0
    for record in ordered_records(cli_env.documents, cli_env.documents):
        whole = record_texts(record, streams, ChopConfig(), DEFAULT_LEXICON)
        longest = max(longest, *(len(whole[stream]) for stream in INPUT_STREAMS))
        for n in range(1, 301):
            limited = record_texts(record, streams, ChopConfig(), DEFAULT_LEXICON, limit=n)
            for stream in INPUT_STREAMS:
                assert limited[stream] == whole[stream][:n]
            assert limited[STREAM_NAME] == whole[STREAM_NAME]  # the name is never cut
    assert 1 < longest < 300  # both cut and uncut streams were compared
