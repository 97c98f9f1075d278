"""Loading, splitting, and generating serialized lemma datasets.

A dataset is a directory of ``*.lemmas.sexp`` documents. Each document
holds one S-expression per lemma::

    (lemma (name <atom>) (path (<atoms>)) (line <int>)
           (stmt (<atoms...>)) (cst <sexp>) (ckt <sexp>))

Fields appear in exactly that order. Records that fail structural checks
are skipped with a warning; problems with the file itself raise
FormatError, or MissingDocument for a path that names no regular file.
"""

from __future__ import annotations

import logging
import random
import re
import reprlib
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

from . import DomainError, InvalidValue, check_counts
from .chop import DEFAULT_CHOP_CONFIG, ChopConfig, chop
from .sexp import SExp, SExpError, linearize, parse, render
from .subtok import (
    DEFAULT_LEXICON,
    SuffixLexicon,
    split_statement_token,
    subtokenize_name,
)

log = logging.getLogger(__name__)

DOCUMENT_SUFFIX = ".lemmas.sexp"
SPLIT_RATIOS = (0.8, 0.1, 0.1)  # train, validation, test

PAD_ID = 0
UNK_ID = 1
BOS_ID = 2
EOS_ID = 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>")

# The streams a record is read as: the input streams, under the names that
# model configurations and checkpoints store, and the name itself.
STREAM_STATEMENT = "statement"
STREAM_SYNTAX = "chopped_syntax_tree"
STREAM_KERNEL = "chopped_kernel_tree"
STREAM_NAME = "name"
INPUT_STREAMS = (STREAM_STATEMENT, STREAM_SYNTAX, STREAM_KERNEL)

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")
_FIELD_LABELS = ("name", "path", "line", "stmt", "cst", "ckt")


class FormatError(DomainError):
    """A document that cannot be read as a lemma dataset at all."""

    def __init__(self, reason: str, position: int = 0):
        super().__init__(f"{reason} (position {position})")
        self.reason = reason
        self.position = position


class MissingDocument(DomainError, OSError):
    """A dataset path that names no regular file: nothing there, a directory, a FIFO or a device."""

    def __init__(self, path):
        super().__init__(f"no such lemma-dataset file: {path}")


class TooFewDocuments(DomainError):
    """Splitting needs at least one document per part."""


class EmptyStream(DomainError):
    """A record produced zero sub-tokens for a stream."""

    def __init__(self, stream: str):
        super().__init__(f"record has no sub-tokens for stream {stream!r}")
        self.stream = stream


@dataclass(frozen=True)
class SourceLocation:
    file: str
    line: int


@dataclass(frozen=True)
class LemmaRecord:
    """One lemma: its name, where it lives, and three representations."""

    name: str
    module_path: tuple
    statement_tokens: tuple
    syntax_tree: SExp
    kernel_tree: SExp
    source: SourceLocation


class _RecordDefect(Exception):
    pass


def _field(form: tuple, index: int, label: str) -> tuple:
    entry = form[index + 1]
    if not (isinstance(entry, tuple) and len(entry) == 2 and entry[0] == label):
        raise _RecordDefect(f"field {index} must be ({label} ...)")
    return entry


def _record_from_form(form: tuple, file_name: str) -> LemmaRecord:
    """A record from a `(lemma ...)` form, whose head load_document has checked."""
    if len(form) != len(_FIELD_LABELS) + 1:
        raise _RecordDefect(f"expected {len(_FIELD_LABELS)} fields, found {len(form) - 1}")

    name_field = _field(form, 0, "name")
    if not isinstance(name_field[1], str) or not _IDENTIFIER.match(name_field[1]):
        raise _RecordDefect(f"name is not a valid identifier: {name_field[1]!r}")
    name = name_field[1]

    path_field = _field(form, 1, "path")
    segments = path_field[1]
    if not isinstance(segments, tuple) or not all(isinstance(s, str) for s in segments):
        raise _RecordDefect("path must be a list of atoms")

    line_field = _field(form, 2, "line")
    # ASCII digits only: str.isdigit also accepts digits such as '²' that int() rejects.
    if not isinstance(line_field[1], str) or not (line_field[1].isascii() and line_field[1].isdigit()):
        raise _RecordDefect(f"line must be a positive integer: {line_field[1]!r}")
    line = int(line_field[1])
    if line <= 0:
        raise _RecordDefect("line must be positive")

    stmt_field = _field(form, 3, "stmt")
    tokens = stmt_field[1]
    if not isinstance(tokens, tuple) or not tokens or not all(isinstance(t, str) and t for t in tokens):
        raise _RecordDefect("stmt must be a non-empty list of non-empty atoms")

    cst_field = _field(form, 4, "cst")
    ckt_field = _field(form, 5, "ckt")

    return LemmaRecord(
        name=name,
        module_path=segments,
        statement_tokens=tokens,
        syntax_tree=cst_field[1],
        kernel_tree=ckt_field[1],
        source=SourceLocation(file=file_name, line=line),
    )


def load_document(path) -> list:
    """Read one document, skipping (and logging) defective records.

    The path must name a regular file (or a link to one): reading a FIFO
    could block forever, and reading a device such as /dev/zero might
    never end.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingDocument(path)
    try:
        # Decoded without newline translation, so a carriage return inside a
        # quoted atom survives and offsets count the file's own characters.
        forms = parse(path.read_bytes().decode("utf-8"))
    except UnicodeDecodeError as err:
        raise FormatError(f"unreadable document {path.name}: not UTF-8 text", err.start) from err
    except SExpError as err:
        raise FormatError(f"unreadable document {path.name}: {err}", err.position) from err
    records = []
    for index, form in enumerate(forms):
        if not (isinstance(form, tuple) and form and form[0] == "lemma"):
            raise FormatError(f"top-level form {index} in {path.name} is not a (lemma ...) record", index)
        try:
            records.append(_record_from_form(form, path.name))
        except _RecordDefect as defect:
            log.warning("skipping record %d in %s: %s", index, path.name, defect)
    return records


def document_paths(data_dir) -> list:
    """A dataset directory's documents in sorted order: load_directory loads them all, evaluate one at a time."""
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise DomainError(f"no such dataset directory: {data_dir}")
    return sorted(data_dir.glob(f"*{DOCUMENT_SUFFIX}"))


def load_directory(data_dir) -> dict:
    """Every document of document_paths, loaded in that order and keyed by file name."""
    return {path.name: load_document(path) for path in document_paths(data_dir)}


@dataclass(frozen=True)
class DatasetSplit:
    """Document-level train/validation/test partition."""

    train: frozenset
    validation: frozenset
    test: frozenset


def split_corpus(doc_ids, seed: int = 0) -> DatasetSplit:
    """Partition documents by shuffled assignment with floor arithmetic.

    Train and validation get floor(ratio * n) documents each, by
    SPLIT_RATIOS; the remainder goes to test, so no document is dropped.
    The seed must be an int of at least 0.
    """
    check_counts({"split seed": (seed, 0)})
    docs = sorted(doc_ids)
    if len(docs) < 3:
        raise TooFewDocuments(f"need at least 3 documents to split, have {len(docs)}")
    rng = random.Random(seed)
    rng.shuffle(docs)
    n_train = int(len(docs) * SPLIT_RATIOS[0])
    n_val = int(len(docs) * SPLIT_RATIOS[1])
    return DatasetSplit(
        train=frozenset(docs[:n_train]),
        validation=frozenset(docs[n_train : n_train + n_val]),
        test=frozenset(docs[n_train + n_val :]),
    )


def ordered_records(documents: dict, doc_ids) -> list:
    """Records of the given documents, in sorted-document then file order."""
    out = []
    for doc_id in sorted(doc_ids):
        out.extend(documents[doc_id])
    return out


def stream_subtoken_texts(
    record: LemmaRecord,
    stream: str,
    chop_config: ChopConfig = DEFAULT_CHOP_CONFIG,
    lexicon: SuffixLexicon = DEFAULT_LEXICON,
    limit: int | None = None,
) -> list:
    """The canonical sub-token text sequence of one stream of a record.

    The name stream uses suffix peeling and is always whole. An input
    stream is one walk that splits the statement's tokens, or a chopped
    tree's atoms between its parens, in turn; with a `limit` it checks after
    each split and stops once `limit` sub-tokens are out.
    """
    if stream == STREAM_NAME:
        return subtokenize_name(record.name, lexicon)
    if stream == STREAM_STATEMENT:
        forms = record.statement_tokens
    elif stream == STREAM_SYNTAX:
        forms = (chop(record.syntax_tree, chop_config),)
    elif stream == STREAM_KERNEL:
        forms = (chop(record.kernel_tree, chop_config),)
    else:
        raise ValueError(f"unknown stream: {stream!r}")
    return linearize(*forms, pieces=split_statement_token, limit=limit)


def record_texts(
    record: LemmaRecord, streams, chop_config: ChopConfig, lexicon: SuffixLexicon, limit: int | None = None
) -> dict:
    """Sub-token texts of the named streams of a record, by stream.

    The one preprocessing path: training, inference and the retrieval
    baseline read every stream through it, so they preprocess alike. Only
    the streams asked for are made, and the first that comes out empty
    raises EmptyStream. Streams are untruncated unless a `limit` is given:
    then each input stream holds its first `limit` sub-tokens (the name
    stays whole), which is all an encoder of that input length reads.
    """
    texts = {}
    for stream in streams:
        texts[stream] = stream_subtoken_texts(record, stream, chop_config, lexicon, limit)
        if not texts[stream]:
            raise EmptyStream(stream)
    return texts


@dataclass(frozen=True)
class Vocabulary:
    """Sub-token texts mapped to dense ids, reserved entries first.

    Ids 0..3 are <pad>, <unk>, <bos>, <eos>. Corpus entries follow in
    descending frequency, ties broken lexicographically, so a vocabulary
    is a pure function of its training corpus. `texts` lists every entry
    by id.
    """

    tokens: tuple

    def __post_init__(self):
        if not isinstance(self.tokens, (list, tuple)) or not all(isinstance(t, str) for t in self.tokens):
            raise InvalidValue(f"tokens must be a list of strings, got {reprlib.repr(self.tokens)}")
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "texts", RESERVED_TOKENS + self.tokens)
        ids = {}
        for index, text in enumerate(self.texts):
            if text in ids:
                raise InvalidValue(f"duplicate vocabulary entry: {text!r}")
            ids[text] = index
        object.__setattr__(self, "_ids", ids)

    def ids_of(self, texts, default=UNK_ID) -> list:
        """The id of each text, one dict lookup each; `default` for a text not in the vocabulary."""
        return list(map(self._ids.get, texts, repeat(default)))

    def __len__(self) -> int:
        return len(self.texts)


def build_vocabulary(sequences, min_frequency: int = 1) -> Vocabulary:
    """Count the texts of sub-token sequences and keep those meeting min_frequency."""
    counts = Counter()
    for sequence in sequences:
        counts.update(sequence)
    kept = [
        text
        for text, count in counts.items()
        if count >= min_frequency and text not in RESERVED_TOKENS
    ]
    kept.sort(key=lambda text: (-counts[text], text))
    return Vocabulary(kept)


# --- synthetic corpus -------------------------------------------------------

DEFAULT_OPERATIONS = (
    "add", "mul", "sub", "opp", "inv", "rev", "cat", "map",
    "size", "perm", "join", "meet", "filt", "dual", "pair", "comp",
)

# Suffix combinations paired with the statement features that signal them:
# g selects the carrier G over T, A the associativity shape, C the
# commutativity shape, no letter the idempotence shape.
_SUFFIX_COMBOS = ((), ("g",), ("A",), ("C",), ("g", "A"), ("g", "C"))


def _draw_lemma(rng: random.Random, operations):
    if rng.random() < 0.5:
        qualifier, operation = rng.sample(list(operations), 2)
    else:
        qualifier, operation = None, rng.choice(list(operations))
    suffixes = _SUFFIX_COMBOS[rng.randrange(len(_SUFFIX_COMBOS))]
    head = operation + "".join(suffixes)
    name = f"{qualifier}_{head}" if qualifier else head
    return qualifier, operation, suffixes, name


def _expression(operation, suffixes):
    """Both sides of the lemma's equation as ("app", head, *args) trees over the variables."""
    def app(*args):
        return ("app",) + args

    if "A" in suffixes:
        lhs = app(operation, app(operation, "x", "y"), "z")
        rhs = app(operation, "x", app(operation, "y", "z"))
    elif "C" in suffixes:
        lhs = app(operation, "x", "y")
        rhs = app(operation, "y", "x")
    else:
        lhs = app(operation, app(operation, "x"))
        rhs = app(operation, "x")
    return lhs, rhs


def _flatten(expr) -> list:
    """Statement tokens of an expression: the head, then each argument, nested applications in parentheses."""
    tokens = [expr[1]]
    for arg in expr[2:]:
        tokens.extend(["(", *_flatten(arg), ")"] if isinstance(arg, tuple) else [arg])
    return tokens


def _atoms(expr):
    """The variables of an expression, in order of appearance."""
    for arg in expr[2:]:
        yield from _atoms(arg) if isinstance(arg, tuple) else (arg,)


def _qualified(tag: str, name: str) -> tuple:
    return (tag, ("DirPath", ()), ("Id", name))


def _cst_expr(expr) -> tuple:
    if isinstance(expr, str):
        return ("CRef", ("Id", expr))
    head = expr[1]
    args = expr[2:]
    return ("CApp", _qualified("Ser_Qualid", head)) + tuple(_cst_expr(a) for a in args)


def _ckt_expr(expr, var_index) -> tuple:
    if isinstance(expr, str):
        return ("Rel", str(var_index[expr]))
    head = expr[1]
    args = expr[2:]
    return ("App", ("Const", _qualified("Qualid", head))) + tuple(
        _ckt_expr(a, var_index) for a in args
    )


def _carrier_type(tag: str, qualifier, carrier: str) -> tuple:
    base = ("Ind", _qualified(tag, carrier))
    if qualifier:
        return ("App", ("Const", _qualified(tag, qualifier)), base)
    return base


def _lemma_fields(stem: str, line: int, qualifier, operation, suffixes) -> tuple:
    """The stmt, cst and ckt fields of one lemma, all built from one equation."""
    carrier = "G" if "g" in suffixes else "T"
    lhs, rhs = _expression(operation, suffixes)
    variables = tuple(dict.fromkeys([*_atoms(lhs), *_atoms(rhs)]))
    statement = (
        "forall", *variables, ":", *([qualifier] if qualifier else []), carrier, ",",
        *_flatten(lhs), "=", *_flatten(rhs),
    )
    cst = (
        "Sentence",
        ("loc", (("fname", stem + ".v"), ("line", str(line)))),
        (
            "CProd",
            ("binders", tuple(("CLocalAssum", ("Id", v)) for v in variables)),
            ("ty", _carrier_type("Ser_Qualid", qualifier, carrier)),
            ("CNotation", "=", _cst_expr(lhs), _cst_expr(rhs)),
        ),
    )
    # De Bruijn style: innermost binder is 1.
    var_index = {v: len(variables) - i for i, v in enumerate(variables)}
    ckt = (
        "App",
        ("Const", _qualified("Qualid", "eq")),
        _ckt_expr(lhs, var_index),
        _ckt_expr(rhs, var_index),
    )
    for variable in reversed(variables):
        ckt = (
            "Prod",
            ("Name", ("Id", variable)),
            _carrier_type("Qualid", qualifier, carrier),
            ckt,
        )
    return ("stmt", statement), ("cst", cst), ("ckt", ckt)


def generate_synthetic_corpus(
    out_dir,
    seed: int = 0,
    n_docs: int = 10,
    lemmas_per_doc: int = 10,
    operations=DEFAULT_OPERATIONS,
) -> list:
    """Write a deterministic synthetic corpus and return the file paths.

    Lemma names compose an optional qualifier word, an operation word,
    and conventional suffix letters; statements and both trees encode
    exactly the features the name mentions, so the naming convention is
    learnable from any single representation. Same seed, same bytes. The
    arguments are checked before anything is written: `operations` must
    hold at least two distinct words of ASCII letters, so that a qualifier
    and an operation can differ and every name is an identifier.
    """
    check_counts({"seed": (seed, 0), "n_docs": (n_docs, 1), "lemmas_per_doc": (lemmas_per_doc, 1)})
    operations = tuple(operations)
    words = all(isinstance(op, str) and op.isascii() and op.isalpha() for op in operations)
    if not words or len(set(operations)) < 2:
        raise InvalidValue(
            f"operations must hold at least two distinct words of ASCII letters, got {reprlib.repr(operations)}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    paths = []
    for doc in range(n_docs):
        stem = f"doc_{doc:03d}"
        file_name = stem + DOCUMENT_SUFFIX
        forms = []
        for index in range(lemmas_per_doc):
            qualifier, operation, suffixes, name = _draw_lemma(rng, operations)
            line = 2 + 5 * index
            form = (
                "lemma",
                ("name", name),
                ("path", ("synth", stem)),
                ("line", str(line)),
                *_lemma_fields(stem, line, qualifier, operation, suffixes),
            )
            forms.append(render(form))
        path = out_dir / file_name
        path.write_text("\n".join(forms) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def bundled_corpus_dir() -> Path:
    """Directory of the small corpus shipped inside the package."""
    return Path(__file__).resolve().parent / "data" / "bundled"
