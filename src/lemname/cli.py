"""Command-line surface: suggestion reports, training, evaluation, corpora.

Commands: suggest_naming (conformance report for one lemma-dataset
file), train (fit a model on a dataset directory), evaluate (score a
model or the retrieval baseline on the test split), gen_corpus (emit a
synthetic dataset), and serve (the stdio diagnostic server). Every command
but gen_corpus takes one `ToolConfig` that `main` resolves from the
`.roosterizerc` under `--project` and the flags given, which win over the
file. Exit codes: 0 success/all conforming, 1 at least one non-conforming
lemma, 2 any error: one `error:` line for input rejected on purpose (a
`DomainError`, or an `OSError` on a file the user named), or one
`internal error:` line from `console_main` for a defect (any other exception).

Every command but serve runs with the cyclic garbage collector paused.
What loading, preprocessing, training and evaluation build is acyclic, so
reference counting frees all of it; the collector's passes over the parsed
corpus freed nothing and took 10-14 % of `evaluate --baseline`. A server
session is long-lived and spends about 1 % there, so it keeps the collector.
`tests/test_model.py::test_training_and_evaluation_leave_no_cycles` holds
the premise: a cyclic structure built per record or per batch would leak.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import DomainError, InvalidValue, __version__, canonical_json
from .baseline import RetrievalBaseline
from .chop import ChopConfig
from .corpus import (
    document_paths,
    load_directory,
    load_document,
    split_corpus,
    generate_synthetic_corpus,
)
from .metrics import evaluate
from .model import (
    DEFAULT_INPUT_CONFIG,
    INPUT_CONFIGS,
    ModelConfig,
    TrainingConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .subtok import SuffixLexicon

CONFIG_FILE_NAME = ".roosterizerc"
MAX_K = 100  # suggestions per lemma; beam search holds records x k rows at once


class ConfigSyntaxError(DomainError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"{CONFIG_FILE_NAME}:{line}: {reason}")
        self.line = line


class MissingModel(DomainError):
    pass


@dataclass(frozen=True)
class ToolConfig:
    model_path: str | None = None
    k: int = 5
    chop: ChopConfig = field(default_factory=ChopConfig)
    lexicon: SuffixLexicon = field(default_factory=SuffixLexicon)

    def __post_init__(self):
        if type(self.k) is not int or not 1 <= self.k <= MAX_K:  # a bool is no count
            raise InvalidValue(f"k must be an integer from 1 to {MAX_K}, got {self.k!r}")


def _parse_bool(value: str) -> bool:
    if value.lower() not in ("true", "false"):
        raise ValueError(f"must be true or false, got {value!r}")
    return value.lower() == "true"


def _parse_int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"must be an integer, got {value!r}") from None


def _parse_list(value: str) -> tuple:
    return tuple(part.strip() for part in value.split(",") if part.strip())


# Each key's section, the field it sets there, and the parser of its value.
_CONFIG_KEYS = {
    "model_path": ("tool", "model_path", str),
    "k": ("tool", "k", _parse_int),
    "qualid_collapse": ("chop", "enable_qualid_collapse", _parse_bool),
    "location_strip": ("chop", "enable_location_strip", _parse_bool),
    "singleton_extract": ("chop", "enable_singleton_extract", _parse_bool),
    "qualified_name_tags": ("chop", "qualified_name_tags", _parse_list),
    "location_tags": ("chop", "location_tags", _parse_list),
    "suffix_peeling": ("lexicon", "enabled", _parse_bool),
    "suffix_letters": ("lexicon", "letters", _parse_list),
}


def load_config(project_root) -> ToolConfig:
    """Parse `.roosterizerc` (`key: value`, full-line `#` comments).

    A missing file yields all defaults; unknown keys and malformed
    values are rejected with the offending line number. A value that
    its settings type (the tool's, the chop config or the lexicon)
    rejects names the first line of that section's keys.
    """
    path = Path(project_root) / CONFIG_FILE_NAME
    values: dict = {}
    if path.exists():
        if not path.is_file():  # unread: a FIFO could block forever, /dev/zero never end
            raise DomainError(f"{path}: not a regular file")
        data = path.read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ConfigSyntaxError(data.count(b"\n", 0, err.start) + 1, "not UTF-8 text") from None
        for number, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, separator, value = line.partition(":")
            key = key.strip()
            value = value.strip()
            if not separator or not key:
                raise ConfigSyntaxError(number, f"expected 'key: value', got {raw!r}")
            if key not in _CONFIG_KEYS:
                raise ConfigSyntaxError(number, f"unknown key {key!r}")
            values[key] = (number, value)

    sections = {"tool": {}, "chop": {}, "lexicon": {}}
    for key, (section, name, parser) in _CONFIG_KEYS.items():
        if key in values:
            number, value = values[key]
            try:
                sections[section][name] = parser(value)
            except ValueError as err:
                raise ConfigSyntaxError(number, f"{key} {err}") from None

    def build(section, cls, **parts):
        try:
            return cls(**sections[section], **parts)
        except ValueError as err:
            first = min(number for key, (number, _) in values.items() if _CONFIG_KEYS[key][0] == section)
            raise ConfigSyntaxError(first, str(err)) from None

    return build("tool", ToolConfig, chop=build("chop", ChopConfig), lexicon=build("lexicon", SuffixLexicon))


def resolve_settings(args) -> ToolConfig:
    """The `.roosterizerc` under `--project`, with the given flags winning over it.

    gen_corpus has no `--project` and reads no settings.
    """
    config = load_config(args.project) if "project" in args else ToolConfig()
    flags = {key: getattr(args, key) for key in ("model_path", "k") if getattr(args, key, None) is not None}
    return replace(config, **flags)


# ----------------------------------------------------------- suggestion report


@dataclass(frozen=True)
class SuggestionRow:
    file: str
    line: int
    name: str
    conforming: bool
    suggestions: tuple


@dataclass(frozen=True)
class SuggestionReport:
    """Per-lemma conformance verdicts for one lemma-dataset file."""

    source: str
    rows: tuple

    @property
    def nonconforming(self) -> tuple:
        return tuple(row for row in self.rows if not row.conforming)

    def to_text(self) -> str:
        lines = [f"suggest_naming report for {self.source}"]
        bad = self.nonconforming
        if not bad:
            lines.append(f"all {len(self.rows)} lemma names conform")
            return "\n".join(lines) + "\n"
        lines.append(f"{len(bad)} of {len(self.rows)} lemma names do not conform")
        lines.append("")
        for row in bad:
            lines.append(f"{row.file}:{row.line}  {row.name}")
            for rank, suggestion in enumerate(row.suggestions, start=1):
                lines.append(f"    {rank}. {suggestion.name}  {suggestion.score:.4f}")
        lines.append("")
        lines.append(f"conforming lemmas: {len(self.rows) - len(bad)}")
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        lines = []
        for row in self.rows:
            lines.append(
                canonical_json(
                    {
                        "file": row.file,
                        "line": row.line,
                        "name": row.name,
                        "conforming": row.conforming,
                        "suggestions": [
                            {"name": s.name, "score": s.score} for s in row.suggestions
                        ],
                    }
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")


def build_suggestion_report(model, file_path, k: int) -> SuggestionReport:
    """Suggest names for every lemma in a file, decoded as one batch; rows keep document order."""
    records = load_document(file_path)
    rows = []
    for record, suggestions in zip(records, model.suggest_many(records, k)):
        rows.append(
            SuggestionRow(
                file=record.source.file,
                line=record.source.line,
                name=record.name,
                conforming=record.name in {s.name for s in suggestions},
                suggestions=tuple(suggestions),
            )
        )
    return SuggestionReport(source=str(file_path), rows=tuple(rows))


# -------------------------------------------------------------------- commands


def _load_model(path):
    if path is None:
        raise MissingModel(
            "no model checkpoint configured; pass --model or set model_path in .roosterizerc"
        )
    if not Path(path).is_file():
        raise MissingModel(f"model checkpoint not found: {path}")
    return load_checkpoint(path).to_model()


def cmd_suggest_naming(args, config: ToolConfig) -> int:
    model = _load_model(config.model_path)
    report = build_suggestion_report(model, args.file, config.k)
    sys.stdout.write(report.to_text())
    if args.report:
        Path(args.report).write_text(report.to_jsonl(), encoding="utf-8")
    return 0 if not report.nonconforming else 1


def _given(args, settings_type) -> dict:
    """The flags given for a settings type's fields; its own defaults fill in the rest."""
    return {f.name: getattr(args, f.name) for f in fields(settings_type) if f.name in args}


def cmd_train(args, config: ToolConfig) -> int:
    documents = load_directory(args.data)
    split = split_corpus(sorted(documents), seed=args.split_seed)
    model_config = ModelConfig(inputs=INPUT_CONFIGS[args.config_name], **_given(args, ModelConfig))
    training = TrainingConfig(**_given(args, TrainingConfig))
    checkpoint, metrics = train(documents, split, model_config, training, config.chop, config.lexicon)
    save_checkpoint(args.out, checkpoint)
    log_path = args.log if args.log else f"{args.out}.log"
    log_lines = [
        f"{m.epoch}\t{m.train_loss:.6f}\t{m.validation_top1:.4f}" for m in metrics
    ]
    Path(log_path).write_text("\n".join(log_lines) + ("\n" if log_lines else ""), encoding="utf-8")
    sys.stdout.write(f"wrote checkpoint to {args.out}\n")
    sys.stdout.write(f"wrote epoch metrics to {log_path}\n")
    return 0


def cmd_evaluate(args, config: ToolConfig) -> int:
    paths = document_paths(args.data)
    split = split_corpus([path.name for path in paths], seed=args.split_seed)
    if not args.baseline and args.config_name is not None:
        raise DomainError("--config-name picks the baseline's input streams; a model reads its own checkpoint's")
    test_records = []

    def train_records():
        """Yield the training records; read every document in sorted order, so a malformed one fails the run."""
        for path in paths:  # no name holds a document's records while the next is parsed
            if path.name in split.test:
                test_records.extend(load_document(path))
            elif path.name in split.train:
                yield from load_document(path)
            else:
                load_document(path)

    if args.baseline:
        suggester = RetrievalBaseline(
            train_records(),
            inputs=INPUT_CONFIGS[args.config_name or DEFAULT_INPUT_CONFIG],
            chop_config=config.chop,
            lexicon=config.lexicon,
        )
    else:
        suggester = _load_model(config.model_path)  # before any document is read, like the checks above
        for _ in train_records():  # read for their errors: a model needs no training records
            pass
    report = evaluate(suggester, test_records, k=config.k)
    sys.stdout.write(report.to_text())
    if args.report:
        Path(args.report).write_text(report.to_jsonl(), encoding="utf-8")
    return 0


def cmd_gen_corpus(args, config: ToolConfig) -> int:
    written = generate_synthetic_corpus(
        args.out, seed=args.seed, n_docs=args.docs, lemmas_per_doc=args.lemmas_per_doc
    )
    sys.stdout.write(f"wrote {len(written)} documents to {args.out}\n")
    return 0


def cmd_serve(args, config: ToolConfig) -> int:
    from .diagserver import serve

    return serve(sys.stdin.buffer, sys.stdout.buffer, config)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lemname",
        description="Learn lemma naming conventions and suggest names for Coq lemmas.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--project", default=".", help="directory holding .roosterizerc")

    suggest = commands.add_parser(
        "suggest_naming", parents=[settings], help="report lemmas whose names do not conform"
    )
    suggest.add_argument("--file", required=True, help="lemma-dataset file to check")
    suggest.add_argument("--model", dest="model_path", help="model checkpoint path (overrides config)")
    suggest.add_argument("-k", "--k", type=int, help=f"suggestions per lemma (1 to {MAX_K})")
    suggest.add_argument("--report", help="write the structured JSONL report here")
    suggest.set_defaults(func=cmd_suggest_naming)

    # Settings flags not given are left out, so ModelConfig and TrainingConfig supply their defaults.
    fit = commands.add_parser(
        "train",
        parents=[settings],
        argument_default=argparse.SUPPRESS,
        help="train a naming model on a dataset directory",
    )
    fit.add_argument("--data", required=True, help="directory of *.lemmas.sexp documents")
    fit.add_argument(
        "--config-name",
        default=DEFAULT_INPUT_CONFIG,
        choices=sorted(INPUT_CONFIGS),
        help="input streams to encode",
    )
    fit.add_argument("--seed", type=_nonnegative_int, help="training seed")
    fit.add_argument("--epochs", type=_nonnegative_int, default=30)
    fit.add_argument("--out", default="model.ckpt", help="checkpoint output path")
    fit.add_argument("--log", default=None, help="epoch metrics log path (default: <out>.log)")
    fit.add_argument("--split-seed", type=_nonnegative_int, default=0)
    fit.add_argument("--batch-size", type=_positive_int)
    fit.add_argument("--learning-rate", type=float)
    fit.add_argument("--embed-dim", type=_positive_int)
    fit.add_argument("--hidden-dim", type=_positive_int)
    fit.add_argument("--max-input-len", type=_positive_int)
    fit.add_argument("--max-output-len", type=_positive_int)
    fit.add_argument("--min-frequency", type=_positive_int)
    fit.add_argument("--output-min-frequency", type=_positive_int)
    fit.set_defaults(func=cmd_train)

    score = commands.add_parser("evaluate", parents=[settings], help="score a model or the retrieval baseline")
    score.add_argument("--data", required=True, help="directory of *.lemmas.sexp documents")
    chooser = score.add_mutually_exclusive_group(required=True)
    chooser.add_argument("--model", dest="model_path", help="model checkpoint to evaluate")
    chooser.add_argument("--baseline", action="store_true", help="evaluate TF-IDF retrieval")
    score.add_argument("-k", "--k", type=int, help=f"suggestions per lemma (1 to {MAX_K})")
    score.add_argument(
        "--config-name",
        choices=sorted(INPUT_CONFIGS),
        help=f"input streams for the baseline (default: {DEFAULT_INPUT_CONFIG})",
    )
    score.add_argument("--split-seed", type=_nonnegative_int, default=0)
    score.add_argument("--report", help="write the structured JSONL report here")
    score.set_defaults(func=cmd_evaluate)

    gen = commands.add_parser("gen_corpus", help="generate a synthetic lemma corpus")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=_nonnegative_int, default=0)
    gen.add_argument("--docs", type=_positive_int, default=10)
    gen.add_argument("--lemmas-per-doc", type=_positive_int, default=10)
    gen.set_defaults(func=cmd_gen_corpus)

    server = commands.add_parser("serve", parents=[settings], help="run the stdio diagnostic server")
    server.add_argument("--model", dest="model_path", help="model checkpoint path (overrides config)")
    server.add_argument("-k", "--k", type=int, help=f"suggestions per lemma (1 to {MAX_K})")
    server.set_defaults(func=cmd_serve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    collecting = gc.isenabled()
    if args.command != "serve":
        gc.disable()
    try:
        return args.func(args, resolve_settings(args))
    except (DomainError, OSError) as err:  # every file the program opens is named by the user
        sys.stderr.write(f"error: {err}\n")
        return 2
    finally:
        if collecting:
            gc.enable()


def console_main() -> None:
    try:
        code = main()
    except Exception as err:  # a defect: one line to report, not a traceback
        sys.stderr.write(f"internal error: {type(err).__name__}: {err}\n")
        code = 2
    sys.exit(code)
