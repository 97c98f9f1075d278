"""Tests for the command-line interface and configuration file handling."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lemname
import lemname.corpus
from lemname import InvalidValue, cli
from lemname.cli import (
    _CONFIG_KEYS,
    CONFIG_FILE_NAME,
    MAX_K,
    ConfigSyntaxError,
    ToolConfig,
    build_suggestion_report,
    load_config,
    main,
)
from lemname.baseline import RetrievalBaseline
from lemname.chop import ChopConfig
from lemname.corpus import (
    bundled_corpus_dir,
    document_paths,
    generate_synthetic_corpus,
    load_directory,
    load_document,
    ordered_records,
    split_corpus,
)
from lemname.diagserver import SUGGEST_METHOD, read_message, write_message
from lemname.metrics import evaluate
from lemname.model import (
    DEFAULT_INPUT_CONFIG,
    INPUT_CONFIGS,
    CHECKPOINT_VERSION,
    CorruptCheckpoint,
    ModelConfig,
    TrainingConfig,
    load_checkpoint,
)
from lemname.subtok import DEFAULT_LEXICON
from mutation import EDITS, mutated


def write_config(root, text):
    (root / CONFIG_FILE_NAME).write_text(text, encoding="utf-8")


# ------------------------------------------------------------------ config file


def test_missing_config_gives_defaults(tmp_path):
    config = load_config(tmp_path)
    assert config == ToolConfig()
    assert config.k == 5
    assert config.model_path is None


def test_config_parses_values(tmp_path):
    write_config(
        tmp_path,
        "# project settings\n"
        "\n"
        "k: 3\n"
        "model_path: models/best.ckpt\n",
    )
    config = load_config(tmp_path)
    assert config.k == 3
    assert config.model_path == "models/best.ckpt"


def test_config_parses_chop_and_lexicon_overrides(tmp_path):
    write_config(
        tmp_path,
        "singleton_extract: False\n"
        "qualified_name_tags: Ser_Qualid, Qualid\n"
        "location_tags: loc, v_loc\n"
        "suffix_letters: A, C, g, T\n",
    )
    config = load_config(tmp_path)
    assert not config.chop.enable_singleton_extract
    assert config.chop.qualified_name_tags == frozenset({"Ser_Qualid", "Qualid"})
    assert config.chop.location_tags == frozenset({"loc", "v_loc"})
    assert config.lexicon.letters == frozenset({"A", "C", "g", "T"})


def test_config_empty_values_switch_the_rewrites_off(tmp_path):
    write_config(tmp_path, "qualified_name_tags:\nlocation_tags:\nsuffix_letters:\n")
    config = load_config(tmp_path)
    assert config.chop == ChopConfig(qualified_name_tags=frozenset(), location_tags=frozenset())
    assert config.lexicon.letters == frozenset()


def test_config_unknown_key_reports_line(tmp_path):
    write_config(tmp_path, "# comment\nk: 5\nturbo: yes\n")
    with pytest.raises(ConfigSyntaxError) as err:
        load_config(tmp_path)
    assert err.value.line == 3
    assert "turbo" in str(err.value)


def test_config_missing_colon_reports_line(tmp_path):
    write_config(tmp_path, "just some words\n")
    with pytest.raises(ConfigSyntaxError) as err:
        load_config(tmp_path)
    assert err.value.line == 1


def test_config_bad_int_reports_line(tmp_path):
    write_config(tmp_path, "k: plenty\n")
    with pytest.raises(ConfigSyntaxError) as err:
        load_config(tmp_path)
    assert err.value.line == 1


def test_config_rejects_nonpositive_k(tmp_path):
    write_config(tmp_path, "\nk: 0\n")
    with pytest.raises(ConfigSyntaxError) as err:
        load_config(tmp_path)
    assert err.value.line == 2


def test_config_rejects_k_over_the_bound(tmp_path):
    write_config(tmp_path, f"model_path: m.ckpt\nk: {MAX_K}\n")
    assert load_config(tmp_path).k == MAX_K
    write_config(tmp_path, f"k: {MAX_K + 1}\n")
    with pytest.raises(ConfigSyntaxError, match=f"k must be an integer from 1 to {MAX_K}") as err:
        load_config(tmp_path)
    assert err.value.line == 1


@pytest.mark.parametrize("k", [0, MAX_K + 1, True, 2.0, "5"])
def test_tool_config_checks_k(k):
    with pytest.raises(InvalidValue, match="k must be"):
        ToolConfig(k=k)


def test_config_bad_bool_reports_line(tmp_path):
    write_config(tmp_path, "singleton_extract: maybe\n")
    with pytest.raises(ConfigSyntaxError):
        load_config(tmp_path)


def test_config_bad_suffix_letters_reported(tmp_path):
    write_config(tmp_path, "suffix_letters: A, CC\n")
    with pytest.raises(ConfigSyntaxError) as err:
        load_config(tmp_path)
    assert err.value.line == 1


def test_config_last_value_wins(tmp_path):
    write_config(tmp_path, "k: 3\nk: 7\n")
    assert load_config(tmp_path).k == 7


def test_config_that_is_not_utf8_names_its_line(tmp_path, capsys):
    (tmp_path / CONFIG_FILE_NAME).write_bytes(b"k: 2\nmodel_path: caf\xe9.ckpt\n")
    with pytest.raises(ConfigSyntaxError, match=f"{CONFIG_FILE_NAME}:2: not UTF-8 text"):
        load_config(tmp_path)
    assert main(["train", "--data", str(tmp_path), "--project", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {CONFIG_FILE_NAME}:2: not UTF-8 text\n"


CONFIG_KEYS = st.sampled_from(tuple(_CONFIG_KEYS) + ("data_dir", "compile_cmd")) | st.text(max_size=8)
CONFIG_VALUES = st.sampled_from(
    ["", "true", "False", "maybe", "0", "-3", "7", "1_0", "A, C", "A, CC", ",", "loc, v_loc"]
) | st.text(max_size=12)
CONFIG_LINES = st.one_of(
    st.builds("{}: {}".format, CONFIG_KEYS, CONFIG_VALUES),
    st.builds("{}{}".format, CONFIG_KEYS, CONFIG_VALUES),  # no colon
    st.text(max_size=20),  # comments, blank lines, non-ASCII text
)


@given(lines=st.lists(CONFIG_LINES, max_size=8))
def test_odd_config_files_load_or_raise_config_syntax_error(lines, tmp_path_factory):
    root = tmp_path_factory.mktemp("rc")
    write_config(root, "\n".join(lines))
    try:
        assert isinstance(load_config(root), ToolConfig)
    except ConfigSyntaxError:
        pass


def test_odd_config_file_exits_two_with_one_error_line(tmp_path, capsys):
    write_config(tmp_path, "k: 2\ndata_dir: data\n")
    assert main(["train", "--data", str(tmp_path), "--project", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {CONFIG_FILE_NAME}:2: unknown key 'data_dir'\n"


@pytest.mark.parametrize("command", ["suggest_naming", "serve"])
def test_a_config_that_is_not_a_regular_file_exits_two(command, tmp_path):
    """In a child with a timeout: reading the FIFO would block it forever."""
    os.mkfifo(tmp_path / CONFIG_FILE_NAME)
    argv = [sys.executable, "-c", "from lemname.cli import console_main; console_main()", command]
    argv += ["--project", str(tmp_path)]
    if command == "suggest_naming":
        argv += ["--file", str(tmp_path / "doc.lemmas.sexp")]
    source = str(Path(lemname.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60, env=env)
    assert (done.returncode, done.stderr) == (2, f"error: {tmp_path / CONFIG_FILE_NAME}: not a regular file\n")


def test_a_dangling_config_link_exits_two(tmp_path, capsys):
    # Read as absent, it would silently give every setting its default.
    (tmp_path / CONFIG_FILE_NAME).symlink_to(tmp_path / "moved.roosterizerc")
    with pytest.raises(lemname.DomainError, match="not a regular file"):
        load_config(tmp_path)
    argv = ["suggest_naming", "--file", str(tmp_path / "doc.lemmas.sexp"), "--project", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / CONFIG_FILE_NAME}: not a regular file\n"


# -------------------------------------------------------------------- help/usage


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_version_exits_zero():
    assert main(["--version"]) == 0


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2


def test_train_rejects_unknown_config_name(tmp_path):
    assert main(["train", "--data", str(tmp_path), "--config-name", "everything"]) == 2


# -------------------------------------------------------------------- gen_corpus


def test_gen_corpus_defaults(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen_corpus", "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 10
    assert all(name.endswith(".lemmas.sexp") for name in files)
    assert "wrote 10 documents" in capsys.readouterr().out


def test_gen_corpus_same_seed_is_byte_identical(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["gen_corpus", "--out", str(first), "--seed", "4", "--docs", "3"]) == 0
    assert main(["gen_corpus", "--out", str(second), "--seed", "4", "--docs", "3"]) == 0
    for path in sorted(first.iterdir()):
        assert path.read_bytes() == (second / path.name).read_bytes()


def test_gen_corpus_rejects_zero_docs(tmp_path, capsys):
    assert main(["gen_corpus", "--out", str(tmp_path / "x"), "--docs", "0"]) == 2
    assert capsys.readouterr().err == "error: n_docs must be an integer of at least 1, got 0\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "-1", "seed must be an integer of at least 0, got -1"),
        ("--lemmas-per-doc", "0", "lemmas_per_doc must be an integer of at least 1, got 0"),
    ],
    ids=["seed", "lemmas-per-doc"],
)
def test_gen_corpus_leaves_its_checks_to_the_generator(flag, value, message, tmp_path, capsys):
    assert main(["gen_corpus", "--out", str(tmp_path / "x"), flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x").exists()


def test_the_parser_checks_types_and_leaves_ranges_to_the_code_that_reads_the_values():
    parser = cli.build_parser()
    commands = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    for name, command in [("lemname", parser), *commands.choices.items()]:
        for action in command._actions:
            assert action.type in (None, int, float, str), f"{name} {'/'.join(action.option_strings)}"


# ------------------------------------------------------------------------ train


def train_args(env, tmp_path, **extra):
    args = [
        "train",
        "--data", str(env.data_dir),
        "--epochs", "1",
        "--embed-dim", "8",
        "--hidden-dim", "12",
        "--max-input-len", "64",
        "--batch-size", "8",
        "--out", str(tmp_path / "m.ckpt"),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def test_train_writes_checkpoint_and_log(cli_env, tmp_path, capsys):
    assert main(train_args(cli_env, tmp_path)) == 0
    out = capsys.readouterr().out
    assert "wrote checkpoint to" in out
    checkpoint = tmp_path / "m.ckpt"
    log = tmp_path / "m.ckpt.log"
    assert checkpoint.is_file() and log.is_file()
    lines = log.read_text().strip().split("\n")
    assert len(lines) == 1
    epoch, loss, top1 = lines[0].split("\t")
    assert epoch == "1"
    float(loss), float(top1)


def test_train_same_seed_identical_checkpoints(cli_env, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert main(train_args(cli_env, a, seed=6)) == 0
    assert main(train_args(cli_env, b, seed=6)) == 0
    assert (a / "m.ckpt").read_bytes() == (b / "m.ckpt").read_bytes()


@pytest.mark.parametrize("rate", ["nan", "inf", "-1", "1e300"])
def test_train_with_unusable_learning_rate_exits_two(rate, cli_env, tmp_path, capsys):
    assert main(train_args(cli_env, tmp_path, learning_rate=rate)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if rate == "1e300":  # accepted, then the first step overflows
        assert "overflow" in err


def test_train_without_validation_checks_kept_parameters(cli_env, tmp_path, capsys):
    # One batch per epoch, and a 5-document corpus splits into no
    # validation documents: nothing in the epoch loop overflows, but the
    # kept parameters do as soon as they run forward.
    assert main(train_args(cli_env, tmp_path, learning_rate="1e300", batch_size=64)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflow" in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize(
    "flags, model_fields, training_fields",
    [
        (["--epochs", "1"], {}, {"epochs": 1}),
        (["--epochs", "1", "--hidden-dim", "12", "--seed", "3"], {"hidden_dim": 12}, {"epochs": 1, "seed": 3}),
        ([], {}, {}),
    ],
)
def test_train_leaves_unset_flags_to_the_settings_types(flags, model_fields, training_fields, monkeypatch):
    class Built(Exception):
        pass

    def recording_train(documents, split, config, training, *rest):
        raise Built(config, training)

    monkeypatch.setattr(cli, "train", recording_train)
    with pytest.raises(Built) as built:
        main(["train", "--data", str(bundled_corpus_dir()), *flags])
    assert built.value.args == (
        ModelConfig(inputs=INPUT_CONFIGS["stmt+ckt"], **model_fields),
        TrainingConfig(**training_fields),
    )


@pytest.mark.parametrize(
    "flag, value, field_name",
    [
        ("--batch-size", "0", "batch_size"),
        ("--hidden-dim", "3", "hidden_dim"),
        ("--epochs", "-1", "epochs"),
        ("--output-min-frequency", "0", "output_min_frequency"),
    ],
)
def test_train_settings_flags_are_checked_by_their_types_before_any_document_is_read(
    flag, value, field_name, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "load_directory", lambda path: pytest.fail(f"read {path}"))
    assert main(["train", "--data", str(bundled_corpus_dir()), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field_name in err


def test_train_has_no_input_vocabulary_threshold(monkeypatch, capsys):
    monkeypatch.setattr(cli, "load_directory", lambda path: pytest.fail(f"read {path}"))
    assert main(["train", "--data", str(bundled_corpus_dir()), "--min-frequency", "2"]) == 2
    assert "unrecognized arguments: --min-frequency 2" in capsys.readouterr().err


def test_train_missing_data_dir(tmp_path, capsys):
    nowhere = tmp_path / "nowhere"
    assert main(["train", "--data", str(nowhere), "--epochs", "1"]) == 2
    assert capsys.readouterr().err == f"error: no such dataset directory: {nowhere}\n"


def test_evaluate_data_that_is_a_file(cli_env, capsys):
    assert main(["evaluate", "--data", str(cli_env.clean_file), "--baseline"]) == 2
    assert capsys.readouterr().err == f"error: no such dataset directory: {cli_env.clean_file}\n"


def test_train_and_baseline_use_the_project_preprocessing(cli_env, tmp_path, monkeypatch):
    write_config(tmp_path, "suffix_letters:\nlocation_tags:\n")
    project = load_config(tmp_path)
    assert project.chop != ChopConfig() and project.lexicon != DEFAULT_LEXICON
    assert main(train_args(cli_env, tmp_path, project=tmp_path)) == 0
    checkpoint = load_checkpoint(tmp_path / "m.ckpt")
    assert checkpoint.chop_config == project.chop
    assert checkpoint.lexicon == project.lexicon

    baselines = []

    def recording_baseline(*args, **kwargs):
        baselines.append(RetrievalBaseline(*args, **kwargs))
        return baselines[-1]

    monkeypatch.setattr(cli, "RetrievalBaseline", recording_baseline)
    code = main(
        ["evaluate", "--data", str(cli_env.data_dir), "--baseline", "--project", str(tmp_path)]
    )
    assert code == 0
    assert baselines[0].chop_config == checkpoint.chop_config
    assert baselines[0].lexicon == checkpoint.lexicon


# --------------------------------------------------------------------- evaluate


def test_evaluate_baseline(cli_env, tmp_path, capsys):
    report_path = tmp_path / "eval.jsonl"
    code = main(
        ["evaluate", "--data", str(cli_env.data_dir), "--baseline", "--report", str(report_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "top-1 accuracy:" in out and "bleu-4:" in out
    lines = report_path.read_text().strip().split("\n")
    aggregate = json.loads(lines[-1])
    assert aggregate["aggregate"] is True
    assert aggregate["lemmas"] == len(lines) - 1


def test_evaluate_model(cli_env, tmp_path, capsys):
    code = main(
        ["evaluate", "--data", str(cli_env.data_dir), "--model", str(cli_env.checkpoint_path)]
    )
    assert code == 0
    assert "lemmas evaluated:" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["stmt", DEFAULT_INPUT_CONFIG])
def test_evaluate_model_rejects_config_name(name, cli_env, capsys):
    code = main(
        ["evaluate", "--data", str(cli_env.data_dir), "--model", str(cli_env.checkpoint_path), "--config-name", name]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --config-name") and err.count("\n") == 1


def test_evaluate_k1_top5_equals_top1(cli_env, tmp_path):
    report_path = tmp_path / "eval.jsonl"
    code = main(
        ["evaluate", "--data", str(cli_env.data_dir), "--baseline", "-k", "1",
         "--report", str(report_path)]
    )
    assert code == 0
    aggregate = json.loads(report_path.read_text().strip().split("\n")[-1])
    assert aggregate["top5"] == aggregate["top1"]


def test_evaluate_splits_references_with_the_suggesters_lexicon(cli_env, tmp_path):
    write_config(tmp_path, "suffix_letters:\n")
    lexicon = load_config(tmp_path).lexicon
    split = split_corpus(sorted(cli_env.documents), seed=0)
    baseline = RetrievalBaseline(
        ordered_records(cli_env.documents, split.train),
        inputs=INPUT_CONFIGS[DEFAULT_INPUT_CONFIG],
        lexicon=lexicon,
    )
    test_records = ordered_records(cli_env.documents, split.test)
    expected = evaluate(baseline, test_records, k=5).bleu4
    default_split = SimpleNamespace(lexicon=DEFAULT_LEXICON, suggest_many=baseline.suggest_many)
    assert expected != evaluate(default_split, test_records, k=5).bleu4, "fixture should need peeling"
    report_path = tmp_path / "eval.jsonl"
    code = main(
        ["evaluate", "--data", str(cli_env.data_dir), "--baseline", "--project", str(tmp_path),
         "--report", str(report_path)]
    )
    assert code == 0
    aggregate = json.loads(report_path.read_text().strip().split("\n")[-1])
    assert aggregate["bleu4"] == expected


def test_evaluate_baseline_scores_a_name_without_fragments_zero(tmp_path):
    data_dir = tmp_path / "data"
    shutil.copytree(bundled_corpus_dir(), data_dir)
    documents = load_directory(data_dir)
    test_doc = min(split_corpus(sorted(documents), seed=0).test)
    path = data_dir / test_doc
    renamed = f"(name {documents[test_doc][0].name})"
    path.write_text(path.read_text(encoding="utf-8").replace(renamed, "(name __)", 1), encoding="utf-8")
    report_path = tmp_path / "eval.jsonl"
    code = main(["evaluate", "--data", str(data_dir), "--baseline", "--report", str(report_path)])
    assert code == 0
    rows = [json.loads(line) for line in report_path.read_text().splitlines()]
    assert [row["fragment_accuracy"] for row in rows if row.get("name") == "__"] == [0.0]


def test_evaluate_requires_model_or_baseline(cli_env):
    assert main(["evaluate", "--data", str(cli_env.data_dir)]) == 2


def test_evaluate_rejects_model_and_baseline(cli_env):
    code = main(
        ["evaluate", "--data", str(cli_env.data_dir), "--baseline",
         "--model", str(cli_env.checkpoint_path)]
    )
    assert code == 2


def test_evaluate_missing_model_file(cli_env, tmp_path):
    code = main(
        ["evaluate", "--data", str(cli_env.data_dir), "--model", str(tmp_path / "ghost.ckpt")]
    )
    assert code == 2


@pytest.fixture
def twelve_documents(tmp_path):
    """Twelve documents of three lemmas: nine train, one validation and two test documents at split seed 0."""
    data_dir = tmp_path / "data"
    generate_synthetic_corpus(data_dir, seed=5, n_docs=12, lemmas_per_doc=3)
    split = split_corpus([path.name for path in document_paths(data_dir)], seed=0)
    assert (len(split.train), len(split.validation), len(split.test)) == (9, 1, 2)
    return data_dir, split


def _not_a_lemma(path) -> str:
    path.write_text("(theorem)\n", encoding="utf-8")
    return f"error: top-level form 0 in {path.name} is not a (lemma ...) record (position 0)\n"


@pytest.mark.parametrize("suggester", ["baseline", "model"])
@pytest.mark.parametrize("parts", [("validation",), ("validation", "test"), ("test", "train"), ("train", "validation")])
def test_evaluate_reads_every_document_and_names_the_first_malformed_one(
    suggester, parts, twelve_documents, cli_env, capsys
):
    data_dir, split = twelve_documents
    malformed = sorted(min(getattr(split, part)) for part in parts)
    expected = [_not_a_lemma(data_dir / name) for name in malformed][0]
    flags = ["--baseline"] if suggester == "baseline" else ["--model", str(cli_env.checkpoint_path)]
    assert main(["evaluate", "--data", str(data_dir), *flags]) == 2
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("case", ["config name with a model", "missing checkpoint", "too few documents"])
def test_evaluate_rejects_its_arguments_before_reading_a_document(case, cli_env, tmp_path, monkeypatch, capsys):
    data_dir = tmp_path / "data"
    documents = 2 if case == "too few documents" else 12
    generate_synthetic_corpus(data_dir, seed=5, n_docs=documents, lemmas_per_doc=3)
    _not_a_lemma(document_paths(data_dir)[0])  # reading it would fail with another message
    monkeypatch.setattr(cli, "load_document", lambda path: pytest.fail(f"read {path}"))
    argv = ["evaluate", "--data", str(data_dir)]
    if case == "config name with a model":
        argv += ["--model", str(cli_env.checkpoint_path), "--config-name", "stmt"]
        expected = "error: --config-name picks the baseline's input streams; a model reads its own checkpoint's\n"
    elif case == "missing checkpoint":
        ghost = tmp_path / "ghost.ckpt"
        argv += ["--model", str(ghost)]
        expected = f"error: model checkpoint not found: {ghost}\n"
    else:
        argv += ["--baseline"]
        expected = "error: need at least 3 documents to split, have 2\n"
    assert main(argv) == 2
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_a_negative_split_seed_is_reported_before_any_document_is_read(command, twelve_documents, capsys):
    data_dir, split = twelve_documents
    _not_a_lemma(data_dir / min(split.train))  # reading it would fail with another message
    flags = ["--baseline"] if command == "evaluate" else ["--epochs", "0"]
    assert main([command, "--data", str(data_dir), *flags, "--split-seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: split seed must be an integer of at least 0, got -1\n"


def test_evaluate_baseline_holds_one_training_document_at_a_time(twelve_documents, monkeypatch):
    data_dir, split = twelve_documents
    live = weakref.WeakSet()
    most = []

    def tracked(path):
        records = load_document(path)
        live.update(records)
        return records

    def bag(self, record):
        most.append(len(live))
        return bag_of(self, record)

    bag_of = RetrievalBaseline._bag
    for module in (lemname.corpus, cli):
        monkeypatch.setattr(module, "load_document", tracked)
    monkeypatch.setattr(RetrievalBaseline, "_bag", bag)
    assert main(["evaluate", "--data", str(data_dir), "--baseline"]) == 0
    per_document, test_records = 3, 3 * len(split.test)
    assert len(most) == 3 * (len(split.train) + len(split.test))  # every training and test record is bagged
    assert max(most) <= per_document + test_records


# --------------------------------------------------------------- suggest_naming


def test_suggest_naming_clean_file_exits_zero(cli_env, capsys):
    code = main(
        ["suggest_naming", "--file", str(cli_env.clean_file),
         "--model", str(cli_env.checkpoint_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "all 5 lemma names conform" in out


def test_suggest_naming_planted_file_exits_one(cli_env, tmp_path, capsys):
    report_path = tmp_path / "report.jsonl"
    code = main(
        ["suggest_naming", "--file", str(cli_env.planted_file),
         "--model", str(cli_env.checkpoint_path), "--report", str(report_path)]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert cli_env.planted_name in out
    assert "1 of 5 lemma names do not conform" in out

    rows = [json.loads(line) for line in report_path.read_text().strip().split("\n")]
    assert len(rows) == 5
    bad = [row for row in rows if not row["conforming"]]
    assert len(bad) == 1
    assert bad[0]["name"] == cli_env.planted_name
    assert len(bad[0]["suggestions"]) == 5
    scores = [s["score"] for s in bad[0]["suggestions"]]
    assert scores == sorted(scores, reverse=True)


def test_suggest_naming_compares_a_two_million_character_name_without_splitting_it(
    cli_env, tmp_path, capsys, monkeypatch
):
    """Suggesting reads no target, so a name is compared as a string and never sub-tokenized."""
    long_name = "mul" + "g" * 2_000_000
    path = tmp_path / "long.lemmas.sexp"
    text = cli_env.clean_file.read_text(encoding="utf-8")
    path.write_text(text.replace(f"(name {cli_env.replaced_name})", f"(name {long_name})", 1), encoding="utf-8")
    splits = []
    split = lemname.corpus.subtokenize_name
    monkeypatch.setattr(lemname.corpus, "subtokenize_name", lambda *args: splits.append(args) or split(*args))
    code = main(["suggest_naming", "--file", str(path), "--model", str(cli_env.checkpoint_path)])
    assert code == 1
    assert long_name in capsys.readouterr().out
    assert splits == []


def test_suggest_naming_printed_report_lists_nonconforming_first(cli_env, capsys):
    code = main(
        ["suggest_naming", "--file", str(cli_env.planted_file),
         "--model", str(cli_env.checkpoint_path)]
    )
    assert code == 1
    out = capsys.readouterr().out
    ranked = [line for line in out.split("\n") if line.strip().startswith("1.")]
    assert len(ranked) == 1, "only the planted lemma should list suggestions"


def test_suggest_naming_missing_file_no_partial_report(cli_env, tmp_path, capsys):
    report_path = tmp_path / "report.jsonl"
    code = main(
        ["suggest_naming", "--file", str(tmp_path / "ghost.lemmas.sexp"),
         "--model", str(cli_env.checkpoint_path), "--report", str(report_path)]
    )
    assert code == 2
    assert not report_path.exists()
    assert "error:" in capsys.readouterr().err


def test_suggest_naming_on_a_fifo_exits_two(cli_env, tmp_path, capsys):
    fifo = tmp_path / "pipe.lemmas.sexp"
    os.mkfifo(fifo)
    code = main(["suggest_naming", "--file", str(fifo), "--model", str(cli_env.checkpoint_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: no such lemma-dataset file: {fifo}\n"


def test_suggest_naming_malformed_qualified_name_exits_two(cli_env, lemma_file, capsys):
    path = lemma_file("(App (Qualid) (Rel 1))")
    code = main(["suggest_naming", "--file", str(path), "--model", str(cli_env.checkpoint_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: qualified-name node has no components: (Qualid)\n"


def test_suggest_naming_non_utf8_document_exits_two(cli_env, tmp_path, capsys):
    path = tmp_path / "latin1.lemmas.sexp"
    path.write_bytes(cli_env.clean_file.read_bytes() + b"; caf\xe9\n")
    code = main(["suggest_naming", "--file", str(path), "--model", str(cli_env.checkpoint_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: unreadable document {path.name}: not UTF-8 text")


@settings(max_examples=200)
@given(edits=st.lists(EDITS, min_size=1, max_size=3))
@example(edits=[(0.0, 0, b"")]).via("the unchanged document")
@example(edits=[(0.0, 0, b"\xff")]).via("a byte that is not UTF-8")
def test_mutated_document_ends_as_a_verdict_or_an_error_line(edits, cli_env, tmp_path_factory):
    # The first record's line is a digit that str.isdigit accepts and int() rejects.
    text = cli_env.clean_file.read_bytes().replace(b"(line 2)", "(line \u00b2)".encode(), 1)
    path = tmp_path_factory.mktemp("mutated") / "doc.lemmas.sexp"
    path.write_bytes(mutated(text, edits))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["suggest_naming", "--file", str(path), "--model", str(cli_env.checkpoint_path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()


def test_suggest_naming_deep_kernel_tree_ends_normally(cli_env, deep_lemma_file, capsys):
    code = main(
        ["suggest_naming", "--file", str(deep_lemma_file), "--model", str(cli_env.checkpoint_path)]
    )
    assert code in (0, 1)
    assert "one_lemma" in capsys.readouterr().out


def test_suggest_naming_requires_model(cli_env, tmp_path, capsys):
    code = main(
        ["suggest_naming", "--file", str(cli_env.clean_file), "--project", str(tmp_path)]
    )
    assert code == 2
    assert "model" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, source",
    [("suggest_naming", "config"), ("suggest_naming", "flag"), ("serve", "config"), ("serve", "flag"),
     ("evaluate", "flag")],  # evaluate's --model is its own choice against --baseline
)
def test_an_empty_model_path_configures_no_model(command, source, cli_env, tmp_path, monkeypatch, capsys):
    # The flag overrides a usable path in the file.
    write_config(tmp_path, "model_path:\n" if source == "config" else f"model_path: {cli_env.checkpoint_path}\n")
    argv = [command, "--project", str(tmp_path)] + (["--model", ""] if source == "flag" else [])
    if command == "suggest_naming":
        argv += ["--file", str(cli_env.clean_file)]
    elif command == "evaluate":
        argv += ["--data", str(cli_env.data_dir)]
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO()))
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: no model checkpoint configured; pass --model or set model_path in .roosterizerc\n"
    )


def most_suggestions(command, cli_env, project, monkeypatch, *flags) -> int:
    """Run a command under `project`; the most suggestions any lemma received.

    suggest_naming and serve check the planted file; evaluate, which needs
    --model or --baseline, scores the fixture checkpoint unless given a model.
    """
    argv = [command, "--project", str(project), *flags]
    if command == "serve":
        requests = io.BytesIO()
        params = {"uri": str(cli_env.planted_file)}
        write_message(requests, {"jsonrpc": "2.0", "id": 1, "method": SUGGEST_METHOD, "params": params})
        write_message(requests, {"jsonrpc": "2.0", "method": "exit"})
        responses = io.BytesIO()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(requests.getvalue())))
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(responses))
        assert main(argv) == 0
        responses.seek(0)
        return max(len(d["data"]) for d in json.loads(read_message(responses))["result"])
    report_path = project / "report.jsonl"
    if command == "evaluate":
        argv += ["--data", str(cli_env.data_dir)]
        if "--model" not in flags:
            argv += ["--model", str(cli_env.checkpoint_path)]
    else:
        argv += ["--file", str(cli_env.planted_file)]
    assert main(argv + ["--report", str(report_path)]) in (0, 1)
    rows = [json.loads(line) for line in report_path.read_text().splitlines()]
    return max(len(row.get("suggestions", ())) for row in rows)


@pytest.mark.parametrize("command", ["suggest_naming", "serve", "evaluate"])
def test_suggest_naming_uses_config_file_model(command, cli_env, tmp_path, monkeypatch):
    # No -k flag, and no --model flag for suggest_naming and serve.
    write_config(tmp_path, f"model_path: {cli_env.checkpoint_path}\nk: 2\n")
    assert most_suggestions(command, cli_env, tmp_path, monkeypatch) == 2


@pytest.mark.parametrize("command", ["suggest_naming", "serve", "evaluate"])
def test_flag_overrides_config_k(command, cli_env, tmp_path, monkeypatch):
    write_config(tmp_path, f"model_path: {tmp_path / 'ghost.ckpt'}\nk: 2\n")
    flags = ["--model", str(cli_env.checkpoint_path), "-k", "3"]
    assert most_suggestions(command, cli_env, tmp_path, monkeypatch, *flags) == 3


@pytest.mark.parametrize("k", [0, MAX_K + 1, 100_000_000_000])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["suggest_naming", "serve", "evaluate"])
def test_k_out_of_bounds_exits_two_before_any_model_loads(command, source, k, cli_env, tmp_path, capsys):
    ghost = tmp_path / "ghost.ckpt"  # loading it would fail with another message
    argv = [command, "--project", str(tmp_path), "--model", str(ghost)]
    if command == "suggest_naming":
        argv += ["--file", str(cli_env.planted_file)]
    elif command == "evaluate":
        argv += ["--data", str(cli_env.data_dir)]
    if source == "flag":
        argv += ["-k", str(k)]
    else:
        write_config(tmp_path, f"k: {k}\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"k must be an integer from 1 to {MAX_K}, got {k}" in err
    assert (f"{CONFIG_FILE_NAME}:1:" in err) == (source == "config")


def test_config_syntax_error_exits_two(cli_env, tmp_path, capsys):
    write_config(tmp_path, "nonsense without a separator\n")
    code = main(
        ["suggest_naming", "--file", str(cli_env.clean_file), "--project", str(tmp_path)]
    )
    assert code == 2
    assert ":1:" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_two(cli_env, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    code = main(["suggest_naming", "--file", str(cli_env.clean_file), "--model", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def canonical_json(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def sha256_of(value) -> str:
    return hashlib.sha256(canonical_json(value)).hexdigest()


def rewritten_checkpoint(cli_env, path, edit, version=CHECKPOINT_VERSION, digest=True):
    """The fixture checkpoint with its header edited and, by default, a matching digest.

    `edit` changes the parsed header, whose digest entry is removed first.
    With `digest`, the digest over every other entry (formats 2 and 3) is added back.
    """
    data = cli_env.checkpoint_path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", data, 8)
    header = json.loads(data[16 : 16 + header_len])
    del header["header_digest"]
    edit(header)
    if digest:
        header["header_digest"] = sha256_of(header)
    blob = canonical_json(header)
    path.write_bytes(b"LNCK" + struct.pack("<IQ", version, len(blob)) + blob + data[16 + header_len :])
    return path


def exit_code_and_error(command, checkpoint, cli_env, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO()))
    args = [command, "--model", str(checkpoint)]
    if command == "suggest_naming":
        args += ["--file", str(cli_env.clean_file)]
    return main(args), capsys.readouterr().err


@pytest.mark.parametrize("command", ["suggest_naming", "serve"])
def test_checkpoint_that_does_not_fit_its_vocabulary_exits_two(command, cli_env, tmp_path, capsys, monkeypatch):
    # A digest-consistent header whose output vocabulary has one token more
    # than the parameters have rows.
    def add_token(header):
        header["vocabularies"]["output"]["tokens"].append("zzz_extra")

    path = rewritten_checkpoint(cli_env, tmp_path / "tampered.ckpt", add_token)
    code, err = exit_code_and_error(command, path, cli_env, monkeypatch, capsys)
    assert code == 2
    assert "dec.embed" in err


@pytest.mark.parametrize(
    "entry",
    [
        {"shape": ["a"]}, {"shape": "xy"}, {"shape": [2.5]}, {"shape": [-1, -1]}, {"name": 7},
        {"shape": [0, 2**70]}, {"shape": [0] * 70}, {"name": "comb.b"},
    ],
    ids=["letter", "string", "float", "negative", "name", "huge-empty", "many-dimensions", "duplicate-name"],
)
@pytest.mark.parametrize("command", ["suggest_naming", "serve"])
def test_checkpoint_with_malformed_parameter_entry_exits_two(
    command, entry, cli_env, tmp_path, capsys, monkeypatch
):
    def edit_first_entry(header):
        header["parameters"][0].update(entry)

    path = rewritten_checkpoint(cli_env, tmp_path / "entry.ckpt", edit_first_entry)
    with pytest.raises(CorruptCheckpoint, match="malformed parameter entry"):
        load_checkpoint(path)
    code, err = exit_code_and_error(command, path, cli_env, monkeypatch, capsys)
    assert code == 2
    assert err.startswith("error: malformed parameter entry") and "Traceback" not in err


@pytest.mark.parametrize(
    "section, field, value, message",
    [
        ("config", "embed_dim", 24.0, "embed_dim must be"),
        ("config", "max_input_len", 1.5, "max_input_len must be"),
        ("config", "use_copy", "yes", "use_copy must be"),
        ("lexicon", "letters", "ACg", "letters must be"),
        ("chop_config", "enable_singleton_extract", "no", "enable_singleton_extract must be"),
        ("chop_config", "location_tags", "loc", "location_tags must be"),
        ("output", "tokens", 7, "tokens must be"),
        ("lexicon", "extra", True, "SuffixLexicon needs the keys"),
    ],
    ids=["float", "fraction", "str", "lexicon-letters", "chop-flag", "chop-tags", "token", "extra-key"],
)
def test_checkpoint_with_mistyped_config_exits_two(
    section, field, value, message, cli_env, tmp_path, capsys, monkeypatch
):
    def set_field(header):
        settings = header["vocabularies"][section] if section == "output" else header[section]
        if field == "tokens":
            settings["tokens"][0] = value
        else:
            settings[field] = value

    path = rewritten_checkpoint(cli_env, tmp_path / "config.ckpt", set_field)
    with pytest.raises(CorruptCheckpoint, match=f"malformed header: {message}"):
        load_checkpoint(path)
    for command in ("suggest_naming", "serve"):
        code, err = exit_code_and_error(command, path, cli_env, monkeypatch, capsys)
        assert code == 2
        assert err.startswith(f"error: malformed header: {message}") and "Traceback" not in err


@pytest.mark.parametrize("command", ["suggest_naming", "serve"])
def test_checkpoint_whose_config_implies_huge_parameters_exits_two(command, cli_env, tmp_path, capsys, monkeypatch):
    # The parameter blocks stay as they were: the shapes the config implies
    # are compared with the header's before any parameter is allocated.
    def grow(header):
        header["config"]["hidden_dim"] = 2**40

    path = rewritten_checkpoint(cli_env, tmp_path / "huge.ckpt", grow)
    with pytest.raises(CorruptCheckpoint, match="unusable parameters"):
        load_checkpoint(path).to_model()
    code, err = exit_code_and_error(command, path, cli_env, monkeypatch, capsys)
    assert code == 2
    assert err.startswith("error: unusable parameters: parameter ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["suggest_naming", "serve"])
def test_format_one_checkpoint_exits_two(command, cli_env, tmp_path, capsys, monkeypatch):
    # Format 1: the version also in the header, the three architecture
    # switches in the config, and a digest of config, chop config and lexicon.
    def to_format_one(header):
        header["format_version"] = 1
        header["config"].update(bidirectional=True, use_attention=True, beam_width=5)
        header["config_digest"] = sha256_of({k: header[k] for k in ("config", "chop_config", "lexicon")})

    path = rewritten_checkpoint(cli_env, tmp_path / "v1.ckpt", to_format_one, version=1, digest=False)
    code, err = exit_code_and_error(command, path, cli_env, monkeypatch, capsys)
    assert code == 2
    assert f"checkpoint format version 1, supported {CHECKPOINT_VERSION}" in err


@pytest.mark.parametrize("command", ["suggest_naming", "serve"])
def test_format_two_checkpoint_exits_two(command, cli_env, tmp_path, capsys, monkeypatch):
    # Format 2: the chop and suffix switches beside their sets, and each
    # vocabulary's min_frequency, all covered by the header digest.
    def to_format_two(header):
        header["chop_config"].update(enable_qualid_collapse=True, enable_location_strip=True)
        header["lexicon"]["enabled"] = True
        for vocabulary in header["vocabularies"].values():
            vocabulary["min_frequency"] = 1

    path = rewritten_checkpoint(cli_env, tmp_path / "v2.ckpt", to_format_two, version=2)
    code, err = exit_code_and_error(command, path, cli_env, monkeypatch, capsys)
    assert (code, err) == (2, "error: checkpoint format version 2, supported 3\n")


@pytest.mark.parametrize("command", ["suggest_naming", "serve"])
def test_checkpoint_with_non_finite_parameters_exits_two(command, cli_env, tmp_path, capsys, monkeypatch):
    data = bytearray(cli_env.checkpoint_path.read_bytes())
    (header_len,) = struct.unpack_from("<Q", data, 8)
    struct.pack_into("<d", data, 16 + header_len, float("nan"))  # first value of the first parameter
    path = tmp_path / "nan.ckpt"
    path.write_bytes(bytes(data))
    code, err = exit_code_and_error(command, path, cli_env, monkeypatch, capsys)
    assert code == 2
    assert "non-finite" in err


# ----------------------------------------------------------------- report object


def test_structured_report_matches_printed_verdicts(cli_env):
    report = build_suggestion_report(cli_env.model, cli_env.planted_file, 5)
    assert [row.conforming for row in report.rows].count(False) == 1
    text = report.to_text()
    for row in report.nonconforming:
        assert row.name in text
        for suggestion in row.suggestions:
            assert suggestion.name in text


def test_report_rows_keep_document_order(cli_env):
    report = build_suggestion_report(cli_env.model, cli_env.clean_file, 2)
    lines = [row.line for row in report.rows]
    assert lines == sorted(lines)
    assert all(row.file.endswith(".lemmas.sexp") for row in report.rows)


def test_default_lexicon_is_shared_default():
    assert ToolConfig().lexicon == DEFAULT_LEXICON


# ------------------------------------------------------------ cyclic collector


@contextlib.contextmanager
def collector(enabled):
    """Run a block with the cyclic collector on or off; restore it afterwards."""
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_leaves_the_collector_as_it_found_it(enabled, tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "corpus")
    with collector(enabled):
        assert main(["gen_corpus", "--out", out, "--docs", "3", "--lemmas-per-doc", "2"]) == 0
        assert gc.isenabled() is enabled
        assert main(["evaluate", "--data", str(tmp_path / "nowhere"), "--baseline"]) == 2
        assert gc.isenabled() is enabled

        def defect(args, config):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_gen_corpus", defect)
        with pytest.raises(RuntimeError, match="boom"):
            main(["gen_corpus", "--out", out])
        assert gc.isenabled() is enabled


def test_batch_commands_pause_the_collector_and_serve_keeps_it(cli_env, tmp_path, monkeypatch):
    from lemname.diagserver import DiagnosticServer

    seen = []
    generate = cli.generate_synthetic_corpus
    handle = DiagnosticServer.handle

    def probed_generate(*args, **kwargs):
        seen.append(("gen_corpus", gc.isenabled()))
        return generate(*args, **kwargs)

    def probed_handle(self, message):
        seen.append(("serve", gc.isenabled()))
        return handle(self, message)

    monkeypatch.setattr(cli, "generate_synthetic_corpus", probed_generate)
    monkeypatch.setattr(DiagnosticServer, "handle", probed_handle)
    requests = io.BytesIO()
    write_message(requests, {"jsonrpc": "2.0", "id": 1, "method": "initialize"})
    write_message(requests, {"jsonrpc": "2.0", "method": "exit"})
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(requests.getvalue())))
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO()))
    with collector(True):
        assert main(["gen_corpus", "--out", str(tmp_path / "corpus"), "--docs", "3"]) == 0
        assert main(["serve", "--model", str(cli_env.checkpoint_path)]) == 0
    assert seen == [("gen_corpus", False), ("serve", True), ("serve", True)]
