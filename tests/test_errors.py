"""One domain-error type: which exceptions mean bad input and which a defect."""

import importlib
import inspect
import pkgutil
import sys

import pytest

import lemname
from lemname import DomainError, InvalidValue, cli

# Raised only when the program itself is wrong, never by outside input.
# ShapeMismatch comes from nn's ops; load_checkpoint compares a checkpoint's
# parameter shapes with its config first, so a bad checkpoint is CorruptCheckpoint.
# _RecordDefect never leaves corpus: load_document turns it into a skipped record.
DEFECT_TYPES = {"ShapeMismatch", "EmptyReference", "_RecordDefect"}


def exception_types() -> dict:
    """Every Exception subclass defined in the lemname package, by name."""
    modules = [lemname] + [
        importlib.import_module(f"lemname.{info.name}") for info in pkgutil.iter_modules(lemname.__path__)
    ]
    return {
        name: value
        for module in modules
        for name, value in vars(module).items()
        if inspect.isclass(value) and issubclass(value, Exception) and value.__module__ == module.__name__
    }


def test_every_exception_type_declares_its_kind():
    types = exception_types()
    assert DEFECT_TYPES <= types.keys()
    for name, value in types.items():
        assert issubclass(value, DomainError) != (name in DEFECT_TYPES), name


@pytest.mark.parametrize("defect", [ValueError("boom"), OverflowError("boom"), KeyError("boom")])
def test_a_defect_is_one_internal_error_line_and_exit_two(defect, tmp_path, monkeypatch, capsys):
    def command(args, config):
        raise defect

    monkeypatch.setattr(cli, "cmd_gen_corpus", command)
    argv = ["gen_corpus", "--out", str(tmp_path)]
    with pytest.raises(type(defect)):
        cli.main(argv)
    monkeypatch.setattr(sys, "argv", ["lemname", *argv])
    with pytest.raises(SystemExit) as exit_info:
        cli.console_main()
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == f"internal error: {type(defect).__name__}: {defect}\n"


def test_a_domain_error_is_one_error_line(tmp_path, monkeypatch, capsys):
    def command(args, config):
        raise InvalidValue("out of range")

    monkeypatch.setattr(cli, "cmd_gen_corpus", command)
    monkeypatch.setattr(sys, "argv", ["lemname", "gen_corpus", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        cli.console_main()
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == "error: out of range\n"
