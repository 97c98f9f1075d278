"""Acceptance suite: ten end-to-end properties of the toolchain.

Each test prints one line with the measured values and a PASS/FAIL verdict
before asserting, so a plain `pytest -v -s tests/test_acceptance.py` shows
every criterion's outcome at its stated tolerance and runtime budget.
Covered: gradient correctness, overfit memorization, copy-mechanism
efficacy, model-vs-retrieval accuracy, metric oracles, sub-tokenizer
fidelity, chopping laws, seeded determinism, CLI conformance checking,
and diagnostic-server transcript conformance.
"""

import math
import random
import re
import time
from io import BytesIO
from types import SimpleNamespace

import numpy as np
import pytest

from gradcheck import finite_difference_check
from golden_metrics import (
    GOLDEN_BLEU_PREFIX,
    GOLDEN_BLEU_PREFIX_CASE,
    GOLDEN_FRAGMENT_SPLIT_DISAGREEMENT,
    GOLDEN_FRAGMENT_SPLIT_DISAGREEMENT_CASE,
    GOLDEN_FRAGMENT_SUFFIX_SWAP,
    GOLDEN_FRAGMENT_SUFFIX_SWAP_CASE,
)
from reference_gru import gru_cell, gru_params
from served_model import float64_model
from lemname import __version__
from lemname import nn
from lemname.baseline import RetrievalBaseline
from lemname.chop import ChopConfig, chop
from lemname.cli import build_suggestion_report, main
from lemname.corpus import (
    DatasetSplit,
    bundled_corpus_dir,
    generate_synthetic_corpus,
    load_directory,
    ordered_records,
    split_corpus,
    stream_subtoken_texts,
)
from lemname.diagserver import (
    SEVERITY_INFORMATION,
    SUGGEST_METHOD,
    write_message,
    serve,
)
from lemname.metrics import bleu4, evaluate, fragment_accuracy
from lemname.model import INPUT_CONFIGS, ModelConfig, TrainingConfig, train
from lemname.subtok import subtokenize_name


def _verdict(label: str, ok: bool, detail: str) -> bool:
    print(f"{label}: {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


# --------------------------------------------------------- shared fixtures


@pytest.fixture(scope="session")
def bundled_run():
    """One statement+kernel-tree model trained on the bundled corpus.

    Shared by the memorization and retrieval-comparison criteria; the
    training wall-clock is recorded so each can charge it to its budget.
    """
    documents = load_directory(bundled_corpus_dir())
    split = split_corpus(tuple(sorted(documents)), seed=0)
    config = ModelConfig(
        inputs=INPUT_CONFIGS["stmt+ckt"], embed_dim=32, hidden_dim=64, max_input_len=128
    )
    hyper = TrainingConfig(epochs=60, batch_size=16, seed=0, learning_rate=3e-3)
    start = time.monotonic()
    checkpoint, _ = train(documents, split, config, hyper)
    seconds = time.monotonic() - start
    return SimpleNamespace(
        model=checkpoint.to_model(),
        documents=documents,
        split=split,
        epochs=hyper.epochs,
        train_seconds=seconds,
    )


# ------------------------------------------------ criterion 1: gradients


def _primitive_checks():
    """Named (parameters, loss) builders, one per differentiable primitive.

    Every parameter set has more than 20 scalar coordinates so each check
    samples at least 20 of them.
    """

    def params_of(rng, shapes):
        return {name: nn.Tensor(rng.normal(size=shape)) for name, shape in shapes.items()}

    def build(shapes, make_loss):
        def builder(rng):
            params = params_of(rng, shapes)
            return params, (lambda: make_loss(params))

        return builder

    two = {"a": (4, 6), "b": (4, 6)}
    checks = {
        "add": build(two, lambda p: nn.sum_(nn.tanh(nn.add(p["a"], p["b"])))),
        "sub": build(two, lambda p: nn.sum_(nn.tanh(nn.sub(p["a"], p["b"])))),
        "mul": build(two, lambda p: nn.sum_(nn.tanh(nn.mul(p["a"], p["b"])))),
        "matmul": build(
            {"a": (4, 6), "b": (6, 3)},
            lambda p: nn.sum_(nn.tanh(nn.matmul(p["a"], p["b"]))),
        ),
        "matmul (stacked)": build(
            {"a": (2, 3, 4), "b": (2, 4, 3)},
            lambda p: nn.sum_(nn.tanh(nn.matmul(p["a"], p["b"]))),
        ),
        "tanh": build({"a": (4, 6)}, lambda p: nn.sum_(nn.mul(nn.tanh(p["a"]), nn.tanh(p["a"])))),
        "sigmoid": build({"a": (4, 6)}, lambda p: nn.sum_(nn.mul(nn.sigmoid(p["a"]), p["a"]))),
        "log": build(
            {"a": (4, 6)},
            lambda p: nn.sum_(nn.log(nn.sigmoid(p["a"]) + 1e-3)),
        ),
        "reshape": build(
            {"a": (4, 6)},
            lambda p: nn.sum_(nn.mul(nn.reshape(p["a"], (2, 12)), nn.tanh(nn.reshape(p["a"], (2, 12))))),
        ),
        "transpose": build(
            {"a": (4, 6)},
            lambda p: nn.sum_(nn.mul(nn.transpose(p["a"], (1, 0)), nn.sigmoid(nn.transpose(p["a"], (1, 0))))),
        ),
        "concat": build(
            {"a": (4, 3), "b": (4, 5)},
            lambda p: nn.sum_(nn.tanh(nn.concat([p["a"], p["b"]], axis=1))),
        ),
        "index": build(
            {"a": (5, 8)},
            lambda p: nn.sum_(nn.mul(p["a"][1:3, 2:6], p["a"][1:3, 2:6])),
        ),
        "sum": build(
            {"a": (4, 6)},
            lambda p: nn.sum_(nn.tanh(nn.sum_(p["a"], axis=0))),
        ),
        "softmax": build(
            two,
            lambda p: nn.sum_(nn.mul(nn.softmax(p["a"]), p["b"])),
        ),
        "masked softmax": build(
            two,
            lambda p: nn.sum_(nn.mul(nn.softmax(p["a"], mask=np.arange(24).reshape(4, 6) % 3 > 0), p["b"])),
        ),
        "embedding_lookup": build(
            {"table": (8, 5)},
            lambda p: nn.sum_(
                nn.mul(
                    nn.embedding_lookup(p["table"], np.array([1, 3, 3, 7, 0])),
                    nn.embedding_lookup(p["table"], np.array([1, 3, 3, 7, 0])),
                )
            ),
        ),
        "index (gather)": build(
            {"a": (5, 7)},
            lambda p: nn.sum_(nn.log(nn.softmax(p["a"])[np.arange(5), np.array([2, 0, 6, 1, 3])] + 1e-3)),
        ),
    }
    return checks


def test_criterion_01_gradient_correctness(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(2025)

    checked = []
    for name, builder in _primitive_checks().items():
        params, loss = builder(rng)
        finite_difference_check(params, loss, rng, n_coords=20, step=1e-5, rtol=1e-4)
        checked.append(name)

    # GRU cell: two chained steps, gradients through inputs and both states.
    params = {}
    init = nn.Rng(77)
    cell = gru_params(params, "gru", init, input_dim=5, hidden_dim=6)
    draw = np.random.default_rng(78)
    params["x0"] = nn.Tensor(draw.normal(size=(3, 5)))
    params["x1"] = nn.Tensor(draw.normal(size=(3, 5)))
    params["h0"] = nn.Tensor(draw.normal(size=(3, 6)))

    def gru_loss():
        hidden = gru_cell(params["x0"], params["h0"], cell)
        hidden = gru_cell(params["x1"], hidden, cell)
        return nn.sum_(nn.mul(hidden, hidden))

    finite_difference_check(params, gru_loss, rng, n_coords=24, step=1e-5, rtol=1e-4)
    checked.append("gru_cell")

    # GRU sequence: both directions in one call over a ragged mask, from a
    # non-zero initial state per direction; gradients through the embedding
    # table (ids repeat, within a row and across rows, so rows sum), the
    # initial state and every weight.
    params = {}
    directions = [gru_params(params, name, init, input_dim=5, hidden_dim=6) for name in ("fwd", "bwd")]
    params["table"] = nn.Tensor(draw.normal(size=(4, 5)))
    ids = np.array([[0, 1, 2, 3, 1, 0], [3, 3, 2, 0, 1, 2], [1, 0, 3, 2, 2, 1]])
    mask = np.array([[1.0] * n + [0.0] * (6 - n) for n in (6, 3, 1)])
    weights = nn.Tensor(draw.normal(size=(3, 6, 12)))
    params["h0"] = nn.Tensor(draw.normal(size=(3, 12)))

    def sequence_loss():
        states = nn.gru_sequence(params["table"], ids, mask, params["h0"], directions)
        return nn.sum_(nn.tanh(nn.mul(states, weights)))

    finite_difference_check(params, sequence_loss, rng, n_coords=24, step=1e-5, rtol=1e-4)
    checked.append("gru_sequence")

    # Full pipeline loss on a 2-example batch with the complete architecture.
    generate_synthetic_corpus(tmp_path / "data", seed=7, n_docs=5, lemmas_per_doc=4)
    documents = load_directory(tmp_path / "data")
    ids = sorted(documents)
    split = DatasetSplit(train=tuple(ids[:3]), validation=(ids[3],), test=(ids[4],))
    config = ModelConfig(
        inputs=INPUT_CONFIGS["stmt+ckt"],
        embed_dim=6,
        hidden_dim=8,
        max_input_len=96,
        max_output_len=8,
    )
    checkpoint, _ = train(documents, split, config, TrainingConfig(epochs=0, seed=2))
    model = float64_model(checkpoint)  # the float64 arithmetic train runs; its float32 twin is in test_model.py
    records = ordered_records(documents, split.train)[:2]
    finite_difference_check(
        model.parameters, lambda: model.loss(records), rng, n_coords=20, step=1e-5, rtol=1e-4
    )
    checked.append("full_loss")

    elapsed = time.monotonic() - start
    ok = elapsed < 60.0
    assert _verdict(
        "criterion 1 gradient correctness",
        ok,
        f"{len(checked)} graphs checked at 20+ coordinates each, rel err 1e-4, {elapsed:.1f}s (budget 60s)",
    )


# ------------------------------------- criterion 2: overfit memorization


def test_criterion_02_overfit_memorization(bundled_run):
    start = time.monotonic()
    train_records = ordered_records(bundled_run.documents, bundled_run.split.train)
    hits = 0
    for record in train_records:
        suggestions = bundled_run.model.suggest(record, 1)
        hits += bool(suggestions) and suggestions[0].name == record.name
    top1 = hits / len(train_records)
    elapsed = bundled_run.train_seconds + (time.monotonic() - start)
    ok = top1 >= 0.90 and bundled_run.epochs <= 300 and elapsed < 900.0
    assert _verdict(
        "criterion 2 overfit memorization",
        ok,
        f"train top-1 {top1:.3f} over {len(train_records)} lemmas "
        f"({bundled_run.epochs} epochs, need >= 0.90, {elapsed:.0f}s of 900s)",
    )


# ---------------------------------- criterion 3: copy-mechanism efficacy


def test_criterion_03_copy_mechanism_efficacy(tmp_path):
    start = time.monotonic()
    validation_ops = ("alpha", "beta", "gamma", "delta", "sigma", "lambda", "micro", "nano")
    fresh_ops = ("frob", "blip", "quux", "zeta", "iota", "omega", "theta", "kappa")
    generate_synthetic_corpus(tmp_path / "train", seed=21, n_docs=10, lemmas_per_doc=10)
    generate_synthetic_corpus(
        tmp_path / "val", seed=23, n_docs=1, lemmas_per_doc=10, operations=validation_ops
    )
    generate_synthetic_corpus(
        tmp_path / "test", seed=22, n_docs=2, lemmas_per_doc=10, operations=fresh_ops
    )
    documents = {}
    for part in ("train", "val", "test"):
        for doc_id, records in load_directory(tmp_path / part).items():
            documents[f"{part}/{doc_id}"] = records

    def part_ids(prefix):
        return tuple(sorted(d for d in documents if d.startswith(prefix)))

    split = DatasetSplit(
        train=part_ids("train/"), validation=part_ids("val/"), test=part_ids("test/")
    )
    test_records = ordered_records(documents, split.test)
    hyper = TrainingConfig(
        epochs=80, batch_size=16, seed=0, learning_rate=3e-3, output_min_frequency=14
    )

    def run(use_copy: bool):
        config = ModelConfig(
            inputs=INPUT_CONFIGS["stmt+ckt"],
            embed_dim=32,
            hidden_dim=64,
            max_input_len=128,
            use_copy=use_copy,
        )
        checkpoint, _ = train(documents, split, config, hyper)
        model = checkpoint.to_model()
        hits = sum(
            bool(s) and s[0].name == record.name
            for record, s in ((r, model.suggest(r, 1)) for r in test_records)
        )
        return checkpoint, hits / len(test_records)

    copy_ckpt, copy_top1 = run(use_copy=True)
    plain_ckpt, plain_top1 = run(use_copy=False)

    # Experiment premise: identical output vocabularies, and every test name
    # needs at least one sub-token that only the statement can provide.
    assert copy_ckpt.vocabularies["output"].texts == plain_ckpt.vocabularies["output"].texts
    generable = set(copy_ckpt.vocabularies["output"].texts)
    for record in test_records:
        name_parts = stream_subtoken_texts(record, "name")
        statement_parts = set(stream_subtoken_texts(record, "statement"))
        assert any(
            part not in generable and part in statement_parts for part in name_parts
        ), f"test lemma {record.name} is generable without copying"

    elapsed = time.monotonic() - start
    ok = copy_top1 >= 0.80 and plain_top1 <= 0.20 and elapsed < 1200.0
    assert _verdict(
        "criterion 3 copy-mechanism efficacy",
        ok,
        f"out-of-vocabulary test top-1: copy {copy_top1:.3f} (need >= 0.80) vs "
        f"no-copy {plain_top1:.3f} (need <= 0.20), {elapsed:.0f}s of 1200s",
    )


# ------------------------------------- criterion 4: model beats retrieval


def test_criterion_04_model_beats_retrieval(bundled_run):
    start = time.monotonic()
    train_records = ordered_records(bundled_run.documents, bundled_run.split.train)
    test_records = ordered_records(bundled_run.documents, bundled_run.split.test)
    train_names = {record.name for record in train_records}
    reused = sum(record.name in train_names for record in test_records)

    model_report = evaluate(bundled_run.model, test_records, k=5)
    baseline = RetrievalBaseline(train_records)
    baseline_report = evaluate(baseline, test_records, k=5)
    gap = model_report.top1 - baseline_report.top1

    elapsed = bundled_run.train_seconds + (time.monotonic() - start)
    ok = gap >= 0.15 and elapsed < 1200.0
    assert _verdict(
        "criterion 4 model beats retrieval",
        ok,
        f"held-out top-1: model {model_report.top1:.3f} vs retrieval "
        f"{baseline_report.top1:.3f} (gap {gap:.3f}, need >= 0.15; "
        f"{reused} of {len(test_records)} test names reused from train), "
        f"{elapsed:.0f}s of 1200s",
    )


# --------------------------------------------- criterion 5: metric oracles


def _brute_bleu(candidate, reference):
    """Exhaustive-enumeration BLEU-4: greedy one-to-one n-gram matching."""
    candidate = list(candidate)
    reference = list(reference)
    if not candidate:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        cand_grams = [tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1)]
        ref_grams = [tuple(reference[i : i + n]) for i in range(len(reference) - n + 1)]
        used = [False] * len(ref_grams)
        matched = 0
        for gram in cand_grams:
            for j, other in enumerate(ref_grams):
                if not used[j] and other == gram:
                    used[j] = True
                    matched += 1
                    break
        total = len(cand_grams)
        if n == 1:
            if matched == 0:
                return 0.0
        elif matched == 0:
            matched, total = 1, total + 1
        log_sum += 0.25 * math.log(matched / total)
    brevity = 1.0
    if len(candidate) < len(reference):
        brevity = math.exp(1.0 - len(reference) / len(candidate))
    return brevity * math.exp(log_sum)


def _brute_fragment(candidate: str, reference: str) -> float:
    cand = [piece for piece in candidate.split("_") if piece]
    ref = [piece for piece in reference.split("_") if piece]
    hits = sum(1 for i in range(min(len(cand), len(ref))) if cand[i] == ref[i])
    return hits / max(len(cand), len(ref))


def test_criterion_05_metric_oracles():
    start = time.monotonic()
    rng = random.Random(515)
    alphabet = ["mg", "eq", "mul", "add", "inv", "g", "A", "C", "_", "x"]
    fragments = ["mg", "eq", "mulg", "addA", "invC", "extprod", "x1"]

    for _ in range(200):
        reference = [rng.choice(alphabet) for _ in range(rng.randrange(1, 9))]
        candidate = [rng.choice(alphabet) for _ in range(rng.randrange(0, 9))]
        fast = bleu4(candidate, reference)
        slow = _brute_bleu(candidate, reference)
        assert abs(fast - slow) < 1e-9, (candidate, reference, fast, slow)

        left = "_".join(rng.choice(fragments) for _ in range(rng.randrange(1, 5)))
        right = "_".join(rng.choice(fragments) for _ in range(rng.randrange(1, 5)))
        fast = fragment_accuracy(left, right)
        slow = _brute_fragment(left, right)
        assert abs(fast - slow) < 1e-9, (left, right, fast, slow)

    goldens_exact = (
        bleu4(*GOLDEN_BLEU_PREFIX_CASE) == GOLDEN_BLEU_PREFIX
        and fragment_accuracy(*GOLDEN_FRAGMENT_SUFFIX_SWAP_CASE) == GOLDEN_FRAGMENT_SUFFIX_SWAP
        and fragment_accuracy(*GOLDEN_FRAGMENT_SPLIT_DISAGREEMENT_CASE)
        == GOLDEN_FRAGMENT_SPLIT_DISAGREEMENT
    )
    elapsed = time.monotonic() - start
    ok = goldens_exact and elapsed < 10.0
    assert _verdict(
        "criterion 5 metric oracles",
        ok,
        f"200 random pairs within 1e-9 of brute force, goldens exact: "
        f"{goldens_exact}, {elapsed:.1f}s of 10s",
    )


# -------------------------------------- criterion 6: sub-tokenizer fidelity


def test_criterion_06_subtokenizer_fidelity():
    start = time.monotonic()
    first = subtokenize_name("extprod_mulgA")
    second = subtokenize_name("mg_eq_nerode")
    assert first == ["extprod", "_", "mul", "g", "A"]
    assert second == ["mg", "_", "eq", "_", "nerode"]

    rng = random.Random(606)
    body = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_'"
    head = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
    for _ in range(10_000):
        name = rng.choice(head) + "".join(
            rng.choice(body) for _ in range(rng.randrange(0, 14))
        )
        assert "".join(subtokenize_name(name)) == name

    elapsed = time.monotonic() - start
    ok = elapsed < 10.0
    assert _verdict(
        "criterion 6 sub-tokenizer fidelity",
        ok,
        f"both worked examples exact, 10000 random identifiers round-trip, "
        f"{elapsed:.1f}s of 10s",
    )


# ------------------------------------------- criterion 7: chopping laws


_TREE_LEAVES = ["a", "b", "x", "f", "1", "line", "Id", "CRef", "App"]
_TREE_HEADS = _TREE_LEAVES + ["loc", "Qualid", "Ser_Qualid", "DirPath"]


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(_TREE_LEAVES)
    head = rng.choice(_TREE_HEADS)
    children = [_random_tree(rng, depth - 1) for _ in range(rng.randrange(0, 4))]
    if head in ("Qualid", "Ser_Qualid", "DirPath"):
        # Qualified-name nodes must stay well formed so collapse never raises.
        children.append(("Id", rng.choice(_TREE_LEAVES)))
    return tuple([head] + children)


def _tree_size(tree):
    if isinstance(tree, str):
        return 1
    return 1 + sum(_tree_size(child) for child in tree)


def _no_singleton_lists(tree):
    if isinstance(tree, str):
        return True
    if len(tree) == 1:
        return False
    return all(_no_singleton_lists(child) for child in tree)


def test_criterion_07_chopping_laws():
    start = time.monotonic()
    config = ChopConfig()
    trees = []
    for records in load_directory(bundled_corpus_dir()).values():
        for record in records:
            trees.append(record.syntax_tree)
            trees.append(record.kernel_tree)
    bundled_count = len(trees)
    rng = random.Random(4242)
    trees.extend(_random_tree(rng, depth=8) for _ in range(1000))

    for tree in trees:
        chopped = chop(tree, config)
        assert chop(chopped, config) == chopped, "chop is not idempotent"
        assert _tree_size(chopped) <= _tree_size(tree), "chop grew the tree"
        assert _no_singleton_lists(chopped), "singleton list survived chopping"

    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    assert _verdict(
        "criterion 7 chopping laws",
        ok,
        f"idempotent, size-monotone, singleton-free on {bundled_count} bundled "
        f"trees + 1000 random trees, {elapsed:.1f}s of 30s",
    )


# ---------------------------------------------- criterion 8: determinism


def test_criterion_08_determinism(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert (
        main(["gen_corpus", "--out", str(data_dir), "--seed", "5", "--docs", "10", "--lemmas-per-doc", "4"])
        == 0
    )
    capsys.readouterr()

    artifacts = {}
    for tag in ("one", "two"):
        checkpoint = tmp_path / f"{tag}.ckpt"
        log = tmp_path / f"{tag}.log"
        report = tmp_path / f"{tag}.jsonl"
        assert (
            main(
                [
                    "train",
                    "--data", str(data_dir),
                    "--out", str(checkpoint),
                    "--log", str(log),
                    "--epochs", "5",
                    "--embed-dim", "16",
                    "--hidden-dim", "16",
                    "--batch-size", "8",
                    "--seed", "0",
                    "--split-seed", "0",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "evaluate",
                    "--data", str(data_dir),
                    "--model", str(checkpoint),
                    "--report", str(report),
                    "--split-seed", "0",
                ]
            )
            == 0
        )
        artifacts[tag] = (
            checkpoint.read_bytes(),
            log.read_bytes(),
            report.read_bytes(),
            capsys.readouterr().out,
        )

    same_checkpoint = artifacts["one"][0] == artifacts["two"][0]
    same_log = artifacts["one"][1] == artifacts["two"][1]
    same_report = artifacts["one"][2] == artifacts["two"][2]
    same_stdout = artifacts["one"][3] == artifacts["two"][3]
    ok = same_checkpoint and same_log and same_report and same_stdout
    assert _verdict(
        "criterion 8 determinism",
        ok,
        f"two seeded train+evaluate runs: checkpoint bytes equal {same_checkpoint}, "
        f"epoch logs equal {same_log}, reports equal {same_report}, "
        f"evaluate output equal {same_stdout}",
    )


# --------------------------------------------- criterion 9: end-to-end CLI


def test_criterion_09_end_to_end_cli(cli_env, capsys):
    clean_code = main(
        ["suggest_naming", "--file", str(cli_env.clean_file), "--model", str(cli_env.checkpoint_path)]
    )
    clean_out = capsys.readouterr().out
    planted_code = main(
        ["suggest_naming", "--file", str(cli_env.planted_file), "--model", str(cli_env.checkpoint_path)]
    )
    planted_out = capsys.readouterr().out

    row_lines = [
        line for line in planted_out.splitlines() if re.match(r"^\S+:\d+  \S+$", line)
    ]
    ranks = [
        int(match.group(1))
        for match in (re.match(r"^    (\d+)\. \S+  -?\d+\.\d{4}$", line) for line in planted_out.splitlines())
        if match
    ]
    ok = (
        clean_code == 0
        and "all 5 lemma names conform" in clean_out
        and planted_code == 1
        and len(row_lines) == 1
        and row_lines[0].endswith(f"  {cli_env.planted_name}")
        and ranks == [1, 2, 3, 4, 5]
    )
    assert _verdict(
        "criterion 9 end-to-end CLI",
        ok,
        f"clean file exit {clean_code}, planted file exit {planted_code}, "
        f"{len(row_lines)} flagged lemma(s), suggestion ranks {ranks}",
    )


# -------------------------------------- criterion 10: server conformance


def test_criterion_10_server_conformance(cli_env):
    from lemname.cli import ToolConfig

    uri = cli_env.planted_file.as_uri()
    requests = BytesIO()
    write_message(requests, {"jsonrpc": "2.0", "id": 0, "method": "initialize", "params": {}})
    write_message(requests, {"jsonrpc": "2.0", "id": 1, "method": SUGGEST_METHOD, "params": {"uri": uri}})
    write_message(requests, {"jsonrpc": "2.0", "id": 2, "method": "shutdown"})
    write_message(requests, {"jsonrpc": "2.0", "method": "exit"})
    requests.seek(0)
    output = BytesIO()
    code = serve(requests, output, ToolConfig(model_path=str(cli_env.checkpoint_path)))
    assert code == 0

    # Expected responses derived from the CLI's own structured report.
    report = build_suggestion_report(cli_env.model, str(cli_env.planted_file), 5)
    diagnostics = [
        {
            "file": row.file,
            "line": row.line,
            "range": [0, len(row.name)],
            "severity": SEVERITY_INFORMATION,
            "message": "name does not conform; suggestions: "
            + ", ".join(s.name for s in row.suggestions),
            "data": [{"name": s.name, "score": s.score} for s in row.suggestions],
        }
        for row in report.nonconforming
    ]
    expected = BytesIO()
    write_message(
        expected,
        {
            "jsonrpc": "2.0",
            "id": 0,
            "result": {
                "capabilities": {"suggestNamingProvider": True},
                "serverInfo": {"name": "lemname", "version": __version__},
            },
        },
    )
    write_message(expected, {"jsonrpc": "2.0", "id": 1, "result": diagnostics})
    write_message(expected, {"jsonrpc": "2.0", "id": 2, "result": None})

    matches = output.getvalue() == expected.getvalue()
    ok = matches and len(diagnostics) == 1
    assert _verdict(
        "criterion 10 server conformance",
        ok,
        f"framed transcript bytes equal expected: {matches}; "
        f"{len(diagnostics)} diagnostic derived from the CLI report",
    )
