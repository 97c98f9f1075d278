"""Print the digests that show whether a change moves any arithmetic.

Run it from the repository root at two commits and compare the outputs:

    python tests/identity_digest.py > before.txt    # at the parent
    python tests/identity_digest.py > after.txt     # at the change
    diff before.txt after.txt

Its output at the current commit is committed as
`tests/identity_digest.golden.txt`, which `tests/test_golden.py` compares
in tier-1. A change that moves the arithmetic on purpose regenerates that
file with this script's stdout:

    python tests/identity_digest.py > tests/identity_digest.golden.txt

It prints, one line each:

- a header of lines starting with `#`: the numpy version, the BLAS
  build and the SIMD extensions numpy found, and the BLAS thread
  variables; the digests hold only for that build and thread count;
- beside each checkpoint sha256, the sha256 of its parameter blocks
  alone (in name order, as little-endian float64), so a change to the
  header's format moves only the `checkpoint` lines and a change to the
  arithmetic moves the `parameters` lines too;
- the checkpoint sha256 and the `EpochMetrics` reprs of the benchmark's
  `train` recipe at seeds 1 and 2 (four corpora per seed);
- the checkpoint sha256 of the benchmark's `serve` model, and the
  sha256 of its k = 1 and k = 5 suggestions on the seed-1
  request files, decoded a file at a time as the server does, with
  scores written as `float.hex`, and of the suggested names alone; one
  line each for the one-lemma files, whose lemmas decode alone, and for
  the other files; and the sha256 of the server's output for one
  session on that model (initialize, one `roosterize/suggestNaming` on
  a 20-lemma request file, shutdown, exit);
- the checkpoint sha256 and `EpochMetrics` of the default configuration
  (`ModelConfig()`, `TrainingConfig(epochs=2)`) on the bundled corpus;
- the checkpoint sha256 and `EpochMetrics` of a recipe whose validation
  top-1 is above zero in most epochs, so a change to how validation
  counts hits shows in the kept checkpoint and the metrics.
- the sha256 of `record_texts` (the three input streams and the name)
  of every record of the bundled corpus and of the seed-1 corpus of the
  benchmark's `baseline_eval`, whole and cut at 128 sub-tokens, so a
  change to parsing, chopping or sub-tokenizing shows; and the sha256 of
  the `evaluate --baseline` report that `baseline_eval` checks on that
  corpus, and of the `evaluate --model` report of the `serve` model on
  it at k = 5.

The recipes come from `perfbench/workloads.py`. BLAS runs on one thread,
as in the benchmark and the tests: checkpoint bytes can depend on the
thread count. pytest does not collect this file. It runs in about 10 s.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARIABLES:
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from lemname import cli as lcli  # noqa: E402
from lemname import chop as lchop  # noqa: E402
from lemname import corpus as lcorpus  # noqa: E402
from lemname import diagserver as ldiag  # noqa: E402
from lemname import model as lmodel  # noqa: E402
from lemname import subtok as lsubtok  # noqa: E402

import workloads  # noqa: E402

TRAIN_SEEDS = (1, 2)
SERVE_SEED = 1
SERVE_KS = (1, 5)
BASELINE_SEED = 1
PREPROCESS_LIMITS = (None, 128)


def build_header() -> None:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    print(f"# numpy {np.__version__}")
    print(f"# blas {blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', 'no configuration')})")
    print(f"# simd {' '.join(config['SIMD Extensions']['found'])}")
    print(f"# threads {' '.join(f'{name}={os.environ[name]}' for name in THREAD_VARIABLES)}")


def checkpoint_sha256(checkpoint, workdir: Path) -> str:
    path = workdir / "digest.ckpt"
    lmodel.save_checkpoint(path, checkpoint)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parameters_sha256(parameter_state: dict) -> str:
    """sha256 of the parameter blocks in name order, as little-endian float64: the checkpoint without its header."""
    digest = hashlib.sha256()
    for name in sorted(parameter_state):
        digest.update(np.ascontiguousarray(parameter_state[name], dtype="<f8").tobytes())
    return digest.hexdigest()


def trained(label: str, checkpoint, metrics, workdir: Path) -> None:
    print(f"{label} checkpoint {checkpoint_sha256(checkpoint, workdir)}")
    print(f"{label} parameters {parameters_sha256(checkpoint.parameter_state)}")
    print(f"{label} metrics {metrics!r}")


def train_recipe(workdir: Path) -> None:
    for seed in TRAIN_SEEDS:
        workload = workloads.TrainWorkload(workloads.Plan(), seed, workdir / f"train{seed}")
        workload.workdir.mkdir()
        workload.setup()
        for part, (documents, split) in enumerate(workload.corpora):
            checkpoint, metrics = lmodel.train(documents, split, workload.config, workload.training)
            trained(f"train seed {seed} corpus {part}", checkpoint, metrics, workdir)


def serve_recipe(workdir: Path) -> Path:
    """Print the serve digests and return the served checkpoint."""
    workload = workloads.ServeWorkload(workloads.Plan(), SERVE_SEED, workdir / "serve")
    workload.workdir.mkdir()
    try:
        workload.setup()  # trains the model and starts a server, which is not used here
    finally:
        workload.close()
    print(f"serve checkpoint {hashlib.sha256(workload.checkpoint.read_bytes()).hexdigest()}")
    checkpoint = lmodel.load_checkpoint(workload.checkpoint)
    print(f"serve parameters {parameters_sha256(checkpoint.parameter_state)}")
    model = checkpoint.to_model()
    groups = {"one-lemma files": [], "other files": []}
    for size, files in zip(workload.plan.serve_file_sizes, workload.by_size):
        groups["one-lemma files" if size == 1 else "other files"].extend(files)
    for k in SERVE_KS:
        for label, paths in groups.items():
            digest, names = hashlib.sha256(), hashlib.sha256()
            lemmas = 0
            for path in paths:
                for row in lcli.build_suggestion_report(model, path, k).rows:
                    lemmas += 1
                    where = f"{path.relative_to(workload.workdir)} {row.name}"
                    scored = " ".join(f"{s.name}:{float.hex(s.score)}" for s in row.suggestions)
                    digest.update(f"{where} {scored}\n".encode())
                    names.update(f"{where} {' '.join(s.name for s in row.suggestions)}\n".encode())
            print(f"serve seed {SERVE_SEED} k={k} {label}: suggestions of {lemmas} lemmas {digest.hexdigest()}")
            print(f"serve seed {SERVE_SEED} k={k} {label}: names of {lemmas} lemmas {names.hexdigest()}")
    path = workload.by_size[-1][0]
    requests, replies = io.BytesIO(), io.BytesIO()
    for message in (
        {"jsonrpc": "2.0", "id": 0, "method": "initialize", "params": {}},
        {"jsonrpc": "2.0", "id": 1, "method": ldiag.SUGGEST_METHOD, "params": {"uri": path.as_uri()}},
        {"jsonrpc": "2.0", "id": 2, "method": "shutdown"},
        {"jsonrpc": "2.0", "method": "exit"},
    ):
        ldiag.write_message(requests, message)
    requests.seek(0)
    ldiag.serve(requests, replies, lcli.ToolConfig(model_path=str(workload.checkpoint)))
    transcript = replies.getvalue()
    print(
        f"serve seed {SERVE_SEED} transcript of {path.relative_to(workload.workdir)}: "
        f"{len(transcript)} bytes {hashlib.sha256(transcript).hexdigest()}"
    )
    return workload.checkpoint


def default_recipe(workdir: Path) -> None:
    documents = lcorpus.load_directory(lcorpus.bundled_corpus_dir())
    split = lcorpus.split_corpus(sorted(documents), seed=0)
    checkpoint, metrics = lmodel.train(documents, split, lmodel.ModelConfig(), lmodel.TrainingConfig(epochs=2))
    trained("default config bundled corpus", checkpoint, metrics, workdir)


def hits_recipe(workdir: Path) -> None:
    data = workdir / "hits"
    lcorpus.generate_synthetic_corpus(data, seed=12, n_docs=5, lemmas_per_doc=5)
    documents = lcorpus.load_directory(data)
    doc_ids = sorted(documents)
    split = lcorpus.DatasetSplit(train=tuple(doc_ids[:3]), validation=(doc_ids[3],), test=(doc_ids[4],))
    config = lmodel.ModelConfig(
        inputs=lmodel.INPUT_CONFIGS["stmt+ckt"], embed_dim=32, hidden_dim=64, max_input_len=128
    )
    training = lmodel.TrainingConfig(epochs=60, batch_size=8, learning_rate=1e-2)
    checkpoint, metrics = lmodel.train(documents, split, config, training)
    trained("validation hits", checkpoint, metrics, workdir)


def preprocess_recipe(workdir: Path, serve_checkpoint: Path) -> None:
    workload = workloads.BaselineWorkload(workloads.Plan(), BASELINE_SEED, workdir / "baseline")
    workload.workdir.mkdir()
    workload.setup()
    streams = (*lcorpus.INPUT_STREAMS, lcorpus.STREAM_NAME)
    corpora = {"bundled corpus": lcorpus.bundled_corpus_dir(), f"baseline_eval seed {BASELINE_SEED}": workload.data}
    for label, data in corpora.items():
        documents = lcorpus.load_directory(data)
        records = lcorpus.ordered_records(documents, documents)
        digest = hashlib.sha256()
        for record in records:
            for limit in PREPROCESS_LIMITS:
                texts = lcorpus.record_texts(record, streams, lchop.ChopConfig(), lsubtok.DEFAULT_LEXICON, limit)
                digest.update(json.dumps([limit, texts], ensure_ascii=False).encode() + b"\n")
        print(f"{label}: record_texts of {len(records)} records {digest.hexdigest()}")
    workload.op(0, 0)  # one evaluate --baseline run, checked as the benchmark checks it
    report = workload.report.read_bytes()
    print(
        f"baseline_eval seed {BASELINE_SEED} evaluate --baseline report: "
        f"{len(report)} bytes {hashlib.sha256(report).hexdigest()}"
    )
    argv = ["evaluate", "--data", str(workload.data), "--model", str(serve_checkpoint), "-k", "5"]
    argv += ["--project", str(workload.workdir), "--report", str(workload.report)]
    with redirect_stdout(io.StringIO()):
        code = lcli.main(argv)
    report = workload.report.read_bytes()
    print(
        f"baseline_eval seed {BASELINE_SEED} evaluate --model report of the serve model: "
        f"exit {code}, {len(report)} bytes {hashlib.sha256(report).hexdigest()}"
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        workdir = Path(scratch)
        build_header()
        train_recipe(workdir)
        serve_checkpoint = serve_recipe(workdir)
        default_recipe(workdir)
        hits_recipe(workdir)
        preprocess_recipe(workdir, serve_checkpoint)


if __name__ == "__main__":
    main()
