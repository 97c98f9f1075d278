import os

# Keep BLAS single-threaded before numpy loads: deterministic timings and
# no thread-pool overhead on the small matrices used here.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from types import SimpleNamespace

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and have no per-example
# time limit, so tier-1 stays deterministic and its duration bounded.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def cli_env(tmp_path_factory):
    """A small corpus, an overfit checkpoint, and clean/planted fixture files.

    The model memorizes the training documents (asserted below), so every
    lemma in a training document conforms at rank 1, and a single renamed
    lemma is the only non-conforming entry of the planted file.
    """
    from lemname.corpus import (
        DatasetSplit,
        generate_synthetic_corpus,
        load_directory,
        ordered_records,
    )
    from lemname.model import INPUT_CONFIGS, ModelConfig, TrainingConfig, save_checkpoint, train

    root = tmp_path_factory.mktemp("cli_env")
    data_dir = root / "data"
    generate_synthetic_corpus(data_dir, seed=11, n_docs=5, lemmas_per_doc=5)
    documents = load_directory(data_dir)
    doc_ids = sorted(documents)
    split = DatasetSplit(train=tuple(doc_ids[:3]), validation=(doc_ids[3],), test=(doc_ids[4],))

    config = ModelConfig(
        inputs=INPUT_CONFIGS["stmt+ckt"], embed_dim=24, hidden_dim=32, max_input_len=96
    )
    hyper = TrainingConfig(epochs=150, batch_size=8, seed=0, learning_rate=5e-3)
    checkpoint, _ = train(documents, split, config, hyper)
    model = checkpoint.to_model()
    train_records = ordered_records(documents, split.train)
    names = [best[0].name for best in model.suggest_many(train_records, 1)]
    top1 = sum(n == r.name for n, r in zip(names, train_records)) / len(train_records)
    assert top1 == 1.0, f"fixture model failed to memorize its training set (top1={top1})"

    checkpoint_path = root / "model.ckpt"
    save_checkpoint(checkpoint_path, checkpoint)

    clean_file = data_dir / doc_ids[0]
    planted_name = "zzz_bogus"
    original_name = documents[doc_ids[0]][0].name
    planted_text = clean_file.read_text(encoding="utf-8").replace(
        f"(name {original_name})", f"(name {planted_name})", 1
    )
    planted_file = root / "planted.lemmas.sexp"
    planted_file.write_text(planted_text, encoding="utf-8")

    return SimpleNamespace(
        root=root,
        data_dir=data_dir,
        documents=documents,
        split=split,
        checkpoint_path=checkpoint_path,
        model=model,
        clean_file=clean_file,
        planted_file=planted_file,
        planted_name=planted_name,
        replaced_name=original_name,
    )


@pytest.fixture
def lemma_file(tmp_path):
    """Write a one-lemma document whose kernel tree is the given text."""

    def write(kernel_tree: str):
        path = tmp_path / "one.lemmas.sexp"
        path.write_text(
            "(lemma (name one_lemma) (path (synth one)) (line 1)"
            f" (stmt (forall x , x = x)) (cst (Id x)) (ckt {kernel_tree}))\n",
            encoding="utf-8",
        )
        return path

    return write


@pytest.fixture
def deep_lemma_file(lemma_file):
    """A lemma whose kernel tree is nested 100,000 levels deep."""
    depth = 100_000
    return lemma_file("(App " * depth + "(Rel 1)" + " (Rel 1))" * depth)
