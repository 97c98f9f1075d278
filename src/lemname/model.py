"""Multi-input encoder-decoder that learns lemma naming conventions.

Each enabled input stream (statement tokens, chopped syntax tree, chopped
kernel tree) runs through its own bidirectional GRU encoder; the final
states are fused by one affine+tanh layer into the decoder's initial
state. The GRU decoder emits name sub-tokens with multiplicative
attention over every encoder position and a pointer-generator gate that
mixes generating from the output vocabulary with copying source
sub-tokens, so rare identifiers can be produced verbatim. Every GRU runs
through nn.gru_sequence: the decoder GRU never reads the attention
context, so the teacher-forced loss is one decoder pass over all target
steps, and beam search runs the same decoder one graph-free step at a time.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .chop import ChopConfig
from .corpus import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    Vocabulary,
    build_vocabulary,
    ordered_records,
    stream_subtoken_texts,
)
from .subtok import DEFAULT_LEXICON, SuffixLexicon
from .nn import (
    AdamState,
    Parameters,
    Rng,
    ShapeMismatch,
    Tensor,
    adam_step,
    backward,
    bmm,
    checked,
    concat,
    div,
    embedding_init,
    embedding_lookup,
    exp,
    gather_index,
    gru_params,
    gru_sequence,
    linear_init,
    log,
    matmul,
    neg,
    reshape,
    sigmoid,
    softmax,
    sum_,
    tanh,
    transpose,
)

STREAM_STATEMENT = "statement"
STREAM_SYNTAX = "chopped_syntax_tree"
STREAM_KERNEL = "chopped_kernel_tree"
ALL_STREAMS = (STREAM_STATEMENT, STREAM_SYNTAX, STREAM_KERNEL)

# Model stream name -> corpus stream name (chopping happens in corpus).
CORPUS_STREAM_OF = {
    STREAM_STATEMENT: "statement",
    STREAM_SYNTAX: "syntax_tree",
    STREAM_KERNEL: "kernel_tree",
}

# The input combinations exposed by the command line.
INPUT_CONFIGS = {
    "stmt": (STREAM_STATEMENT,),
    "stmt+cst": (STREAM_STATEMENT, STREAM_SYNTAX),
    "stmt+ckt": (STREAM_STATEMENT, STREAM_KERNEL),
    "cst+ckt": (STREAM_SYNTAX, STREAM_KERNEL),
    "stmt+cst+ckt": (STREAM_STATEMENT, STREAM_SYNTAX, STREAM_KERNEL),
}
DEFAULT_INPUT_CONFIG = "stmt+ckt"

CHECKPOINT_MAGIC = b"LNCK"
CHECKPOINT_VERSION = 1

_LOG_FLOOR = 1e-12  # keeps -log finite when a target is neither generable nor copyable
# Records per beam search. A search holds every record's encoder states,
# so larger inputs (a whole test set) decode in groups of this size.
_DECODE_GROUP = 32


class EmptyStream(Exception):
    """A record produced zero sub-tokens for an enabled stream."""

    def __init__(self, stream: str):
        super().__init__(f"record has no sub-tokens for stream {stream!r}")
        self.stream = stream


class EmptyTrainingSet(Exception):
    pass


class VersionMismatch(Exception):
    def __init__(self, found: int, supported: int):
        super().__init__(f"checkpoint format version {found}, supported {supported}")
        self.found = found
        self.supported = supported


class CorruptCheckpoint(Exception):
    pass


@dataclass(frozen=True)
class ModelConfig:
    inputs: tuple = (STREAM_STATEMENT, STREAM_KERNEL)
    embed_dim: int = 64
    hidden_dim: int = 128
    bidirectional: bool = True
    use_attention: bool = True
    use_copy: bool = True
    max_input_len: int = 512
    max_output_len: int = 16
    beam_width: int = 5

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if not self.inputs:
            raise ValueError("at least one input stream is required")
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError(f"duplicate input streams: {self.inputs}")
        for stream in self.inputs:
            if stream not in ALL_STREAMS:
                raise ValueError(f"unknown input stream: {stream!r}")
        for name in ("embed_dim", "hidden_dim", "max_input_len", "max_output_len", "beam_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.bidirectional and self.hidden_dim % 2:
            raise ValueError("bidirectional encoders need an even hidden_dim")
        if self.use_copy and not self.use_attention:
            raise ValueError("the copy mechanism requires attention")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**{**data, "inputs": tuple(data["inputs"])})


@dataclass
class TrainingConfig:
    epochs: int
    learning_rate: float = 1e-3
    batch_size: int = 32
    seed: int = 0
    min_frequency: int = 1
    output_min_frequency: int | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")


@dataclass(frozen=True)
class Suggestion:
    """One ranked name: score is length-normalized log-probability."""

    name: str
    score: float
    sub_tokens: tuple


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    validation_top1: float


@dataclass(frozen=True)
class PreparedRecord:
    """One record chopped, sub-tokenized and mapped to this model's ids.

    The extended vocabulary is the output vocabulary followed by the
    record's source texts that it lacks, numbered in order of first use.
    """

    stream_ids: dict  # stream -> (T,) input-vocabulary ids, truncated to max_input_len
    source_texts: tuple  # length S, the truncated texts of every stream, concatenated
    oov_texts: tuple  # source texts absent from the output vocabulary
    source_ext_ids: np.ndarray  # (S,) extended-vocabulary id per source position
    target_ext_ids: np.ndarray  # truncated name; -1 where neither generable nor copyable


@dataclass
class _Batch:
    hidden: Tensor  # (B, S, H) encoder states of every stream, concatenated
    mask: np.ndarray  # (B, S), 1 at real positions
    source_ext_ids: np.ndarray  # (B, S), PAD_ID at padding
    state: Tensor  # (B, H) the decoder's initial state


def record_texts(record, inputs, chop_config: ChopConfig, lexicon) -> dict:
    """Untruncated sub-token texts of the enabled streams, and of the name as "output"."""
    texts = {
        stream: stream_subtoken_texts(record, CORPUS_STREAM_OF[stream], chop_config, lexicon)
        for stream in inputs
    }
    texts["output"] = stream_subtoken_texts(record, "name", lexicon=lexicon)
    return texts


class LemmaNameModel:
    """Encoder-decoder over a fixed set of vocabularies and parameters."""

    def __init__(
        self,
        config: ModelConfig,
        chop_config: ChopConfig,
        lexicon,
        vocabularies: dict,
        seed: int = 0,
        parameter_state: dict | None = None,
    ):
        missing = [s for s in (*config.inputs, "output") if s not in vocabularies]
        if missing:
            raise ValueError(f"vocabularies missing entries: {missing}")
        self.config = config
        self.chop_config = chop_config
        self.lexicon = lexicon
        self.vocabularies = vocabularies
        self.parameters = Parameters()
        self._encoders: dict = {}
        self._build_parameters(Rng(seed))
        if parameter_state is not None:
            self.parameters.load_state(parameter_state)

    # ------------------------------------------------------------------ setup

    def _build_parameters(self, rng: Rng) -> None:
        cfg = self.config
        hidden = cfg.hidden_dim
        direction_dim = hidden // 2 if cfg.bidirectional else hidden
        for stream in cfg.inputs:
            vocab = self.vocabularies[stream]
            self.parameters.add(f"enc.{stream}.embed", embedding_init(rng, len(vocab), cfg.embed_dim))
            cells = {"fwd": gru_params(self.parameters, f"enc.{stream}.fwd", rng, cfg.embed_dim, direction_dim)}
            if cfg.bidirectional:
                cells["bwd"] = gru_params(self.parameters, f"enc.{stream}.bwd", rng, cfg.embed_dim, direction_dim)
            self._encoders[stream] = cells
        self.parameters.add("comb.w", linear_init(rng, len(cfg.inputs) * hidden, hidden))
        self.parameters.add("comb.b", np.zeros(hidden))
        out_vocab = self.vocabularies["output"]
        self.parameters.add("dec.embed", embedding_init(rng, len(out_vocab), cfg.embed_dim))
        self._decoder_cell = gru_params(self.parameters, "dec.gru", rng, cfg.embed_dim, hidden)
        if cfg.use_attention:
            self.parameters.add("attn.w", linear_init(rng, hidden, hidden))
            self.parameters.add("out.w_c", linear_init(rng, 2 * hidden, hidden))
        else:
            self.parameters.add("out.w_c", linear_init(rng, hidden, hidden))
        self.parameters.add("out.w", linear_init(rng, hidden, len(out_vocab)))
        self.parameters.add("out.b", np.zeros(len(out_vocab)))
        if cfg.use_copy:
            self.parameters.add("copy.w", linear_init(rng, 2 * hidden + cfg.embed_dim, 1))
            self.parameters.add("copy.b", np.zeros(1))

    # ------------------------------------------------------------ preprocessing

    def prepare(self, record, texts: dict | None = None) -> PreparedRecord:
        """Chop, sub-tokenize and encode one record for this model.

        `texts` may pass the record's `record_texts` when the caller has
        them already, so no record is sub-tokenized twice.
        """
        cfg = self.config
        texts = texts or record_texts(record, cfg.inputs, self.chop_config, self.lexicon)
        out_vocab = self.vocabularies["output"]
        stream_ids, source = {}, []
        for stream in cfg.inputs:
            seq = texts[stream][: cfg.max_input_len]
            if not seq:
                raise EmptyStream(stream)
            vocab = self.vocabularies[stream]
            stream_ids[stream] = np.array([vocab.encode(t) for t in seq], dtype=np.int64)
            source.extend(seq)
        oov_texts = tuple(dict.fromkeys(t for t in source if t not in out_vocab))
        copy_ids = {t: len(out_vocab) + i for i, t in enumerate(oov_texts)}

        def ext_ids(seq):
            ids = [out_vocab.encode(t) if t in out_vocab else copy_ids.get(t, -1) for t in seq]
            return np.array(ids, dtype=np.int64)

        return PreparedRecord(
            stream_ids=stream_ids,
            source_texts=tuple(source),
            oov_texts=oov_texts,
            source_ext_ids=ext_ids(source),
            target_ext_ids=ext_ids(texts["output"][: cfg.max_output_len]),
        )

    # ------------------------------------------------------------------ encoder

    def _encode(self, prepared, keep_graph: bool) -> _Batch:
        """Run the encoders over prepared records padded to one batch.

        Each direction of each stream is one gru_sequence call. Without
        keep_graph no activations are kept for backward, and the batch
        holds graph-free tensors.
        """
        cfg = self.config
        batch = len(prepared)
        starts = [0] * batch
        hidden_parts, mask_parts, ext_parts, finals = [], [], [], []
        for stream in cfg.inputs:
            length = max(len(p.stream_ids[stream]) for p in prepared)
            ids = np.full((batch, length), PAD_ID, dtype=np.int64)
            ext = np.full((batch, length), PAD_ID, dtype=np.int64)
            mask = np.zeros((batch, length))
            for b, p in enumerate(prepared):
                seq = p.stream_ids[stream]
                ids[b, : len(seq)] = seq
                ext[b, : len(seq)] = p.source_ext_ids[starts[b] : starts[b] + len(seq)]
                mask[b, : len(seq)] = 1.0
                starts[b] += len(seq)
            emb = embedding_lookup(self.parameters[f"enc.{stream}.embed"], ids)
            cells = self._encoders[stream]
            zero = Tensor(np.zeros((batch, cells["fwd"].w_h.shape[0])))
            # Padding carries the state, so the last (forward) and first
            # (backward) positions hold each record's final state.
            states = gru_sequence(emb, mask, zero, cells["fwd"], reverse=False, keep_graph=keep_graph)
            final = states[:, -1]
            if cfg.bidirectional:
                backward_states = gru_sequence(emb, mask, zero, cells["bwd"], reverse=True, keep_graph=keep_graph)
                states = concat([states, backward_states], axis=2)
                final = concat([final, backward_states[:, 0]], axis=1)
            hidden_parts.append(states)
            mask_parts.append(mask)
            ext_parts.append(ext)
            finals.append(final)
        fused = concat(finals, axis=1)
        state = tanh(matmul(fused, self.parameters["comb.w"]) + self.parameters["comb.b"])
        hidden = concat(hidden_parts, axis=1)
        if not keep_graph:
            hidden, state = Tensor(hidden.data), Tensor(state.data)
        return _Batch(
            hidden=hidden,
            mask=np.concatenate(mask_parts, axis=1),
            source_ext_ids=np.concatenate(ext_parts, axis=1),
            state=state,
        )

    # ------------------------------------------------------------------ decoder

    def _decode(self, state: Tensor, input_ids: np.ndarray, batch: _Batch, keep_graph: bool):
        """Decode (N, T) input ids from (N, H) states; N rows are record-major.

        One gru_sequence call runs all T steps (every target step for the
        loss, 1 for a beam step), then the attention/output/copy head runs
        over the N * T rows in row-then-step order, attending per record so
        encoder states are never tiled. Returns (states (N, T, H), vocab
        dist, attention, p_gen), the last three over the N * T rows.
        """
        cfg = self.config
        params = self.parameters
        n, steps = input_ids.shape
        rows = n * steps
        x = embedding_lookup(params["dec.embed"], input_ids)
        states = gru_sequence(x, np.ones((n, steps)), state, self._decoder_cell, keep_graph=keep_graph)
        flat = reshape(states, (rows, cfg.hidden_dim))
        attention = p_gen = None
        if cfg.use_attention:
            records, length = batch.mask.shape
            width = rows // records
            query = reshape(matmul(flat, params["attn.w"]), (records, width, cfg.hidden_dim))
            scores = reshape(bmm(query, transpose(batch.hidden, (0, 2, 1))), (rows, length))
            shift = Tensor(scores.data.max(axis=1, keepdims=True))
            weights = exp(scores - shift) * Tensor(np.repeat(batch.mask, width, axis=0))
            attention = div(weights, sum_(weights, axis=1, keepdims=True))
            context = reshape(
                bmm(reshape(attention, (records, width, length)), batch.hidden), (rows, cfg.hidden_dim)
            )
            features = tanh(matmul(concat([flat, context], axis=1), params["out.w_c"]))
            if cfg.use_copy:
                gate_in = concat([context, flat, reshape(x, (rows, cfg.embed_dim))], axis=1)
                p_gen = sigmoid(matmul(gate_in, params["copy.w"]) + params["copy.b"])
        else:
            features = tanh(matmul(flat, params["out.w_c"]))
        logits = matmul(features, params["out.w"]) + params["out.b"]
        return states, softmax(logits, axis=1), attention, p_gen

    def _distribution(self, state: Tensor, input_ids: np.ndarray, batch: _Batch):
        """One graph-free decoder step for inference.

        Returns the new state and, per row, probabilities over the output
        vocabulary extended with its record's copyable texts (columns past
        a record's own texts hold zero).
        """
        states, vocab_dist, attention, p_gen = self._decode(state, input_ids[:, None], batch, keep_graph=False)
        state = Tensor(states.data[:, 0])
        if not self.config.use_copy:
            return state, vocab_dist.data
        n, base = vocab_dist.shape
        source = np.repeat(batch.source_ext_ids, n // len(batch.mask), axis=0)
        probs = np.zeros((n, max(base, int(source.max()) + 1)))
        probs[:, :base] = p_gen.data * vocab_dist.data
        np.add.at(probs, (np.arange(n)[:, None], source), (1.0 - p_gen.data) * attention.data)
        return state, probs

    # -------------------------------------------------------------------- loss

    @checked()
    def _loss_batch(self, prepared):
        """Teacher-forced loss: one decoder pass over (records x steps) rows."""
        if not prepared:
            raise EmptyTrainingSet("loss of an empty batch")
        batch = self._encode(prepared, keep_graph=True)
        n = len(prepared)
        steps = max(len(p.target_ext_ids) for p in prepared) + 1  # final step predicts EOS
        targets = np.full((n, steps), PAD_ID, dtype=np.int64)
        step_mask = np.zeros((n, steps))
        for b, p in enumerate(prepared):
            targets[b, : len(p.target_ext_ids)] = p.target_ext_ids
            targets[b, len(p.target_ext_ids)] = EOS_ID
            step_mask[b, : len(p.target_ext_ids) + 1] = 1.0
        generable = (targets >= 0) & (targets < len(self.vocabularies["output"]))
        target_ids = np.where(generable, targets, UNK_ID)
        input_ids = np.full((n, steps), BOS_ID, dtype=np.int64)
        input_ids[:, 1:] = np.where(step_mask[:, 1:] > 0, target_ids[:, :-1], PAD_ID)
        _, vocab_dist, attention, p_gen = self._decode(batch.state, input_ids, batch, keep_graph=True)
        prob = gather_index(vocab_dist, target_ids.reshape(-1))
        if self.config.use_copy:
            gate = reshape(p_gen, (n * steps,))
            match = (targets[:, :, None] == batch.source_ext_ids[:, None, :]) * batch.mask[:, None, :]
            copied = sum_(attention * Tensor(match.reshape(n * steps, -1)), axis=1)
            in_vocab = (generable * step_mask).reshape(-1)
            prob = gate * (prob * Tensor(in_vocab)) + (1.0 - gate) * copied
        token_count = int(step_mask.sum())
        nll = neg(log(prob + _LOG_FLOOR)) * Tensor(step_mask.reshape(-1))
        return sum_(nll) * (1.0 / token_count), token_count

    def loss(self, records) -> Tensor:
        """Mean negative log-likelihood per target sub-token (incl. EOS)."""
        return self._loss_batch([self.prepare(r) for r in records])[0]

    # ------------------------------------------------------------ public surface

    def suggest(self, record, k: int | None = None) -> list:
        """Top-k name suggestions for one record; see suggest_many."""
        return self.suggest_many([record], k)[0]

    @checked()
    def suggest_many(self, records, k: int | None = None) -> list:
        """Top-k names per record by one beam search over (records x k) rows.

        More than _DECODE_GROUP records decode as one search per group of
        that many, so memory stays bounded. Records may be given already
        prepared. Finished hypotheses occupy beam slots, so width 1 is
        exact greedy decoding. The first step cannot end a name, so no
        name is empty. Scores are mean log-probability per emitted
        sub-token (end marker included); ties break lexicographically on
        the sub-tokens; names are deduplicated.
        """
        width = self.config.beam_width if k is None else k
        if width < 1:
            raise ValueError("k must be positive")
        prepared = [r if isinstance(r, PreparedRecord) else self.prepare(r) for r in records]
        if not prepared:
            return []
        if len(prepared) > _DECODE_GROUP:
            return [
                suggestions
                for start in range(0, len(prepared), _DECODE_GROUP)
                for suggestions in self.suggest_many(prepared[start : start + _DECODE_GROUP], width)
            ]
        out_texts = self.vocabularies["output"].texts
        base = len(out_texts)
        ext_texts = [out_texts + p.oov_texts for p in prepared]
        batch = self._encode(prepared, keep_graph=False)
        rows = len(prepared) * width
        ext_sizes = np.repeat([len(texts) for texts in ext_texts], width)
        state = Tensor(np.repeat(batch.state.data, width, axis=0))
        input_ids = np.full(rows, BOS_ID, dtype=np.int64)
        # Row r * width + j holds hypothesis j of record r as (texts, summed
        # logp); None marks a free slot.
        beams = [((), 0.0) if row % width == 0 else None for row in range(rows)]
        done: list = [[] for _ in prepared]  # per record: (texts, summed logp, steps)
        for step in range(self.config.max_output_len):
            if not any(beams):
                break
            state, probs = self._distribution(state, input_ids, batch)
            logp = np.log(probs + _LOG_FLOOR)
            logp[:, [PAD_ID, BOS_ID, EOS_ID] if step == 0 else [PAD_ID, BOS_ID]] = -np.inf
            logp[np.arange(logp.shape[1]) >= ext_sizes[:, None]] = -np.inf
            order = np.argsort(-logp, axis=1, kind="stable")[:, :width]
            parents = np.arange(rows)
            input_ids = np.full(rows, EOS_ID, dtype=np.int64)
            for r in range(len(prepared)):
                first = r * width
                budget = width - len(done[r])
                candidates = []
                for row in range(first, first + width):
                    if beams[row] is None:
                        continue
                    texts, score = beams[row]
                    for ext_id in order[row, :budget]:
                        if np.isfinite(logp[row, ext_id]):
                            total = score + float(logp[row, ext_id])
                            candidates.append((total, texts + (ext_texts[r][ext_id],), row, int(ext_id)))
                candidates.sort(key=lambda c: (-c[0], c[1]))
                beams[first : first + width] = [None] * width
                slot = first
                for score, texts, row, ext_id in candidates[:budget]:
                    if ext_id == EOS_ID:  # the end marker counts as a step
                        done[r].append((texts[:-1], score, len(texts)))
                        continue
                    beams[slot] = (texts, score)
                    parents[slot] = row
                    input_ids[slot] = ext_id if ext_id < base else UNK_ID
                    slot += 1
            state = Tensor(state.data[parents])
        for row, beam in enumerate(beams):
            if beam is not None:
                done[row // width].append((*beam, len(beam[0])))
        return [self._ranked(finished, width) for finished in done]

    @staticmethod
    def _ranked(finished, width: int) -> list:
        ranked = sorted(
            ((score / steps, texts) for texts, score, steps in finished),
            key=lambda pair: (-pair[0], pair[1]),
        )
        suggestions = []
        seen = set()
        for norm_score, texts in ranked:
            name = "".join(texts)
            if name in seen:
                continue
            seen.add(name)
            suggestions.append(Suggestion(name=name, score=norm_score, sub_tokens=texts))
            if len(suggestions) == width:
                break
        return suggestions


# ---------------------------------------------------------------------- train


def train(
    documents: dict,
    split,
    config: ModelConfig,
    training: TrainingConfig,
    chop_config: ChopConfig | None = None,
    lexicon=None,
):
    """Teacher-forced Adam training with per-epoch validation selection.

    Builds vocabularies from the training documents only, then optimizes
    mean sub-token cross-entropy. After each epoch the greedy top-1
    accuracy on the validation documents decides the checkpoint to keep;
    ties keep the later epoch. Returns (checkpoint, per-epoch metrics).
    """
    chop_config = chop_config or ChopConfig()
    lexicon = lexicon or DEFAULT_LEXICON
    train_records = ordered_records(documents, split.train)
    val_records = ordered_records(documents, split.validation)
    if not train_records:
        raise EmptyTrainingSet("no training records")

    texts = [record_texts(r, config.inputs, chop_config, lexicon) for r in train_records]
    output_min = (
        training.output_min_frequency
        if training.output_min_frequency is not None
        else training.min_frequency
    )
    vocabularies = {
        stream: build_vocabulary(
            (t[stream] for t in texts),
            output_min if stream == "output" else training.min_frequency,
        )
        for stream in (*config.inputs, "output")
    }

    model = LemmaNameModel(config, chop_config, lexicon, vocabularies, seed=training.seed)
    train_prepared = [model.prepare(r, t) for r, t in zip(train_records, texts)]
    val_prepared = [model.prepare(r) for r in val_records]
    optimizer = AdamState()
    shuffle_rng = Rng(training.seed)
    best_state = model.parameters.state()
    best_top1 = -1.0
    metrics = []
    for epoch in range(1, training.epochs + 1):
        order = shuffle_rng.permutation(len(train_records))
        total_nll = 0.0
        total_tokens = 0
        for start in range(0, len(order), training.batch_size):
            chunk = [train_prepared[i] for i in order[start : start + training.batch_size]]
            loss, token_count = model._loss_batch(chunk)
            backward(loss, model.parameters)
            adam_step(model.parameters, model.parameters.gradients(), optimizer, lr=training.learning_rate)
            total_nll += float(loss.data) * token_count
            total_tokens += token_count
        if val_records:
            predicted = model.suggest_many(val_prepared, 1)
            hits = sum(s[0].name == r.name for s, r in zip(predicted, val_records))
            val_top1 = hits / len(val_records)
        else:
            val_top1 = 0.0
        if val_top1 >= best_top1:
            best_top1 = val_top1
            best_state = model.parameters.state()
        metrics.append(
            EpochMetrics(epoch=epoch, train_loss=total_nll / total_tokens, validation_top1=val_top1)
        )
    checkpoint = ModelCheckpoint(
        config=config,
        chop_config=chop_config,
        lexicon=lexicon,
        vocabularies=vocabularies,
        parameter_state=best_state,
    )
    return checkpoint, metrics


# ----------------------------------------------------------------- checkpoint


@dataclass
class ModelCheckpoint:
    config: ModelConfig
    chop_config: ChopConfig
    lexicon: object
    vocabularies: dict
    parameter_state: dict
    format_version: int = CHECKPOINT_VERSION

    def to_model(self) -> LemmaNameModel:
        try:
            return LemmaNameModel(
                self.config, self.chop_config, self.lexicon, self.vocabularies, parameter_state=self.parameter_state
            )
        except (ShapeMismatch, ValueError) as err:
            raise CorruptCheckpoint(f"unusable parameters: {err}") from err


def _config_digest(header: dict) -> str:
    blob = json.dumps(
        {k: header[k] for k in ("config", "chop_config", "lexicon")},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def save_checkpoint(path, checkpoint: ModelCheckpoint) -> None:
    """Write the deterministic binary checkpoint format.

    Layout: magic "LNCK", little-endian uint32 format version, uint64
    header length, canonical JSON header (sorted keys, no whitespace),
    then the parameter blocks as little-endian float64 in C order, in the
    header's listed order (sorted by name). Identical checkpoints are
    byte-identical.
    """
    header = {
        "format_version": checkpoint.format_version,
        "config": checkpoint.config.to_dict(),
        "chop_config": checkpoint.chop_config.to_dict(),
        "lexicon": checkpoint.lexicon.to_dict(),
        "vocabularies": {name: v.to_dict() for name, v in checkpoint.vocabularies.items()},
        "parameters": [
            {"name": name, "shape": list(checkpoint.parameter_state[name].shape)}
            for name in sorted(checkpoint.parameter_state)
        ],
    }
    header["config_digest"] = _config_digest(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", checkpoint.format_version))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in sorted(checkpoint.parameter_state):
            block = np.ascontiguousarray(checkpoint.parameter_state[name], dtype="<f8")
            fh.write(block.tobytes())


def load_checkpoint(path) -> ModelCheckpoint:
    """Read and validate a checkpoint written by save_checkpoint."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16 or data[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpoint("bad magic bytes")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(version, CHECKPOINT_VERSION)
    (header_len,) = struct.unpack_from("<Q", data, 8)
    header_end = 16 + header_len
    if header_end > len(data):
        raise CorruptCheckpoint("truncated header")
    try:
        header = json.loads(data[16:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CorruptCheckpoint(f"unreadable header: {err}") from err
    try:
        if header["config_digest"] != _config_digest(header):
            raise CorruptCheckpoint("configuration digest mismatch")
        config = ModelConfig.from_dict(header["config"])
        chop_config = ChopConfig.from_dict(header["chop_config"])
        lexicon = SuffixLexicon.from_dict(header["lexicon"])
        vocabularies = {
            name: Vocabulary.from_dict(v) for name, v in header["vocabularies"].items()
        }
        entries = [(e["name"], tuple(e["shape"])) for e in header["parameters"]]
    except (KeyError, TypeError, ValueError) as err:
        raise CorruptCheckpoint(f"malformed header: {err}") from err
    offset = header_end
    state = {}
    for name, shape in entries:
        count = int(np.prod(shape)) if shape else 1
        end = offset + 8 * count
        if end > len(data):
            raise CorruptCheckpoint(f"truncated parameter block: {name}")
        state[name] = np.frombuffer(data[offset:end], dtype="<f8").reshape(shape).astype(np.float64)
        offset = end
    if offset != len(data):
        raise CorruptCheckpoint("trailing bytes after parameter blocks")
    return ModelCheckpoint(
        config=config,
        chop_config=chop_config,
        lexicon=lexicon,
        vocabularies=vocabularies,
        parameter_state=state,
        format_version=version,
    )
