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
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import DomainError, InvalidValue
from .chop import ChopConfig
from .corpus import (
    BOS_ID,
    EOS_ID,
    INPUT_STREAMS,
    PAD_ID,
    STREAM_KERNEL,
    STREAM_NAME,
    STREAM_STATEMENT,
    STREAM_SYNTAX,
    UNK_ID,
    Vocabulary,
    build_vocabulary,
    ordered_records,
    record_texts,
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
    GruParams,
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
CHECKPOINT_VERSION = 2

_LOG_FLOOR = 1e-12  # keeps -log finite when a target is neither generable nor copyable
# Records per beam search. A search holds every record's encoder states,
# so larger inputs (a whole test set) decode in groups of this size.
_DECODE_GROUP = 32


class EmptyTrainingSet(DomainError):
    pass


class VersionMismatch(DomainError):
    def __init__(self, found: int, supported: int):
        super().__init__(f"checkpoint format version {found}, supported {supported}")
        self.found = found
        self.supported = supported


class CorruptCheckpoint(DomainError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    inputs: tuple = INPUT_CONFIGS[DEFAULT_INPUT_CONFIG]
    embed_dim: int = 64
    hidden_dim: int = 128
    use_copy: bool = True
    max_input_len: int = 512
    max_output_len: int = 16

    def __post_init__(self):
        if not isinstance(self.inputs, (list, tuple)) or not all(isinstance(stream, str) for stream in self.inputs):
            raise InvalidValue(f"inputs must be a list of stream names, got {self.inputs!r}")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if not self.inputs:
            raise InvalidValue("at least one input stream is required")
        if len(set(self.inputs)) != len(self.inputs):
            raise InvalidValue(f"duplicate input streams: {self.inputs}")
        for stream in self.inputs:
            if stream not in INPUT_STREAMS:
                raise InvalidValue(f"unknown input stream: {stream!r}")
        for name in ("embed_dim", "hidden_dim", "max_input_len", "max_output_len"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:  # a bool is no dimension
                raise InvalidValue(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.use_copy, bool):
            raise InvalidValue(f"use_copy must be a bool, got {self.use_copy!r}")
        if self.hidden_dim % 2:
            raise InvalidValue("bidirectional encoders need an even hidden_dim")


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
            raise InvalidValue("epochs must be non-negative")
        if self.batch_size < 1:
            raise InvalidValue("batch_size must be positive")
        if not 0.0 < self.learning_rate < math.inf:
            raise InvalidValue(f"learning_rate must be finite and positive, got {self.learning_rate}")


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
    oov_texts: tuple  # source texts absent from the output vocabulary
    source_ext_ids: np.ndarray  # (S,) extended-vocabulary id per source position, streams concatenated
    target_ext_ids: np.ndarray  # truncated name; -1 where neither generable nor copyable


def parameter_shapes(config: ModelConfig, vocabularies: dict) -> dict:
    """Every parameter's shape by name, in the order a model draws them.

    A bias (`.b`) starts at zero, an embedding (`.embed`) uniform in +-0.1,
    any other weight Glorot-uniform.
    """
    embed, hidden, out = config.embed_dim, config.hidden_dim, len(vocabularies["output"])
    shapes = {}

    def gru(prefix, units):
        shapes[f"{prefix}.w_x"] = (embed, 3 * units)
        shapes[f"{prefix}.w_h"] = (units, 3 * units)
        shapes[f"{prefix}.b"] = (3 * units,)

    for stream in config.inputs:
        shapes[f"enc.{stream}.embed"] = (len(vocabularies[stream]), embed)
        gru(f"enc.{stream}.fwd", hidden // 2)
        gru(f"enc.{stream}.bwd", hidden // 2)
    shapes.update({"comb.w": (len(config.inputs) * hidden, hidden), "comb.b": (hidden,), "dec.embed": (out, embed)})
    gru("dec.gru", hidden)
    shapes.update({"attn.w": (hidden, hidden), "out.w_c": (2 * hidden, hidden)})
    shapes.update({"out.w": (hidden, out), "out.b": (out,)})
    if config.use_copy:
        shapes.update({"copy.w": (2 * hidden + embed, 1), "copy.b": (1,)})
    return shapes


@dataclass
class _Batch:
    hidden: Tensor  # (B, S, H) encoder states of every stream, concatenated
    mask: np.ndarray  # (B, S), 1 at real positions
    source_ext_ids: np.ndarray  # (B, S), PAD_ID at padding
    state: Tensor  # (B, H) the decoder's initial state


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
        shapes = parameter_shapes(config, vocabularies)
        if parameter_state is not None:
            # Compared before anything is allocated: a config can imply any size.
            found = {name: np.shape(value) for name, value in parameter_state.items()}
            if found != shapes:
                name = min(n for n in found.keys() | shapes.keys() if found.get(n) != shapes.get(n))
                raise ShapeMismatch(f"parameter {name}: {found.get(name)} != {shapes.get(name)}")
        self.config = config
        self.chop_config = chop_config
        self.lexicon = lexicon
        self.vocabularies = vocabularies
        self.parameters = Parameters()
        rng = Rng(seed)
        for name, shape in shapes.items():
            if name.endswith(".b"):
                data = np.zeros(shape)
            elif name.endswith(".embed"):
                data = embedding_init(rng, *shape)
            else:
                data = linear_init(rng, *shape)
            self.parameters.add(name, data)
        self._encoders = {stream: [self._gru(f"enc.{stream}.{d}") for d in ("fwd", "bwd")] for stream in config.inputs}
        self._decoder_cell = self._gru("dec.gru")
        if parameter_state is not None:
            self.parameters.load_state(parameter_state)

    def _gru(self, prefix: str) -> GruParams:
        return GruParams(*(self.parameters[f"{prefix}.{part}"] for part in ("w_x", "w_h", "b")))

    # ------------------------------------------------------------ preprocessing

    def prepare(self, record, texts: dict | None = None) -> PreparedRecord:
        """Chop, sub-tokenize and encode one record for this model.

        `texts` may pass the record's `record_texts` of the input streams
        and the name when the caller has them already, so no record is
        sub-tokenized twice. Otherwise each input stream is sub-tokenized
        only as far as `max_input_len`.
        """
        cfg = self.config
        texts = texts or record_texts(
            record, (*cfg.inputs, STREAM_NAME), self.chop_config, self.lexicon, cfg.max_input_len
        )
        stream_ids, source = {}, []
        for stream in cfg.inputs:
            seq = texts[stream][: cfg.max_input_len]
            stream_ids[stream] = np.array(self.vocabularies[stream].ids_of(seq), dtype=np.int64)
            source.extend(seq)
        out_vocab = self.vocabularies["output"]
        base = len(out_vocab)
        source_ext_ids = out_vocab.ids_of(source, None)
        copy_ids = {}  # source texts absent from the output vocabulary -> extended id
        for position, ext_id in enumerate(source_ext_ids):
            if ext_id is None:
                source_ext_ids[position] = copy_ids.setdefault(source[position], base + len(copy_ids))
        target = texts[STREAM_NAME][: cfg.max_output_len]
        target_ext_ids = [
            copy_ids.get(text, -1) if ext_id is None else ext_id
            for text, ext_id in zip(target, out_vocab.ids_of(target, None))
        ]
        return PreparedRecord(
            stream_ids=stream_ids,
            oov_texts=tuple(copy_ids),
            source_ext_ids=np.array(source_ext_ids, dtype=np.int64),
            target_ext_ids=np.array(target_ext_ids, dtype=np.int64),
        )

    # ------------------------------------------------------------------ encoder

    def _encode(self, prepared, keep_graph: bool) -> _Batch:
        """Run the encoders over prepared records padded to one batch.

        Each stream is one gru_sequence call that runs both directions in
        one time loop and projects its inputs block by block. Without
        keep_graph no activations are kept for backward, and the batch
        holds graph-free tensors.
        """
        cfg = self.config
        batch = len(prepared)
        half = cfg.hidden_dim // 2
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
            zero = Tensor(np.zeros((batch, cfg.hidden_dim)))
            states = gru_sequence(emb, mask, zero, self._encoders[stream], keep_graph=keep_graph)
            hidden_parts.append(states)
            mask_parts.append(mask)
            ext_parts.append(ext)
            # Padding carries the state, so the last (forward) and first
            # (backward) positions hold each record's final state.
            finals.append(concat([states[:, -1, :half], states[:, 0, half:]], axis=1))
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
        states = gru_sequence(x, np.ones((n, steps)), state, (self._decoder_cell,), keep_graph=keep_graph)
        flat = reshape(states, (rows, cfg.hidden_dim))
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
        p_gen = None
        if cfg.use_copy:
            gate_in = concat([context, flat, reshape(x, (rows, cfg.embed_dim))], axis=1)
            p_gen = sigmoid(matmul(gate_in, params["copy.w"]) + params["copy.b"])
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

    def suggest(self, record, k: int) -> list:
        """Top-k name suggestions for one record; see suggest_many."""
        return self.suggest_many([record], k)[0]

    @checked()
    def suggest_many(self, records, k: int) -> list:
        """Top-k names per record by one beam search over (records x k) rows.

        More than _DECODE_GROUP records decode as one search per group of
        that many, so memory stays bounded. Records may be given already
        prepared. Finished hypotheses occupy beam slots, so k = 1 is
        exact greedy decoding. The first step cannot end a name, so no
        name is empty. Scores are mean log-probability per emitted
        sub-token (end marker included); ties break lexicographically on
        the sub-tokens; names are deduplicated.
        """
        if k < 1:
            raise ValueError("k must be positive")
        prepared = [r if isinstance(r, PreparedRecord) else self.prepare(r) for r in records]
        if not prepared:
            return []
        if len(prepared) > _DECODE_GROUP:
            return [
                suggestions
                for start in range(0, len(prepared), _DECODE_GROUP)
                for suggestions in self.suggest_many(prepared[start : start + _DECODE_GROUP], k)
            ]
        out_texts = self.vocabularies["output"].texts
        base = len(out_texts)
        ext_texts = [out_texts + p.oov_texts for p in prepared]
        batch = self._encode(prepared, keep_graph=False)
        rows = len(prepared) * k
        ext_sizes = np.repeat([len(texts) for texts in ext_texts], k)
        state = Tensor(np.repeat(batch.state.data, k, axis=0))
        input_ids = np.full(rows, BOS_ID, dtype=np.int64)
        # Row r * k + j holds hypothesis j of record r as (texts, summed
        # logp); None marks a free slot.
        beams = [((), 0.0) if row % k == 0 else None for row in range(rows)]
        done: list = [[] for _ in prepared]  # per record: (texts, summed logp, steps)
        for step in range(self.config.max_output_len):
            if not any(beams):
                break
            state, probs = self._distribution(state, input_ids, batch)
            logp = np.log(probs + _LOG_FLOOR)
            logp[:, [PAD_ID, BOS_ID, EOS_ID] if step == 0 else [PAD_ID, BOS_ID]] = -np.inf
            logp[np.arange(logp.shape[1]) >= ext_sizes[:, None]] = -np.inf
            order = np.argsort(-logp, axis=1, kind="stable")[:, :k]
            parents = np.arange(rows)
            input_ids = np.full(rows, EOS_ID, dtype=np.int64)
            for r in range(len(prepared)):
                first = r * k
                budget = k - len(done[r])
                candidates = []
                for row in range(first, first + k):
                    if beams[row] is None:
                        continue
                    texts, score = beams[row]
                    for ext_id in order[row, :budget]:
                        if np.isfinite(logp[row, ext_id]):
                            total = score + float(logp[row, ext_id])
                            candidates.append((total, texts + (ext_texts[r][ext_id],), row, int(ext_id)))
                candidates.sort(key=lambda c: (-c[0], c[1]))
                beams[first : first + k] = [None] * k
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
                done[row // k].append((*beam, len(beam[0])))
        return [self._ranked(finished, k) for finished in done]

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
    ties keep the later epoch. With no validation documents the last
    epoch's parameters are kept, and they must first score the training
    records without a numerical fault. Returns (checkpoint, per-epoch
    metrics).
    """
    chop_config = chop_config or ChopConfig()
    lexicon = lexicon or DEFAULT_LEXICON
    train_records = ordered_records(documents, split.train)
    val_records = ordered_records(documents, split.validation)
    if not train_records:
        raise EmptyTrainingSet("no training records")

    texts = [record_texts(r, (*config.inputs, STREAM_NAME), chop_config, lexicon) for r in train_records]
    output_min = (
        training.output_min_frequency
        if training.output_min_frequency is not None
        else training.min_frequency
    )
    vocabularies = {
        stream: build_vocabulary((t[stream] for t in texts), training.min_frequency) for stream in config.inputs
    }
    vocabularies["output"] = build_vocabulary((t[STREAM_NAME] for t in texts), output_min)

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
    if not val_records:
        # No validation pass ran the kept (last) parameters forward: score
        # the training records with them, under the same numerical check.
        for start in range(0, len(train_prepared), training.batch_size):
            model._loss_batch(train_prepared[start : start + training.batch_size])
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

    def to_model(self) -> LemmaNameModel:
        try:
            return LemmaNameModel(
                self.config, self.chop_config, self.lexicon, self.vocabularies, parameter_state=self.parameter_state
            )
        except (ShapeMismatch, ValueError) as err:
            raise CorruptCheckpoint(f"unusable parameters: {err}") from err


def _canonical_json(value) -> bytes:
    """Sorted keys, no whitespace; a set is written as its sorted list."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=sorted).encode("utf-8")


def _header_digest(header: dict) -> str:
    """sha256 of the canonical JSON header without its own digest entry."""
    rest = {k: v for k, v in header.items() if k != "header_digest"}
    return hashlib.sha256(_canonical_json(rest)).hexdigest()


def save_checkpoint(path, checkpoint: ModelCheckpoint) -> None:
    """Write the deterministic binary checkpoint format.

    Layout: magic "LNCK", little-endian uint32 format version, uint64
    header length, canonical JSON header (sorted keys, no whitespace),
    then the parameter blocks as little-endian float64 in C order, in the
    header's listed order (sorted by name). The header's digest covers
    every other header entry. Identical checkpoints are byte-identical.
    """
    header = {
        "config": asdict(checkpoint.config),
        "chop_config": asdict(checkpoint.chop_config),
        "lexicon": asdict(checkpoint.lexicon),
        "vocabularies": {name: asdict(v) for name, v in checkpoint.vocabularies.items()},
        "parameters": [
            {"name": name, "shape": list(checkpoint.parameter_state[name].shape)}
            for name in sorted(checkpoint.parameter_state)
        ],
    }
    header["header_digest"] = _header_digest(header)
    blob = _canonical_json(header)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in sorted(checkpoint.parameter_state):
            block = np.ascontiguousarray(checkpoint.parameter_state[name], dtype="<f8")
            fh.write(block.tobytes())


def _section(cls, data):
    """A settings dataclass built from a header section that holds exactly its fields."""
    names = {f.name for f in fields(cls)}
    if not isinstance(data, dict) or data.keys() != names:
        keys = sorted(data) if isinstance(data, dict) else type(data).__name__
        raise CorruptCheckpoint(f"malformed header: {cls.__name__} needs the keys {sorted(names)}, got {keys}")
    return cls(**data)


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
    except (ValueError, RecursionError) as err:  # bad UTF-8 or JSON, or nested too deep
        raise CorruptCheckpoint(f"unreadable header: {err}") from err
    if not isinstance(header, dict) or header.get("header_digest") != _header_digest(header):
        raise CorruptCheckpoint("header digest mismatch")
    try:
        config = _section(ModelConfig, header["config"])
        chop_config = _section(ChopConfig, header["chop_config"])
        lexicon = _section(SuffixLexicon, header["lexicon"])
        vocabularies = {name: _section(Vocabulary, v) for name, v in header["vocabularies"].items()}
        entries = [(e["name"], e["shape"]) for e in header["parameters"]]
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise CorruptCheckpoint(f"malformed header: {err}") from err
    offset = header_end
    state = {}
    for name, shape in entries:
        if not (
            isinstance(name, str)
            and isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)  # a bool is no dimension
        ):
            raise CorruptCheckpoint(f"malformed parameter entry: name {name!r}, shape {shape!r}")
        end = offset + 8 * math.prod(shape)
        if end > len(data):
            raise CorruptCheckpoint(f"truncated parameter block: {name}")
        try:
            state[name] = np.frombuffer(data[offset:end], dtype="<f8").reshape(shape).astype(np.float64)
        except ValueError as err:  # an empty shape with more or larger dimensions than numpy holds
            raise CorruptCheckpoint(f"malformed parameter entry: name {name!r}, shape {shape!r}") from err
        offset = end
    if offset != len(data):
        raise CorruptCheckpoint("trailing bytes after parameter blocks")
    return ModelCheckpoint(
        config=config,
        chop_config=chop_config,
        lexicon=lexicon,
        vocabularies=vocabularies,
        parameter_state=state,
    )
