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
steps, and beam search runs the same decoder one graph-free step at a time,
over the live hypotheses only.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from itertools import islice

import numpy as np

from . import DomainError, InvalidValue, canonical_json, check_counts
from .chop import DEFAULT_CHOP_CONFIG, ChopConfig
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
    Rng,
    Tensor,
    adam_step,
    backward,
    checked,
    concat,
    embedding_init,
    embedding_lookup,
    GruParams,
    gru_sequence,
    joined,
    linear_init,
    log,
    matmul,
    reshape,
    sigmoid,
    softmax,
    sum_,
    tanh,
    transpose,
)

try:  # the interpreter's own SHA-256, as in `random`: hashlib would load OpenSSL's libcrypto (≈3.6 MB resident)
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

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
CHECKPOINT_VERSION = 3

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
        dimensions = ("embed_dim", "hidden_dim", "max_input_len", "max_output_len")
        check_counts({name: (getattr(self, name), 1) for name in dimensions})
        if not isinstance(self.use_copy, bool):
            raise InvalidValue(f"use_copy must be a bool, got {self.use_copy!r}")
        if self.hidden_dim % 2:
            raise InvalidValue("bidirectional encoders need an even hidden_dim")


@dataclass(frozen=True)
class TrainingConfig:
    """Optimizer settings, and how often a name sub-token must occur in training to be generable.

    Input vocabularies keep every training sub-token; an output sub-token
    seen fewer than `output_min_frequency` times can only be copied.
    """

    epochs: int = 30
    learning_rate: float = 1e-3
    batch_size: int = 32
    seed: int = 0
    output_min_frequency: int = 1

    def __post_init__(self):
        lowest = {"epochs": 0, "batch_size": 1, "seed": 0, "output_min_frequency": 1}
        check_counts({name: (getattr(self, name), low) for name, low in lowest.items()})
        rate = self.learning_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0.0 < rate < math.inf:
            raise InvalidValue(f"learning_rate must be finite and positive, got {rate!r}")


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
    target_ext_ids: np.ndarray | None  # truncated name, -1 where neither generable nor copyable; None untargeted


def parameter_shapes(config: ModelConfig, vocabularies: dict) -> dict:
    """Every parameter's shape by name, in the order a model draws them.

    A bias (`.b`) starts at zero, an embedding (`.embed`) uniform in +-0.1,
    any other weight Glorot-uniform.
    """
    missing = [name for name in (*config.inputs, "output") if name not in vocabularies]
    if missing:
        raise ValueError(f"vocabularies missing entries: {missing}")
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
    """Encoder output of B records padded to one source length S, one row per record.

    A beam search owns the arrays of the batch it encodes and compacts
    them in place as records finish (see _search_group).
    """

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
        self.config = config
        self.chop_config = chop_config
        self.lexicon = lexicon
        self.vocabularies = vocabularies
        if parameter_state is None:
            rng, parameter_state = Rng(seed), {}
            for name, shape in parameter_shapes(config, vocabularies).items():
                if name.endswith(".b"):
                    parameter_state[name] = np.zeros(shape)
                elif name.endswith(".embed"):
                    parameter_state[name] = embedding_init(rng, *shape)
                else:
                    parameter_state[name] = linear_init(rng, *shape)
        # A given state is taken as it is: load_checkpoint checks a loaded one.
        self.parameters = {name: Tensor(np.array(value, dtype=np.float64)) for name, value in parameter_state.items()}
        self._encoders = {stream: [self._gru(f"enc.{stream}.{d}") for d in ("fwd", "bwd")] for stream in config.inputs}
        self._decoder_cell = self._gru("dec.gru")

    def _gru(self, prefix: str) -> GruParams:
        return GruParams(*(self.parameters[f"{prefix}.{part}"] for part in ("w_x", "w_h", "b")))

    # ------------------------------------------------------------ preprocessing

    def prepare(self, record, texts: dict | None = None) -> PreparedRecord:
        """Chop, sub-tokenize and encode one record for this model.

        `texts` may pass the record's `record_texts` of the input streams,
        and of the name if a loss will read the target, when the caller
        has them already, so no record is sub-tokenized twice. Otherwise
        each input stream is sub-tokenized only as far as `max_input_len`,
        and the name not at all: the record then has no target.
        """
        cfg = self.config
        texts = texts or record_texts(record, cfg.inputs, self.chop_config, self.lexicon, cfg.max_input_len)
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
        target_ext_ids = None
        if STREAM_NAME in texts:  # only a loss reads the target
            target = texts[STREAM_NAME][: cfg.max_output_len]
            pairs = zip(target, out_vocab.ids_of(target, None))
            target_ext_ids = np.array([copy_ids.get(t, -1) if i is None else i for t, i in pairs], dtype=np.int64)
        return PreparedRecord(
            stream_ids=stream_ids,
            oov_texts=tuple(copy_ids),
            source_ext_ids=np.array(source_ext_ids, dtype=np.int64),
            target_ext_ids=target_ext_ids,
        )

    # ------------------------------------------------------------------ encoder

    def _encode(self, prepared, keep_graph: bool) -> _Batch:
        """Run the encoders over prepared records padded to one batch.

        Each stream is one gru_sequence call that runs both directions in
        one time loop. It reads the stream's padded ids through the
        stream's embedding table, so no embedding of the batch is looked
        up, and projects each distinct id once per block of steps. The streams
        write their states into consecutive slices of one (B, S, H) array,
        which is the batch's `hidden`: no concat copy exists. Without
        keep_graph no activations are kept for backward, and the batch
        holds graph-free tensors.
        """
        cfg = self.config
        batch = len(prepared)
        half = cfg.hidden_dim // 2
        lengths = [max(len(p.stream_ids[stream]) for p in prepared) for stream in cfg.inputs]
        hidden_data = np.empty((batch, sum(lengths), cfg.hidden_dim))
        offset = 0
        starts = [0] * batch
        hidden_parts, mask_parts, ext_parts, finals = [], [], [], []
        for stream, length in zip(cfg.inputs, lengths):
            ids = np.full((batch, length), PAD_ID, dtype=np.int64)
            ext = np.full((batch, length), PAD_ID, dtype=np.int64)
            mask = np.zeros((batch, length))
            for b, p in enumerate(prepared):
                seq = p.stream_ids[stream]
                ids[b, : len(seq)] = seq
                ext[b, : len(seq)] = p.source_ext_ids[starts[b] : starts[b] + len(seq)]
                mask[b, : len(seq)] = 1.0
                starts[b] += len(seq)
            table = self.parameters[f"enc.{stream}.embed"]
            zero = Tensor(np.zeros((batch, cfg.hidden_dim)))
            out = hidden_data[:, offset : offset + length]
            offset += length
            states = gru_sequence(table, ids, mask, zero, self._encoders[stream], keep_graph=keep_graph, out=out)
            hidden_parts.append(states)
            mask_parts.append(mask)
            ext_parts.append(ext)
            # Padding carries the state, so the last (forward) and first
            # (backward) positions hold each record's final state.
            finals.append(concat([states[:, -1, :half], states[:, 0, half:]], axis=1))
        fused = concat(finals, axis=1)
        state = tanh(matmul(fused, self.parameters["comb.w"]) + self.parameters["comb.b"])
        if keep_graph:
            hidden = joined(hidden_data, hidden_parts, axis=1)
        else:
            hidden, state = Tensor(hidden_data), Tensor(state.data)
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
        loss, 1 for a beam step). The copy gate reads the embedded inputs
        too, so they are looked up once, and the GRU reads them as a table
        of N * T rows, one id per row: dec.embed then gets one scatter of
        the summed input gradient. Then the attention/output/copy head runs
        over the N * T rows in row-then-step order, attending per record so
        neither the encoder states nor the mask are tiled. Returns (states
        (N, T, H), vocab dist, attention, p_gen), the last three over the
        N * T rows. As every product runs through nn._product, no row's
        values depend on the other rows.
        """
        cfg = self.config
        params = self.parameters
        n, steps = input_ids.shape
        rows = n * steps
        x = reshape(embedding_lookup(params["dec.embed"], input_ids), (rows, cfg.embed_dim))
        row_ids = np.arange(rows).reshape(n, steps)
        states = gru_sequence(x, row_ids, np.ones((n, steps)), state, (self._decoder_cell,), keep_graph=keep_graph)
        flat = reshape(states, (rows, cfg.hidden_dim))
        records, length = batch.mask.shape
        query = reshape(matmul(flat, params["attn.w"]), (records, rows // records, cfg.hidden_dim))
        # (records, width, S): each record's mask broadcasts over its rows.
        weights = softmax(matmul(query, transpose(batch.hidden, (0, 2, 1))), mask=batch.mask[:, None, :])
        context = reshape(matmul(weights, batch.hidden), (rows, cfg.hidden_dim))
        attention = reshape(weights, (rows, length))
        features = tanh(matmul(concat([flat, context], axis=1), params["out.w_c"]))
        p_gen = None
        if cfg.use_copy:
            gate_in = concat([context, flat, x], axis=1)
            p_gen = sigmoid(matmul(gate_in, params["copy.w"]) + params["copy.b"])
        logits = matmul(features, params["out.w"]) + params["out.b"]
        return states, softmax(logits), attention, p_gen

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
        width = max(base, int(batch.source_ext_ids.max()) + 1)
        probs = np.zeros((n, width))
        probs[:, :base] = p_gen.data * vocab_dist.data
        # One-dimensional indices and values take ufunc.at's fast path; the
        # cells are visited in the same order as (row, source) pairs, and
        # each record's sources broadcast over its rows.
        rows = np.arange(n).reshape(len(batch.mask), -1, 1)
        cells = (rows * width + batch.source_ext_ids[:, None, :]).reshape(-1)
        np.add.at(probs.reshape(-1), cells, ((1.0 - p_gen.data) * attention.data).reshape(-1))
        return state, probs

    # -------------------------------------------------------------------- loss

    @checked()
    def _loss_batch(self, prepared):
        """Teacher-forced loss: one decoder pass over (records x steps) rows.

        Only a target in the output vocabulary scores its generation
        probability, so `<unk>` is never a target; a copy model adds the copy
        term. A target with neither scores the constant -log(_LOG_FLOOR).
        """
        if not prepared:
            raise EmptyTrainingSet("loss of an empty batch")
        if any(p.target_ext_ids is None for p in prepared):
            raise ValueError("a record prepared without its name has no target to score")
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
        in_vocab = Tensor((generable * step_mask).reshape(-1))
        prob = vocab_dist[np.arange(n * steps), target_ids.reshape(-1)] * in_vocab
        if self.config.use_copy:
            gate = reshape(p_gen, (n * steps,))
            match = targets[:, :, None] == batch.source_ext_ids[:, None, :]  # attention is 0 at padding
            copied = sum_(attention * Tensor(match.reshape(n * steps, -1)), axis=1)
            prob = gate * prob + (1.0 - gate) * copied
        token_count = int(step_mask.sum())
        log_likelihood = sum_(log(prob + _LOG_FLOOR) * Tensor(step_mask.reshape(-1)))
        return log_likelihood * (-1.0 / token_count), token_count

    def _targeted(self, record) -> PreparedRecord:
        """The record prepared as a loss reads it, with its name split into the target."""
        cfg = self.config
        texts = record_texts(record, (*cfg.inputs, STREAM_NAME), self.chop_config, self.lexicon, cfg.max_input_len)
        return self.prepare(record, texts)

    def loss(self, records) -> Tensor:
        """Mean negative log-likelihood per target sub-token (incl. EOS)."""
        return self._loss_batch([self._targeted(r) for r in records])[0]

    # ------------------------------------------------------------ public surface

    def suggest(self, record, k: int) -> list:
        """Top-k name suggestions for one record; see suggest_many."""
        return self.suggest_many([record], k)[0]

    def suggest_many(self, records, k: int) -> list:
        """Top-k names per record by one beam search over (records x k) slots.

        Records are prepared and decoded one group of _DECODE_GROUP at a
        time, so memory is bounded by a group, not by `records`. A group
        holds its encoder states once: as records finish, the live ones
        move up within the group's own arrays (see _search_group). Finished
        hypotheses occupy beam slots, so k = 1 is exact greedy decoding. The
        first step cannot end a name, so no name is empty. Scores are mean
        log-probability per emitted sub-token (end marker included); ties
        break lexicographically on the sub-tokens; names are deduplicated.
        Validation runs the same search at k = 1, pruned by the records'
        names (_greedy_hits).

        Each step decodes only the records that still have a live
        hypothesis, and of each only the prefix of its slots that live
        hypotheses fill, widened to the widest such prefix. As every
        decoder row is computed apart from the others (see _decode), the
        result equals decoding every slot at every step, bit for bit.
        """
        if k < 1:
            raise ValueError("k must be positive")
        return self._search(map(self.prepare, records), k)

    def _greedy_hits(self, prepared, names) -> int:
        """How many records' greedy top-1 names equal `names`.

        A record leaves the search as soon as its hypothesis no longer
        spells a prefix of its name, since no later step can make it a
        hit. At k = 1 this leaves every other row bit for bit as it was,
        just as a finished record does (see suggest_many).
        """
        return sum(bool(s) and s[0].name == name for s, name in zip(self._search(prepared, 1, names), names))

    def _search(self, prepared, k: int, names=None) -> list:
        """suggest_many's beam search, drawing `prepared` (any iterable) one _DECODE_GROUP at a time.

        With `names` (k = 1 only), a pruned record gets no suggestion.
        """
        if names is not None and k != 1:
            raise ValueError("only a greedy search can be pruned by names")
        found, prepared = [], iter(prepared)
        while group := list(islice(prepared, _DECODE_GROUP)):
            start = len(found)
            found += self._search_group(group, k, None if names is None else names[start : start + len(group)])
            del group  # freed before the next group is prepared
        return found

    @checked()
    def _search_group(self, prepared, k: int, names) -> list:
        out_texts = self.vocabularies["output"].texts
        base = len(out_texts)
        ext_texts = [out_texts + p.oov_texts for p in prepared]
        ext_sizes = np.array([len(texts) for texts in ext_texts])
        batch = self._encode(prepared, keep_graph=False)
        # Row r * k + j holds slot j of record r: its decoder state and next input.
        states = np.repeat(batch.state.data, k, axis=0)
        input_ids = np.full(len(prepared) * k, BOS_ID, dtype=np.int64)
        # Per record, its live hypotheses (texts, summed logp) in slot order.
        beams = [[((), 0.0)] for _ in prepared]
        done: list = [[] for _ in prepared]  # per record: (texts, summed logp, steps)
        # Row i of the batch's arrays holds record decoded[i]. The encoder
        # made them for this search, so as records finish, each live row
        # moves up to its rank in place and the steps decode through prefix
        # views: the group's encoder states exist once.
        decoded, step_batch = list(range(len(prepared))), batch
        arrays = (batch.hidden.data, batch.mask, batch.source_ext_ids, batch.state.data)
        for step in range(self.config.max_output_len):
            live = [r for r, beam in enumerate(beams) if beam]
            if not live:
                break
            width = max(len(beams[r]) for r in live)
            if live != decoded:
                # live is an ordered subsequence of decoded, so each row is
                # read from a row at or after it, before anything writes there.
                rank = {r: i for i, r in enumerate(decoded)}
                for i, r in enumerate(live):
                    if rank[r] != i:
                        for array in arrays:
                            array[i] = array[rank[r]]
                decoded, n = live, len(live)
                step_batch = _Batch(
                    hidden=Tensor(batch.hidden.data[:n]),
                    mask=batch.mask[:n],
                    source_ext_ids=batch.source_ext_ids[:n],
                    state=Tensor(batch.state.data[:n]),
                )
            rows = (np.array(live)[:, None] * k + np.arange(width)).reshape(-1)
            step_state, probs = self._distribution(Tensor(states[rows]), input_ids[rows], step_batch)
            logp = np.log(probs + _LOG_FLOOR)
            logp[:, [PAD_ID, UNK_ID, BOS_ID, EOS_ID] if step == 0 else [PAD_ID, UNK_ID, BOS_ID]] = -np.inf
            logp[np.arange(logp.shape[1]) >= np.repeat(ext_sizes[live], width)[:, None]] = -np.inf
            order = np.argsort(-logp, axis=1, kind="stable")[:, :k]
            best = np.take_along_axis(logp, order, axis=1).tolist()
            order = order.tolist()
            slots, parents, next_ids = [], [], []
            for i, r in enumerate(live):
                budget = k - len(done[r])
                candidates = []
                for j, (texts, score) in enumerate(beams[r]):
                    row = i * width + j
                    for ext_id, value in zip(order[row][:budget], best[row][:budget]):
                        if value > -math.inf:
                            candidates.append((score + value, texts + (ext_texts[r][ext_id],), row, ext_id))
                candidates.sort(key=lambda c: (-c[0], c[1]))
                beams[r] = []
                for score, texts, row, ext_id in candidates[:budget]:
                    if ext_id == EOS_ID:  # the end marker counts as a step
                        done[r].append((texts[:-1], score, len(texts)))
                        continue
                    if names is not None and not names[r].startswith("".join(texts)):  # can no longer be a hit
                        continue
                    slots.append(r * k + len(beams[r]))
                    beams[r].append((texts, score))
                    parents.append(row)
                    next_ids.append(ext_id if ext_id < base else UNK_ID)
            states[slots] = step_state.data[parents]
            input_ids[slots] = next_ids
        for r, beam in enumerate(beams):
            done[r].extend((texts, score, len(texts)) for texts, score in beam)
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
    chop_config: ChopConfig = DEFAULT_CHOP_CONFIG,
    lexicon: SuffixLexicon = DEFAULT_LEXICON,
):
    """Teacher-forced Adam training with per-epoch validation selection.

    Builds vocabularies from the training documents only, then optimizes
    mean sub-token cross-entropy. After each epoch the greedy top-1
    accuracy on the validation documents decides the checkpoint to keep;
    ties keep the later epoch. Validation stops decoding a record once
    its greedy prefix can no longer spell its name (_greedy_hits), which
    changes no hit; every record still runs its encoder and first decoder
    step under the numerical check. With no validation documents the last
    epoch's parameters are kept, and they must first score the training
    records without a numerical fault. At most one batch's autodiff graph
    is alive: each is dropped right after its backward, before the Adam
    step, the next batch and validation. Returns (checkpoint, per-epoch
    metrics).
    """
    train_records = ordered_records(documents, split.train)
    val_records = ordered_records(documents, split.validation)
    if not train_records:
        raise EmptyTrainingSet("no training records")

    texts = [record_texts(r, (*config.inputs, STREAM_NAME), chop_config, lexicon) for r in train_records]
    vocabularies = {stream: build_vocabulary(t[stream] for t in texts) for stream in config.inputs}
    vocabularies["output"] = build_vocabulary((t[STREAM_NAME] for t in texts), training.output_min_frequency)

    model = LemmaNameModel(config, chop_config, lexicon, vocabularies, seed=training.seed)
    train_prepared = [model.prepare(r, t) for r, t in zip(train_records, texts)]
    val_prepared = [model.prepare(r) for r in val_records]
    optimizer = AdamState()
    shuffle_rng = Rng(training.seed)
    best_state = {name: t.data.copy() for name, t in model.parameters.items()}
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
            total_nll += float(loss.data) * token_count
            total_tokens += token_count
            del loss  # the batch's graph: nothing reads it after backward
            adam_step(model.parameters, optimizer, lr=training.learning_rate)
        if val_records:
            val_top1 = model._greedy_hits(val_prepared, [r.name for r in val_records]) / len(val_records)
        else:
            val_top1 = 0.0
        if val_top1 >= best_top1:
            best_top1 = val_top1
            best_state = {name: t.data.copy() for name, t in model.parameters.items()}
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
        return LemmaNameModel(
            self.config, self.chop_config, self.lexicon, self.vocabularies, parameter_state=self.parameter_state
        )


def _header_digest(header: dict) -> str:
    """sha256 of the canonical JSON header without its own digest entry."""
    rest = {k: v for k, v in header.items() if k != "header_digest"}
    return sha256(canonical_json(rest).encode("utf-8")).hexdigest()


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
    blob = canonical_json(header).encode("utf-8")
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
    """Read and validate a checkpoint written by save_checkpoint.

    Every check of the parameters happens here, so to_model trusts them:
    the header's index must equal the shapes its config and vocabularies
    imply (compared before any value is read, since a config can imply
    any size), and every value must be finite. The state holds read-only
    views of the file's bytes; the model copies them.
    """
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
        expected = parameter_shapes(config, vocabularies)
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise CorruptCheckpoint(f"malformed header: {err}") from err
    offset = header_end
    state = {}  # read-only views of the blocks: nothing is copied or read yet
    for name, shape in entries:
        if not (
            isinstance(name, str)
            and name not in state
            and isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)  # a bool is no dimension
        ):
            raise CorruptCheckpoint(f"malformed parameter entry: name {name!r}, shape {shape!r}")
        end = offset + 8 * math.prod(shape)
        if end > len(data):
            raise CorruptCheckpoint(f"truncated parameter block: {name}")
        try:
            state[name] = np.frombuffer(data, dtype="<f8", count=(end - offset) // 8, offset=offset).reshape(shape)
        except ValueError as err:  # an empty shape with more or larger dimensions than numpy holds
            raise CorruptCheckpoint(f"malformed parameter entry: name {name!r}, shape {shape!r}") from err
        offset = end
    if offset != len(data):
        raise CorruptCheckpoint("trailing bytes after parameter blocks")
    found = {name: block.shape for name, block in state.items()}
    if found != expected:
        name = min(n for n in found.keys() | expected.keys() if found.get(n) != expected.get(n))
        raise CorruptCheckpoint(f"unusable parameters: parameter {name}: {found.get(name)} != {expected.get(name)}")
    for name, block in state.items():  # a NaN sets no flag in nn.checked, so it is caught here
        if not np.isfinite(block).all():
            raise CorruptCheckpoint(f"unusable parameters: parameter {name} holds non-finite values")
    return ModelCheckpoint(
        config=config,
        chop_config=chop_config,
        lexicon=lexicon,
        vocabularies=vocabularies,
        parameter_state=state,
    )
