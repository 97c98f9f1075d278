"""Full-width beam search: the oracle for LemmaNameModel.suggest_many.

Every step decodes all records x k rows, live or not, through the
model's own encoder and decoder step. suggest_many decodes only the rows
that hold live hypotheses and must return exactly what this returns.
"""

import numpy as np

from lemname.corpus import BOS_ID, EOS_ID, PAD_ID, UNK_ID
from lemname.model import _LOG_FLOOR, LemmaNameModel
from lemname.nn import Tensor, checked


@checked()
def full_width_suggest_many(model, records, k: int) -> list:
    """Top-k names per record, decoding every one of the records x k rows at every step."""
    prepared = [model.prepare(r) for r in records]
    out_texts = model.vocabularies["output"].texts
    base = len(out_texts)
    ext_texts = [out_texts + p.oov_texts for p in prepared]
    batch = model._encode(prepared, keep_graph=False)
    rows = len(prepared) * k
    ext_sizes = np.repeat([len(texts) for texts in ext_texts], k)
    state = Tensor(np.repeat(batch.state.data, k, axis=0))
    input_ids = np.full(rows, BOS_ID, dtype=np.int64)
    # Row r * k + j holds hypothesis j of record r as (texts, summed
    # logp); None marks a free slot.
    beams = [((), 0.0) if row % k == 0 else None for row in range(rows)]
    done: list = [[] for _ in prepared]  # per record: (texts, summed logp, steps)
    for step in range(model.config.max_output_len):
        if not any(beams):
            break
        state, probs = model._distribution(state, input_ids, batch)
        logp = np.log(probs + _LOG_FLOOR)
        logp[:, [PAD_ID, UNK_ID, BOS_ID, EOS_ID] if step == 0 else [PAD_ID, UNK_ID, BOS_ID]] = -np.inf
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
    return [LemmaNameModel._ranked(finished, k) for finished in done]
