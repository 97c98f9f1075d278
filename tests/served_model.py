"""The float32 model that `ModelCheckpoint.to_model` serves, against the float64 model of the same checkpoint.

`train` and the checkpoint's blocks are float64; `float64_model` builds
the model that computes in float64 from those blocks, as the tests that
measure float64 arithmetic need. The bounds below are what a served
model's numbers may differ by from that model's, each derived from
float32's machine epsilon.
"""

import numpy as np

from lemname.model import LemmaNameModel
from lemname.nn import backward

EPS = float(np.finfo(np.float32).eps)  # 2**-23; each float32 operation rounds to within EPS / 2, relative

# A score is a mean of log-probabilities, so it is off by at most its worst
# log-probability's error, and log(p (1 + d)) = log p + d to first order: the
# relative error d of the probability. To first order, d sums one rounding
# of at most EPS / 2 per operation on the longest chain from the parameters
# (cast once to float32) to that probability, since tanh, sigmoid and the
# GRU's convex state update pass an error on at most at its own size. The
# chain is about ten operations per GRU step over at most 96 encoder and 16
# decoder steps, plus the attention, output and copy head: under 2**10
# operations. The softmax doubles an error in its logits, so
# d < 2 * 2**10 * EPS / 2. The fixtures read at most 65 EPS (7.6e-6).
SCORE_BOUND = 2**10 * EPS  # about 1.2e-4

# A gradient runs the same chain back again, so twice a score's bound,
# relative to each parameter's largest gradient entry.
GRADIENT_BOUND = 2 * SCORE_BOUND


def float64_model(checkpoint) -> LemmaNameModel:
    """The model of the checkpoint's float64 blocks, computing in float64 as `train` does."""
    return LemmaNameModel(
        checkpoint.config,
        checkpoint.chop_config,
        checkpoint.lexicon,
        checkpoint.vocabularies,
        parameter_state=checkpoint.parameter_state,
    )


def assert_same_suggestions(served, reference, bound=SCORE_BOUND):
    """Per record, the same names and sub-tokens in the same order, and scores within `bound`."""
    assert len(served) == len(reference)
    for got, want in zip(served, reference):
        assert [(s.name, s.sub_tokens) for s in got] == [(s.name, s.sub_tokens) for s in want]
        np.testing.assert_allclose([s.score for s in got], [s.score for s in want], rtol=0, atol=bound)


def assert_close_gradients(served, reference, build_loss):
    """The served model's loss within SCORE_BOUND of the reference's, and its float32 gradients within GRADIENT_BOUND."""
    losses = []
    for model in (served, reference):
        loss = build_loss(model)
        backward(loss, model.parameters)
        losses.append(float(loss.data))
    assert abs(losses[0] - losses[1]) <= SCORE_BOUND
    for name, tensor in served.parameters.items():
        want = reference.parameters[name].grad
        assert tensor.data.dtype == tensor.grad.dtype == np.float32, name
        scale = float(np.abs(want).max())
        assert np.abs(tensor.grad - want).max() <= GRADIENT_BOUND * scale, name

