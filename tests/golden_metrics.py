"""Hand-derived golden values of the metrics, each with the case it scores.

The BLEU case is a correct 3-sub-token prefix of a 5-sub-token reference:
every 1..3-gram matches, the 4-gram precision smooths to 1, so the score
is the brevity penalty exp(1-5/3).
"""

GOLDEN_BLEU_PREFIX = 0.513417119032592
GOLDEN_BLEU_PREFIX_CASE = (("mg", "_", "eq"), ("mg", "_", "eq", "_", "nerode"))
# One fragment of two differs: extprod matches, mulgC vs mulgA does not.
GOLDEN_FRAGMENT_SUFFIX_SWAP = 0.5
GOLDEN_FRAGMENT_SUFFIX_SWAP_CASE = ("extprod_mulgC", "extprod_mulgA")
# Fragmentations disagree ([mul, gA] vs [mulgA]): no positional match.
GOLDEN_FRAGMENT_SPLIT_DISAGREEMENT = 0.0
GOLDEN_FRAGMENT_SPLIT_DISAGREEMENT_CASE = ("mul_gA", "mulgA")
