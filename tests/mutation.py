"""Byte-level mutations for property tests of untrusted input.

An edit replaces up to `cut` bytes at a relative position with a splice.
Most splices keep the text balanced, so the input gets past the parser
and reaches the checks behind it: an atom, an empty or small list, a
qualified name without components, a non-ASCII digit, bytes that are not
UTF-8, a NUL byte. The rest break the syntax.
"""

from hypothesis import strategies as st

SPLICE_POOL = [
    b"x", b"0", b"_", b"'", b" ", b"()", b"(a b)", b"(Qualid)", b"(loc)", "²".encode(), b"\xff\xfe", b"\x00",
    b"(", b")", b'"', b"\\", b"{", b"}", b",",
]
SPLICES = st.sampled_from(SPLICE_POOL) | st.binary(max_size=6)
EDITS = st.tuples(st.floats(0, 1), st.integers(0, 2), SPLICES)


def mutated(text: bytes, edits) -> bytes:
    for where, cut, splice in edits:
        at = int(where * len(text))
        text = text[:at] + splice + text[at + cut :]
    return text
