"""Hypothesis strategies that damage a valid file, binary or text."""

from hypothesis import strategies as st


def damaged(blob: bytes) -> st.SearchStrategy[bytes]:
    """``blob`` truncated, with one byte changed, or with bytes appended."""
    n = len(blob)
    truncated = st.integers(0, n - 1).map(lambda k: blob[:k])
    flipped = st.tuples(st.integers(0, n - 1), st.integers(1, 255)).map(
        lambda kx: blob[:kx[0]] + bytes([blob[kx[0]] ^ kx[1]]) + blob[kx[0] + 1:])
    appended = st.binary(min_size=1, max_size=16).map(lambda extra: blob + extra)
    return st.one_of(truncated, flipped, appended)
