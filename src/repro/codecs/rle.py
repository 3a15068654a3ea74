"""Byte-level run-length encoding.

The simplest compression substrate: used on its own for synthetic flat
imagery and as a building block elsewhere. The format is a sequence of
``(count, byte)`` pairs with ``count`` in 1..255 — decodable without any
side information, and never worse than 2x expansion.
"""

from __future__ import annotations

import re

from repro.errors import CodecError

#: One run: a byte followed by up to 254 repeats of itself.
_RUN = re.compile(rb"(.)\1{0,254}", re.DOTALL)


def rle_encode(data: bytes) -> bytes:
    """Encode ``data`` as ``(count, byte)`` pairs, one match per run."""
    out = bytearray()
    for run in _RUN.finditer(data):
        start, end = run.span()
        out.append(end - start)
        out.append(data[start])
    return bytes(out)


def rle_decode(data: bytes) -> bytes:
    """Invert :func:`rle_encode`."""
    if len(data) % 2:
        raise CodecError(f"RLE data has odd length {len(data)}")
    out = bytearray()
    for i in range(0, len(data), 2):
        count = data[i]
        if count == 0:
            raise CodecError(f"zero run length at offset {i}")
        out.extend(data[i + 1:i + 2] * count)
    return bytes(out)


def rle_ratio(data: bytes) -> float:
    """Compression ratio achieved on ``data`` (original/encoded)."""
    if not data:
        return 1.0
    return len(data) / len(rle_encode(data))
