"""Canonical Huffman coding over byte symbols.

The entropy-coding substrate for the JPEG-like and MPEG-like codecs. The
code is *canonical*: only the per-symbol code lengths need to be stored
(256 bytes of header), and both encoder and decoder rebuild identical
codebooks from them.

Code lengths are capped at 15 bits by flattening the frequency
distribution when needed (the classic JPEG-style length limit), so the
header stays one byte per symbol.
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import compress

from repro.codecs.rle import rle_decode, rle_encode
from repro.errors import CodecError

MAX_CODE_LENGTH = 15


def code_lengths(data: bytes) -> list[int]:
    """Per-symbol (0..255) code lengths for ``data``.

    Symbols absent from ``data`` get length 0. A single-symbol input gets
    length 1 (a zero-length code cannot be emitted).
    """
    return _lengths_from_counts(Counter(data))


def _lengths_from_counts(counts: Counter) -> list[int]:
    if not counts:
        return [0] * 256
    if len(counts) == 1:
        lengths = [0] * 256
        lengths[next(iter(counts))] = 1
        return lengths

    frequencies = dict(counts)
    while True:
        lengths = _huffman_lengths(frequencies)
        if max(lengths.values()) <= MAX_CODE_LENGTH:
            break
        # Flatten the distribution and retry; guaranteed to terminate
        # because in the limit all frequencies are equal (length <= 8).
        frequencies = {
            s: max(1, f // 2) for s, f in frequencies.items()
        }
        if all(f == 1 for f in frequencies.values()):
            lengths = _huffman_lengths(frequencies)
            break

    result = [0] * 256
    for symbol, length in lengths.items():
        result[symbol] = length
    return result


def _huffman_lengths(frequencies: dict[int, int]) -> dict[int, int]:
    """Standard Huffman tree construction returning code lengths.

    Nodes are ``(frequency, id)`` heap entries: leaves carry their
    symbol as id, merged nodes ids from 256 up in creation order, which
    also breaks frequency ties. Only parent links are recorded; since a
    parent is always created after its children, one pass from the root
    (the last id) down assigns every depth.
    """
    heap = [(freq, symbol) for symbol, freq in frequencies.items()]
    heapq.heapify(heap)
    parent = [0] * 512
    node = 256
    pop, replace = heapq.heappop, heapq.heapreplace
    while len(heap) > 1:
        fa, a = pop(heap)
        fb, b = heap[0]
        replace(heap, (fa + fb, node))
        parent[a] = parent[b] = node
        node += 1
    depth = [0] * 512
    for internal in range(node - 2, 255, -1):
        depth[internal] = depth[parent[internal]] + 1
    return {symbol: depth[parent[symbol]] + 1 for symbol in frequencies}


def canonical_codes(lengths: list[int]) -> dict[int, tuple[int, int]]:
    """Canonical ``symbol -> (code, length)`` assignment from lengths.

    Codes are assigned in (length, symbol) order, the canonical rule that
    lets the decoder reconstruct the table from lengths alone. Lengths
    outside ``0..MAX_CODE_LENGTH`` raise :class:`CodecError`, and so does
    a set that over-subscribes the code space (Kraft sum above 1): it
    runs a code past its length's range.
    """
    # A stable sort by length keeps symbols ascending within a length.
    ordered = sorted(compress(range(len(lengths)), lengths),
                     key=lengths.__getitem__)
    if ordered and not (lengths[ordered[0]] > 0
                        and lengths[ordered[-1]] <= MAX_CODE_LENGTH):
        raise CodecError(
            f"huffman code lengths must lie in 0..{MAX_CODE_LENGTH}")
    codes: dict[int, tuple[int, int]] = {}
    code = 0
    previous_length = 0
    for symbol in ordered:
        length = lengths[symbol]
        code <<= (length - previous_length)
        if code >> length:
            raise CodecError("over-subscribed huffman code lengths")
        codes[symbol] = (code, length)
        code += 1
        previous_length = length
    return codes


class HuffmanCodec:
    """Encode/decode byte strings with a canonical Huffman code.

    Lengths must lie in ``0..MAX_CODE_LENGTH`` and satisfy Kraft's
    inequality; anything else — such as a hostile header — raises
    :class:`CodecError` here, before a decode table is sized.
    """

    def __init__(self, lengths: list[int]):
        if len(lengths) != 256:
            raise CodecError(f"need 256 code lengths, got {len(lengths)}")
        self.lengths = list(lengths)
        self.codes = canonical_codes(self.lengths)
        self._max_length = max(
            (length for _, length in self.codes.values()), default=0)
        self._table: list[int] | None = None

    @classmethod
    def for_data(cls, data: bytes) -> "HuffmanCodec":
        return cls(code_lengths(data))

    def encode(self, data: bytes) -> bytes:
        """Encode; the result is framed with the original length.

        Each symbol maps to its code as a ``'0'/'1'`` string; the joined
        string converts to an int (linear for base 2) and then to bytes,
        zero-padded on the right to a whole byte.
        """
        bits = {symbol: format(code, f"0{length}b")
                for symbol, (code, length) in self.codes.items()}
        try:
            stream = "".join(map(bits.__getitem__, data))
        except KeyError as missing:
            raise CodecError(
                f"symbol {missing.args[0]} not in codebook") from None
        pad = -len(stream) % 8
        size = (len(stream) + pad) // 8
        payload = (int(stream, 2) << pad).to_bytes(size, "big") if stream \
            else b""
        return len(data).to_bytes(4, "big") + payload

    def _lookup(self) -> list[int]:
        """The ``2**max_length`` decode table, built on first use.

        Entry ``i`` describes the code that prefixes the ``max_length``-bit
        window ``i``: ``symbol << 4 | length``, or 0 where no code does
        (an incomplete code's unused space).
        """
        if self._table is None:
            width = self._max_length
            table = [0] * (1 << width)
            for symbol, (code, length) in self.codes.items():
                span = 1 << (width - length)
                start = code * span
                table[start:start + span] = [(symbol << 4) | length] * span
            self._table = table
        return self._table

    def decode(self, data: bytes) -> bytes:
        """Decode a frame from :meth:`encode`, one table lookup a symbol.

        A 64-bit refill keeps at least ``max_length`` unread bits in an
        accumulator; each symbol peeks that window, looks up its code and
        consumes only the code's length. The payload is zero-padded so
        the last window can be peeked, and any symbol reaching into the
        padding raises :class:`CodecError`.
        """
        if len(data) < 4:
            raise CodecError("huffman frame too short")
        count = int.from_bytes(data[:4], "big")
        payload = bytes(data[4:])
        total_bits = len(payload) * 8
        if count > total_bits:
            # Every code is at least one bit long.
            raise CodecError(
                f"huffman frame claims {count} symbols in {total_bits} bits"
            )
        if not count:
            return b""
        width = self._max_length
        if not width:
            raise CodecError("invalid huffman bit stream")
        table = self._lookup()
        mask = (1 << width) - 1
        padded = payload + bytes(16)
        # Past this refill position more than ``total_bits`` are consumed.
        limit = len(payload) + 8
        from_bytes = int.from_bytes
        out = bytearray(count)
        accumulator = 0
        available = 0
        position = 0
        for index in range(count):
            if available < width:
                if position >= limit:
                    raise CodecError("bit stream exhausted")
                accumulator = (
                    (accumulator & ((1 << available) - 1)) << 64
                ) | from_bytes(padded[position:position + 8], "big")
                position += 8
                available += 64
            entry = table[(accumulator >> (available - width)) & mask]
            if not entry:
                raise CodecError("invalid huffman bit stream")
            available -= entry & 15
            out[index] = entry >> 4
        if position * 8 - available > total_bits:
            raise CodecError("bit stream exhausted")
        return bytes(out)

    def header(self) -> bytes:
        """The 256-byte code-length header."""
        return bytes(self.lengths)

    @classmethod
    def from_header(cls, header: bytes) -> "HuffmanCodec":
        if len(header) != 256:
            raise CodecError(f"huffman header must be 256 bytes, got {len(header)}")
        return cls(list(header))


#: Mode bytes for the one-shot container: raw passthrough or Huffman
#: with an RLE-compacted code-length header.
_MODE_RAW = 0
_MODE_HUFFMAN = 1


def huffman_compress(data: bytes) -> bytes:
    """One-shot container: whichever of raw / Huffman-coded is smaller.

    The Huffman form stores the 256 code lengths RLE-compressed (sparse
    alphabets shrink to a few dozen bytes), so small payloads — all-zero
    P-frame residuals, for instance — don't pay a fixed 256-byte tax.
    Its size follows from the code lengths and symbol counts alone
    (mode, header length, header, symbol count, packed bits), so the
    codebook is built and the bits packed only when Huffman wins; ties
    go to raw.
    """
    counts = Counter(data)
    lengths = _lengths_from_counts(counts)
    header = rle_encode(bytes(lengths))
    bits = sum(count * lengths[symbol] for symbol, count in counts.items())
    if 1 + len(data) <= 3 + len(header) + 4 + (bits + 7) // 8:
        return bytes([_MODE_RAW]) + data
    return (
        bytes([_MODE_HUFFMAN])
        + len(header).to_bytes(2, "big")
        + header
        + HuffmanCodec(lengths).encode(data)
    )


def huffman_decompress(data: bytes) -> bytes:
    """Invert :func:`huffman_compress`."""
    if not data:
        raise CodecError("empty huffman container")
    mode = data[0]
    if mode == _MODE_RAW:
        return data[1:]
    if mode != _MODE_HUFFMAN:
        raise CodecError(f"unknown huffman container mode {mode}")
    if len(data) < 3:
        raise CodecError("huffman container too short")
    header_length = int.from_bytes(data[1:3], "big")
    header_end = 3 + header_length
    if header_end > len(data):
        raise CodecError("huffman container header truncated")
    header = rle_decode(data[3:header_end])
    codec = HuffmanCodec.from_header(header)
    return codec.decode(data[header_end:])
