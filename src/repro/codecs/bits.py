"""Bit-stream reader and writer.

General-purpose sub-byte I/O, one bit or field at a time. Bits are
written most-significant first within each byte, matching the JPEG and
MPEG conventions. No codec in this package uses it: Huffman packs and
peeks bits through Python ints (:mod:`repro.codecs.huffman`) and ADPCM
packs nibble pairs with numpy (:mod:`repro.codecs.adpcm`), because a
method call per bit would dominate their cost.
"""

from __future__ import annotations

from repro.errors import CodecError


class BitWriter:
    """Accumulates bits MSB-first into a growing byte buffer."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._accumulator = 0
        self._bit_count = 0

    def write_bit(self, bit: int) -> None:
        self._accumulator = (self._accumulator << 1) | (bit & 1)
        self._bit_count += 1
        if self._bit_count == 8:
            self._buffer.append(self._accumulator)
            self._accumulator = 0
            self._bit_count = 0

    def write_bits(self, value: int, width: int) -> None:
        """Write the ``width`` low bits of ``value``, MSB first."""
        if width < 0:
            raise CodecError(f"negative bit width {width}")
        for shift in range(width - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_unary(self, value: int) -> None:
        """Write ``value`` ones followed by a zero (for small integers)."""
        for _ in range(value):
            self.write_bit(1)
        self.write_bit(0)

    @property
    def bit_length(self) -> int:
        return len(self._buffer) * 8 + self._bit_count

    def getvalue(self) -> bytes:
        """Flush (zero-padding the final byte) and return the bytes."""
        result = bytearray(self._buffer)
        if self._bit_count:
            result.append(self._accumulator << (8 - self._bit_count))
        return bytes(result)


class BitReader:
    """Reads bits MSB-first from a byte buffer."""

    def __init__(self, data: bytes):
        self._data = data
        self._position = 0  # bit position

    @property
    def bits_remaining(self) -> int:
        return len(self._data) * 8 - self._position

    def read_bit(self) -> int:
        if self._position >= len(self._data) * 8:
            raise CodecError("bit stream exhausted")
        byte_index, bit_index = divmod(self._position, 8)
        self._position += 1
        return (self._data[byte_index] >> (7 - bit_index)) & 1

    def read_bits(self, width: int) -> int:
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def read_unary(self) -> int:
        value = 0
        while self.read_bit():
            value += 1
        return value
