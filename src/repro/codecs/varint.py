"""Variable-length integer coding (LEB128 + zigzag sign folding).

Shared by the JPEG-like and MPEG-like coefficient serializers and the
MIDI delta-time encoder. A varint carries at most ten 7-bit groups
(:data:`MAX_UVARINT`); writers refuse anything a reader would reject,
so every value written reads back unchanged.
"""

from __future__ import annotations

from repro.errors import CodecError

#: Largest unsigned value :func:`read_uvarint` accepts (ten 7-bit groups).
MAX_UVARINT = (1 << 70) - 1


def zigzag_int(value: int) -> int:
    """Fold a signed int to unsigned: 0,-1,1,-2,2 -> 0,1,2,3,4."""
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def unzigzag_int(value: int) -> int:
    """Invert :func:`zigzag_int`."""
    return (value >> 1) if value % 2 == 0 else -((value + 1) >> 1)


def write_uvarint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise CodecError(f"uvarint cannot encode negative value {value}")
    if value > MAX_UVARINT:
        raise CodecError(f"uvarint cannot encode {value}: more than 70 bits")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(data: bytes, offset: int) -> tuple[int, int]:
    """Read an unsigned varint at ``offset``; return (value, new_offset)."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("varint stream exhausted")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


def write_svarint(out: bytearray, value: int) -> None:
    """Append a signed (zigzag-folded) varint."""
    write_uvarint(out, zigzag_int(value))


def read_svarint(data: bytes, offset: int) -> tuple[int, int]:
    """Read a signed (zigzag-folded) varint."""
    value, offset = read_uvarint(data, offset)
    return unzigzag_int(value), offset
