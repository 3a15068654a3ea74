"""Equivalence oracle: the straightforward codec loops.

These are the per-bit, per-sample and per-coefficient implementations
the production kernels in :mod:`repro.codecs` replaced. They are slow
and obviously correct, and they define the byte format: the property
suites in ``test_codec_equivalence.py`` check that every kernel emits
exactly the bytes, and decodes exactly the arrays, these loops do.
Production code never imports this module.
"""

from __future__ import annotations

import heapq
import struct
from collections import Counter

import numpy as np

from repro.codecs import dct
from repro.codecs.adpcm import INDEX_TABLE, STEP_TABLE, AdpcmBlock
from repro.codecs.color import (
    SUBSAMPLING,
    rgb_to_yuv,
    subsample_yuv,
    upsample_yuv,
    yuv_to_rgb,
)
from repro.codecs.huffman import MAX_CODE_LENGTH, canonical_codes
from repro.codecs.rle import rle_decode
from repro.errors import CodecError

_EOB = 255
_SCHEMES = sorted(SUBSAMPLING)
_FRAME_HEADER = struct.Struct(">4sHHBB")


# -- varints -------------------------------------------------------------------

def zigzag_int(value: int) -> int:
    """The sign fold the serializers always used; exact for |v| < 2**63."""
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def unzigzag_int(value: int) -> int:
    return (value >> 1) if value % 2 == 0 else -((value + 1) >> 1)


def write_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(data: bytes, offset: int) -> tuple[int, int]:
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
    write_uvarint(out, zigzag_int(value))


def read_svarint(data: bytes, offset: int) -> tuple[int, int]:
    value, offset = read_uvarint(data, offset)
    return unzigzag_int(value), offset


# -- RLE and Huffman -----------------------------------------------------------

def rle_encode(data: bytes) -> bytes:
    """Byte-at-a-time ``(count, byte)`` run scan."""
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        byte = data[i]
        run = 1
        while run < 255 and i + run < n and data[i + run] == byte:
            run += 1
        out.append(run)
        out.append(byte)
        i += run
    return bytes(out)


def _huffman_lengths(frequencies: dict[int, int]) -> dict[int, int]:
    """Huffman tree construction carrying each node's symbol list."""
    heap = [(freq, symbol, [symbol]) for symbol, freq in frequencies.items()]
    heapq.heapify(heap)
    lengths = {symbol: 0 for symbol in frequencies}
    counter = 256
    while len(heap) > 1:
        fa, _, symbols_a = heapq.heappop(heap)
        fb, _, symbols_b = heapq.heappop(heap)
        for s in symbols_a + symbols_b:
            lengths[s] += 1
        heapq.heappush(heap, (fa + fb, counter, symbols_a + symbols_b))
        counter += 1
    return lengths


def code_lengths(data: bytes) -> list[int]:
    counts = Counter(data)
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
        frequencies = {s: max(1, f // 2) for s, f in frequencies.items()}
        if all(f == 1 for f in frequencies.values()):
            lengths = _huffman_lengths(frequencies)
            break
    result = [0] * 256
    for symbol, length in lengths.items():
        result[symbol] = length
    return result


def huffman_encode(lengths: list[int], data: bytes) -> bytes:
    """Length-framed canonical Huffman bit packing, a code at a time."""
    codes = canonical_codes(lengths)
    out = bytearray()
    accumulator = 0
    bit_count = 0
    for byte in data:
        code, length = codes[byte]
        accumulator = (accumulator << length) | code
        bit_count += length
        while bit_count >= 8:
            bit_count -= 8
            out.append((accumulator >> bit_count) & 0xFF)
        accumulator &= (1 << bit_count) - 1
    if bit_count:
        out.append((accumulator << (8 - bit_count)) & 0xFF)
    return len(data).to_bytes(4, "big") + bytes(out)


def huffman_decode(lengths: list[int], data: bytes) -> bytes:
    """Per-bit decode against a ``(length, code) -> symbol`` dict."""
    if len(data) < 4:
        raise CodecError("huffman frame too short")
    table = {(length, code): symbol
             for symbol, (code, length) in canonical_codes(lengths).items()}
    count = int.from_bytes(data[:4], "big")
    payload = data[4:]
    out = bytearray()
    max_length = max(lengths) if any(lengths) else 0
    total_bits = len(payload) * 8
    bit_position = 0
    for _ in range(count):
        code = 0
        length = 0
        while True:
            if bit_position >= total_bits:
                raise CodecError("bit stream exhausted")
            bit = (payload[bit_position >> 3]
                   >> (7 - (bit_position & 7))) & 1
            bit_position += 1
            code = (code << 1) | bit
            length += 1
            symbol = table.get((length, code))
            if symbol is not None:
                out.append(symbol)
                break
            if length > max_length:
                raise CodecError("invalid huffman bit stream")
    return bytes(out)


def huffman_compress(data: bytes) -> bytes:
    """Build the codebook, encode, and only then compare with raw."""
    lengths = code_lengths(data)
    header = rle_encode(bytes(lengths))
    framed = (bytes([1]) + len(header).to_bytes(2, "big") + header
              + huffman_encode(lengths, data))
    raw = bytes([0]) + data
    return raw if len(raw) <= len(framed) else framed


# -- coefficient serializer ----------------------------------------------------

def encode_plane_coefficients(quantized: np.ndarray) -> bytes:
    vectors = dct.zigzag_scan(quantized)
    out = bytearray()
    previous_dc = 0
    for vector in vectors.tolist():
        write_svarint(out, vector[0] - previous_dc)
        previous_dc = vector[0]
        previous = 0
        for position in range(1, 64):
            level = vector[position]
            if level:
                out.append(position - previous - 1)
                previous = position
                write_svarint(out, level)
        out.append(_EOB)
    return bytes(out)


def decode_plane_coefficients(data: bytes, block_count: int) -> np.ndarray:
    """Per-coefficient numpy writes into a preallocated block array."""
    vectors = np.zeros((block_count, 64), dtype=np.int16)
    offset = 0
    previous_dc = 0
    for index in range(block_count):
        delta, offset = read_svarint(data, offset)
        previous_dc += delta
        vectors[index, 0] = previous_dc
        position = 0
        while True:
            if offset >= len(data):
                raise CodecError("coefficient stream exhausted mid-block")
            run = data[offset]
            offset += 1
            if run == _EOB:
                break
            position += run + 1
            if position > 63:
                raise CodecError(f"AC position {position} out of range")
            level, offset = read_svarint(data, offset)
            vectors[index, position] = level
    return dct.zigzag_unscan(vectors)


# -- JPEG-like frames, one DCT per plane ----------------------------------------

def jpeg_encode(frame: np.ndarray, quality: int, subsampling: str) -> bytes:
    luma = dct.scale_quant_table(dct.LUMA_QUANT, quality)
    chroma = dct.scale_quant_table(dct.CHROMA_QUANT, quality)
    y, u, v = subsample_yuv(*rgb_to_yuv(frame), subsampling)
    h, w = frame.shape[:2]
    parts = [_FRAME_HEADER.pack(b"RJ1\x00", w, h, quality,
                                _SCHEMES.index(subsampling))]
    for plane, table in ((y, luma), (u, chroma), (v, chroma)):
        blocks, _ = dct.to_blocks(plane - 128.0)
        quantized = dct.quantize(dct.forward_dct(blocks), table)
        blob = huffman_compress(encode_plane_coefficients(quantized))
        parts.append(struct.pack(">I", len(blob)))
        parts.append(blob)
    return b"".join(parts)


def jpeg_decode(data: bytes) -> np.ndarray:
    _, w, h, quality, scheme_code = _FRAME_HEADER.unpack_from(data)
    scheme = _SCHEMES[scheme_code]
    fy, fx = SUBSAMPLING[scheme]
    luma = dct.scale_quant_table(dct.LUMA_QUANT, quality)
    chroma = dct.scale_quant_table(dct.CHROMA_QUANT, quality)
    chroma_shape = ((h + fy - 1) // fy, (w + fx - 1) // fx)
    offset = _FRAME_HEADER.size
    planes = []
    for shape, table in (((h, w), luma), (chroma_shape, chroma),
                         (chroma_shape, chroma)):
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        blob = data[offset:offset + length]
        offset += length
        if blob[0] == 0:
            symbols = blob[1:]
        else:
            header_end = 3 + int.from_bytes(blob[1:3], "big")
            header = rle_decode(blob[3:header_end])
            symbols = huffman_decode(list(header), blob[header_end:])
        rows = (shape[0] + dct.BLOCK - 1) // dct.BLOCK
        cols = (shape[1] + dct.BLOCK - 1) // dct.BLOCK
        quantized = decode_plane_coefficients(symbols, rows * cols)
        blocks = dct.inverse_dct(dct.dequantize(quantized, table))
        planes.append(dct.from_blocks(blocks, shape) + 128.0)
    return yuv_to_rgb(*upsample_yuv(*planes, scheme))


# -- IMA ADPCM, one function call per sample ---------------------------------------

def _encode_sample(sample: int, state: list[int]) -> int:
    predictor, step_index = state
    step = STEP_TABLE[step_index]
    diff = sample - predictor
    nibble = 0
    if diff < 0:
        nibble = 8
        diff = -diff
    delta = step >> 3
    if diff >= step:
        nibble |= 4
        diff -= step
        delta += step
    step >>= 1
    if diff >= step:
        nibble |= 2
        diff -= step
        delta += step
    step >>= 1
    if diff >= step:
        nibble |= 1
        delta += step
    if nibble & 8:
        predictor -= delta
    else:
        predictor += delta
    predictor = max(-32768, min(32767, predictor))
    step_index += INDEX_TABLE[nibble & 7]
    step_index = max(0, min(88, step_index))
    state[0] = predictor
    state[1] = step_index
    return nibble


def _decode_nibble(nibble: int, state: list[int]) -> int:
    predictor, step_index = state
    step = STEP_TABLE[step_index]
    delta = step >> 3
    if nibble & 4:
        delta += step
    if nibble & 2:
        delta += step >> 1
    if nibble & 1:
        delta += step >> 2
    if nibble & 8:
        predictor -= delta
    else:
        predictor += delta
    predictor = max(-32768, min(32767, predictor))
    step_index += INDEX_TABLE[nibble & 7]
    step_index = max(0, min(88, step_index))
    state[0] = predictor
    state[1] = step_index
    return predictor


def _pack(nibbles: list[int]) -> bytes:
    out = bytearray()
    for i in range(0, len(nibbles) - 1, 2):
        out.append(nibbles[i] | (nibbles[i + 1] << 4))
    if len(nibbles) % 2:
        out.append(nibbles[-1])
    return bytes(out)


def adpcm_encode_block(samples: np.ndarray, predictor: int,
                       step_index: int) -> bytes:
    state = [int(predictor), int(step_index)]
    return _pack([_encode_sample(int(sample), state) for sample in samples])


def adpcm_decode_block(data: bytes, count: int, predictor: int,
                       step_index: int) -> np.ndarray:
    state = [int(predictor), int(step_index)]
    samples = np.empty(count, dtype=np.int16)
    for i in range(count):
        byte = data[i // 2]
        nibble = (byte >> 4) if i % 2 else (byte & 0x0F)
        samples[i] = _decode_nibble(nibble, state)
    return samples


def adpcm_encode_blocks(samples: np.ndarray,
                        block_samples: int) -> list[AdpcmBlock]:
    samples = np.asarray(samples).astype(np.int16)
    blocks = []
    state = [0, 0]
    for begin in range(0, len(samples), block_samples):
        chunk = samples[begin:begin + block_samples]
        predictor, step_index = state
        nibbles = [_encode_sample(int(sample), state) for sample in chunk]
        blocks.append(AdpcmBlock(predictor, step_index, len(chunk),
                                 _pack(nibbles)))
    return blocks
