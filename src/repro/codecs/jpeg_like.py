"""JPEG-like intra-frame image/video compression.

A real (simplified) implementation of the pipeline the paper's Figure 2
describes — "The YUV frames are then JPEG compressed using a quality
factor resulting in about 0.5 bits per pixel (this will give VHS
quality)":

1. RGB -> YUV (BT.601), chroma subsampled (default 4:2:2, the paper's
   "YUV 8:2:2");
2. per plane: 8x8 blocks, level-shifted, orthonormal DCT;
3. quantization with Annex-K tables scaled by an IJG-style quality
   factor (this is the hidden parameter a descriptive quality factor
   maps to — see :mod:`repro.core.quality`);
4. DC delta coding + AC (run, level) coding in zigzag order;
5. canonical Huffman entropy coding.

Because frames are compressed independently, encoded sizes vary frame to
frame — exactly the property that forces Figure 2's explicit placement
table ("the encoded video frames are variable sized ... the mapping from
element number to BLOB placement is not a simple multiplication").

Frame format (big-endian)::

    magic 'RJ1\\0' | width u16 | height u16 | quality u8 | scheme u8
    then per plane (Y, U, V): payload length u32 | huffman blob
"""

from __future__ import annotations

import struct

import numpy as np

from repro.codecs import dct
from repro.codecs.base import Codec
from repro.codecs.color import (
    SUBSAMPLING,
    rgb_to_yuv,
    subsample_yuv,
    upsample_yuv,
    yuv_to_rgb,
)
from repro.codecs.huffman import huffman_compress, huffman_decompress
from repro.codecs.varint import read_uvarint, write_uvarint
from repro.errors import CodecError

_MAGIC = b"RJ1\x00"
_HEADER = struct.Struct(">4sHHBB")
_SCHEMES = sorted(SUBSAMPLING)

#: End-of-block marker in the (run, level) token stream. Runs are at most
#: 62, so 255 is unambiguous where a run byte is expected.
_EOB = 255

#: Natural (row-major) index within a block of each zigzag position.
_NATURAL = tuple(dct.ZIGZAG.tolist())


def encode_plane_coefficients(quantized: np.ndarray) -> bytes:
    """Serialize quantized ``(n, 8, 8)`` blocks as a symbol byte stream.

    Per block: signed varint of the DC delta (vs the previous block's
    DC), then (run, level) pairs over the 63 AC coefficients in zigzag
    order, terminated by an end-of-block byte. Quantized levels almost
    always zigzag-fold below 128, so the one-byte varint is written
    inline and only larger values go through :func:`write_uvarint`.
    """
    vectors = dct.zigzag_scan(quantized)
    block_count = vectors.shape[0]
    # Vectorize the sparse structure once: DC values and the global
    # (block, position, value) triplets of nonzero AC coefficients.
    dc = vectors[:, 0].tolist()
    ac = vectors[:, 1:]
    block_index, position = np.nonzero(ac)
    values = ac[block_index, position].tolist()
    block_index = block_index.tolist()
    position = position.tolist()

    out = bytearray()
    append = out.append
    pointer = 0
    total = len(block_index)
    previous_dc = 0
    for block in range(block_count):
        value = dc[block] - previous_dc
        previous_dc = dc[block]
        folded = value << 1 if value >= 0 else ((-value) << 1) - 1
        if folded < 0x80:
            append(folded)
        else:
            write_uvarint(out, folded)
        previous = -1
        while pointer < total and block_index[pointer] == block:
            pos = position[pointer]
            append(pos - previous - 1)
            previous = pos
            value = values[pointer]
            folded = value << 1 if value >= 0 else ((-value) << 1) - 1
            if folded < 0x80:
                append(folded)
            else:
                write_uvarint(out, folded)
            pointer += 1
        append(_EOB)
    return bytes(out)


def decode_plane_coefficients(data: bytes, block_count: int) -> np.ndarray:
    """Invert :func:`encode_plane_coefficients`.

    Every block takes at least two bytes (its DC varint and the
    end-of-block marker), so a ``block_count`` the stream cannot hold —
    a hostile frame header claiming a huge plane — raises
    :class:`CodecError` before anything is allocated. Coefficients are
    gathered as (flat index, level) lists, in natural block order, and
    written into the result with one numpy assignment.
    """
    if block_count * 2 > len(data):
        raise CodecError(
            f"coefficient stream of {len(data)} bytes cannot hold "
            f"{block_count} blocks"
        )
    natural = _NATURAL
    indices: list[int] = []
    levels: list[int] = []
    add_index = indices.append
    add_level = levels.append
    size = len(data)
    offset = 0
    previous_dc = 0
    for base in range(0, block_count * 64, 64):
        # The DC delta: a varint, inline for its one-byte form.
        if offset >= size:
            raise CodecError("varint stream exhausted")
        folded = data[offset]
        if folded < 0x80:
            offset += 1
        else:
            folded, offset = read_uvarint(data, offset)
        previous_dc += -((folded + 1) >> 1) if folded & 1 else folded >> 1
        add_index(base)
        add_level(previous_dc)
        position = 0
        while True:
            if offset >= size:
                raise CodecError("coefficient stream exhausted mid-block")
            run = data[offset]
            offset += 1
            if run == _EOB:
                break
            position += run + 1
            if position > 63:
                raise CodecError(f"AC position {position} out of range")
            if offset >= size:
                raise CodecError("varint stream exhausted")
            folded = data[offset]
            if folded < 0x80:
                offset += 1
            else:
                folded, offset = read_uvarint(data, offset)
            add_index(base + natural[position])
            add_level(-((folded + 1) >> 1) if folded & 1 else folded >> 1)
    flat = np.zeros(block_count * 64, dtype=np.int16)
    try:
        flat[indices] = np.array(levels, dtype=np.int16)
    except OverflowError:
        raise CodecError("coefficient level outside the int16 range") from None
    return flat.reshape(-1, dct.BLOCK, dct.BLOCK)


def _forward(planes, tables) -> list[np.ndarray]:
    """Level-shift, DCT and quantize several planes with one DCT call."""
    stacks = [dct.to_blocks(plane - 128.0)[0] for plane in planes]
    coefficients = dct.forward_dct(np.concatenate(stacks))
    quantized = []
    start = 0
    for stack, table in zip(stacks, tables):
        end = start + len(stack)
        quantized.append(dct.quantize(coefficients[start:end], table))
        start = end
    return quantized


def _inverse(quantized, tables, shapes) -> list[np.ndarray]:
    """Dequantize and inverse-DCT several planes with one DCT call."""
    blocks = dct.inverse_dct(np.concatenate([
        dct.dequantize(stack, table)
        for stack, table in zip(quantized, tables)
    ]))
    planes = []
    start = 0
    for stack, shape in zip(quantized, shapes):
        end = start + len(stack)
        planes.append(dct.from_blocks(blocks[start:end], shape) + 128.0)
        start = end
    return planes


def _block_count(shape: tuple[int, int]) -> int:
    h, w = shape
    return ((h + dct.BLOCK - 1) // dct.BLOCK) * ((w + dct.BLOCK - 1) // dct.BLOCK)


class JpegLikeCodec(Codec):
    """Intra-frame codec over uint8 RGB frames.

    Parameters
    ----------
    quality:
        1..100 IJG-style quality (the hidden parameter behind the
        descriptive quality factors of :mod:`repro.core.quality`).
    subsampling:
        Chroma scheme; the paper's example uses ``"4:2:2"``.
    """

    name = "jpeg-like"

    def __init__(self, quality: int = 50, subsampling: str = "4:2:2"):
        if subsampling not in SUBSAMPLING:
            raise CodecError(f"unknown subsampling {subsampling!r}")
        self.quality = quality
        self.subsampling = subsampling
        self._tables = dct.quant_tables(quality)

    @property
    def is_lossy(self) -> bool:
        return True

    def encode(self, payload: np.ndarray) -> bytes:
        """Encode one ``(h, w, 3)`` uint8 RGB frame."""
        planes = subsample_yuv(*rgb_to_yuv(payload), self.subsampling)
        h, w = payload.shape[:2]
        scheme_code = _SCHEMES.index(self.subsampling)
        parts = [_HEADER.pack(_MAGIC, w, h, self.quality, scheme_code)]
        luma, chroma = self._tables
        for quantized in _forward(planes, (luma, chroma, chroma)):
            blob = huffman_compress(encode_plane_coefficients(quantized))
            parts.append(struct.pack(">I", len(blob)))
            parts.append(blob)
        return b"".join(parts)

    def decode(self, data: bytes) -> np.ndarray:
        """Decode back to a uint8 RGB frame."""
        if len(data) < _HEADER.size:
            raise CodecError("frame too short for header")
        magic, w, h, quality, scheme_code = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise CodecError(f"bad magic {magic!r}")
        if scheme_code >= len(_SCHEMES):
            raise CodecError(f"bad subsampling code {scheme_code}")
        scheme = _SCHEMES[scheme_code]
        fy, fx = SUBSAMPLING[scheme]
        luma, chroma = dct.quant_tables(quality)
        chroma_shape = ((h + fy - 1) // fy, (w + fx - 1) // fx)
        shapes = ((h, w), chroma_shape, chroma_shape)
        offset = _HEADER.size
        quantized = []
        for shape in shapes:
            if offset + 4 > len(data):
                raise CodecError("frame truncated before a plane")
            (length,) = struct.unpack_from(">I", data, offset)
            offset += 4
            if offset + length > len(data):
                raise CodecError("frame truncated inside a plane")
            symbols = huffman_decompress(data[offset:offset + length])
            quantized.append(
                decode_plane_coefficients(symbols, _block_count(shape)))
            offset += length
        planes = _inverse(quantized, (luma, chroma, chroma), shapes)
        return yuv_to_rgb(*upsample_yuv(*planes, scheme))

    def bits_per_pixel(self, frame: np.ndarray) -> float:
        """Measured encoded bits per pixel for ``frame``."""
        encoded = self.encode(frame)
        h, w = frame.shape[:2]
        return len(encoded) * 8 / (h * w)


def psnr(original: np.ndarray, decoded: np.ndarray) -> float:
    """Peak signal-to-noise ratio (dB) between two uint8 images."""
    diff = original.astype(np.float64) - decoded.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)
