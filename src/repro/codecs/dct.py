"""Blockwise 8x8 DCT, quantization and zigzag scan.

The transform substrate shared by the JPEG-like and MPEG-like codecs:

* split a plane into padded 8x8 blocks and run a type-II DCT on each
  (vectorized via :func:`scipy.fft.dctn` over a stacked block array);
* quantize with a table scaled from a quality factor using the IJG
  convention (quality 50 = reference table, 100 ~ lossless-ish);
* serialize coefficients in the JPEG zigzag order so runs of trailing
  zeros compress well.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import dctn, idctn

from repro.errors import CodecError

BLOCK = 8

#: Standard JPEG (Annex K) luminance quantization table.
LUMA_QUANT = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float32)

#: Standard JPEG (Annex K) chrominance quantization table.
CHROMA_QUANT = np.array([
    [17, 18, 24, 47, 99, 99, 99, 99],
    [18, 21, 26, 66, 99, 99, 99, 99],
    [24, 26, 56, 99, 99, 99, 99, 99],
    [47, 66, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
], dtype=np.float32)


def _zigzag_order() -> np.ndarray:
    """Index order of the classic JPEG zigzag scan over an 8x8 block."""
    order = sorted(
        ((i, j) for i in range(BLOCK) for j in range(BLOCK)),
        key=lambda ij: (
            ij[0] + ij[1],
            ij[1] if (ij[0] + ij[1]) % 2 == 0 else ij[0],
        ),
    )
    return np.array([i * BLOCK + j for i, j in order])


ZIGZAG = _zigzag_order()
UNZIGZAG = np.argsort(ZIGZAG)


def scale_quant_table(table: np.ndarray, quality: int) -> np.ndarray:
    """Scale a quantization table for ``quality`` in [1, 100] (IJG rule)."""
    if not 1 <= quality <= 100:
        raise CodecError(f"quality must be in [1, 100], got {quality}")
    if quality < 50:
        scale = 5000 / quality
    else:
        scale = 200 - 2 * quality
    scaled = np.floor((table * scale + 50) / 100)
    return np.clip(scaled, 1, 255).astype(np.float32)


@lru_cache(maxsize=128)
def quant_tables(quality: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(luma, chroma)`` tables for ``quality``, computed once.

    Every frame of a stream shares its quality, so encoders and decoders
    look the pair up here instead of rescaling both tables per frame.
    """
    tables = (scale_quant_table(LUMA_QUANT, quality),
              scale_quant_table(CHROMA_QUANT, quality))
    for table in tables:
        table.setflags(write=False)
    return tables


def to_blocks(plane: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """Split a 2D plane into an ``(n, 8, 8)`` block stack, edge-padding.

    Returns the stack and the original ``(height, width)`` so
    :func:`from_blocks` can crop the padding back off.
    """
    if plane.ndim != 2:
        raise CodecError(f"expected a 2D plane, got shape {plane.shape}")
    h, w = plane.shape
    pad_y = (-h) % BLOCK
    pad_x = (-w) % BLOCK
    if pad_y or pad_x:
        plane = np.pad(plane, ((0, pad_y), (0, pad_x)), mode="edge")
    ph, pw = plane.shape
    blocks = (
        plane.reshape(ph // BLOCK, BLOCK, pw // BLOCK, BLOCK)
        .swapaxes(1, 2)
        .reshape(-1, BLOCK, BLOCK)
    )
    return np.ascontiguousarray(blocks, dtype=np.float32), (h, w)


def from_blocks(blocks: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Reassemble an ``(n, 8, 8)`` block stack into a plane of ``shape``."""
    h, w = shape
    ph = h + ((-h) % BLOCK)
    pw = w + ((-w) % BLOCK)
    rows = ph // BLOCK
    cols = pw // BLOCK
    if blocks.shape[0] != rows * cols:
        raise CodecError(
            f"{blocks.shape[0]} blocks cannot tile a {ph}x{pw} plane"
        )
    plane = (
        blocks.reshape(rows, cols, BLOCK, BLOCK)
        .swapaxes(1, 2)
        .reshape(ph, pw)
    )
    return plane[:h, :w]


def forward_dct(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal type-II DCT over the last two axes of a block stack."""
    return dctn(blocks, type=2, norm="ortho", axes=(-2, -1))


def inverse_dct(coefficients: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_dct`."""
    return idctn(coefficients, type=2, norm="ortho", axes=(-2, -1))


def quantize(coefficients: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Quantize DCT coefficients to int16 with the given table."""
    return np.rint(coefficients / table).astype(np.int16)


def quantize_deadzone(coefficients: np.ndarray, table: np.ndarray,
                      deadzone: float = 0.6) -> np.ndarray:
    """Quantize residuals: round, but zero everything inside a deadzone.

    Intra coding leaves per-coefficient error of at most half a step, so
    a residual coefficient under ``deadzone`` steps is almost certainly
    the previous frame's own quantization noise — re-coding it wastes
    bits without adding fidelity (the H.263-style deadzone rationale).
    Genuine content beyond the deadzone is rounded normally.
    """
    scaled = coefficients / table
    quantized = np.rint(scaled)
    quantized[np.abs(scaled) < deadzone] = 0
    return quantized.astype(np.int16)


def dequantize(quantized: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Invert :func:`quantize` (up to quantization loss)."""
    return quantized.astype(np.float32) * table


def zigzag_scan(blocks: np.ndarray) -> np.ndarray:
    """Reorder each ``(n, 8, 8)`` block into ``(n, 64)`` zigzag vectors."""
    return blocks.reshape(-1, BLOCK * BLOCK)[:, ZIGZAG]


def zigzag_unscan(vectors: np.ndarray) -> np.ndarray:
    """Invert :func:`zigzag_scan`."""
    return vectors[:, UNZIGZAG].reshape(-1, BLOCK, BLOCK)
