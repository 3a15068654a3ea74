"""IMA ADPCM audio compression (real algorithm).

"Adaptive Differential Pulse Code Modulation (ADPCM), a form of audio
compression used in CD-I and other multimedia environments. Some versions
... involve a set of encoding parameters that vary over an audio
sequence. These parameters would be part of element descriptors." (§3.3)

This is the standard IMA/DVI ADPCM: 4 bits per sample, an adaptive step
size walked through an 89-entry table. Audio is encoded in fixed-length
blocks; each block's initial predictor and step index are its *element
descriptor* — making ADPCM streams the paper's canonical heterogeneous
stream.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.codecs.base import Codec
from repro.errors import CodecError

STEP_TABLE = (
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
    41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
    190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
    724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
    6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
    16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
)

INDEX_TABLE = (-1, -1, -1, -1, 2, 4, 6, 8)


def _state_tables() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The IMA state update as two tables keyed ``step_index << 4 | nibble``.

    The first holds the signed predictor change a nibble makes at that
    step, the second the next (clamped) step index: decoding a nibble
    becomes two tuple reads, and so does the encoder's state update once
    it has chosen the nibble.
    """
    deltas, next_indices = [], []
    for index, step in enumerate(STEP_TABLE):
        for nibble in range(16):
            delta = step >> 3
            if nibble & 4:
                delta += step
            if nibble & 2:
                delta += step >> 1
            if nibble & 1:
                delta += step >> 2
            deltas.append(-delta if nibble & 8 else delta)
            next_indices.append(
                max(0, min(88, index + INDEX_TABLE[nibble & 7])))
    return tuple(deltas), tuple(next_indices)


_STEP_DELTA, _NEXT_INDEX = _state_tables()


def _check_step_index(step_index: int) -> None:
    if not 0 <= step_index <= 88:
        raise CodecError(f"ADPCM step index {step_index} outside 0..88")


def _samples(samples) -> list[int]:
    """Samples as Python ints, truncated toward zero like ``int()``."""
    array = np.asarray(samples)
    if array.dtype.kind in "iub":
        return array.tolist()
    return [int(sample) for sample in array]


def _encode_run(samples: list[int], predictor: int,
                step_index: int) -> tuple[bytes, int, int]:
    """The IMA encode step over ``samples``, inlined.

    Returns the packed nibbles (two per byte, low nibble first) and the
    final ``(predictor, step_index)`` so blocks can carry state on.
    """
    step_delta = _STEP_DELTA
    next_index = _NEXT_INDEX
    steps = STEP_TABLE
    nibbles = bytearray(len(samples) + 1)
    for position, sample in enumerate(samples):
        step = steps[step_index]
        diff = sample - predictor
        if diff < 0:
            nibble = 8
            diff = -diff
        else:
            nibble = 0
        if diff >= step:
            nibble |= 4
            diff -= step
        step >>= 1
        if diff >= step:
            nibble |= 2
            diff -= step
        if diff >= step >> 1:
            nibble |= 1
        key = (step_index << 4) | nibble
        predictor += step_delta[key]
        if predictor > 32767:
            predictor = 32767
        elif predictor < -32768:
            predictor = -32768
        step_index = next_index[key]
        nibbles[position] = nibble
    # An odd count pairs its last nibble with the spare zero.
    paired = np.frombuffer(nibbles, dtype=np.uint8,
                           count=len(samples) + len(samples) % 2)
    packed = (paired[0::2] | (paired[1::2] << 4)).tobytes()
    return packed, predictor, step_index


def encode_block(samples: np.ndarray, predictor: int, step_index: int) -> bytes:
    """Encode one mono int16 block; returns packed nibbles (2 per byte)."""
    predictor, step_index = int(predictor), int(step_index)
    _check_step_index(step_index)
    return _encode_run(_samples(samples), predictor, step_index)[0]


def decode_block(data: bytes, count: int, predictor: int, step_index: int) -> np.ndarray:
    """Decode ``count`` samples from packed nibbles."""
    predictor, step_index = int(predictor), int(step_index)
    _check_step_index(step_index)
    if count < 0 or len(data) < (count + 1) // 2:
        raise CodecError(
            f"{len(data)} ADPCM bytes cannot hold {count} samples")
    step_delta = _STEP_DELTA
    next_index = _NEXT_INDEX
    packed = np.frombuffer(bytes(data[:(count + 1) // 2]), dtype=np.uint8)
    nibbles = np.empty(2 * len(packed), dtype=np.uint8)
    nibbles[0::2] = packed & 0x0F
    nibbles[1::2] = packed >> 4
    samples = []
    append = samples.append
    for nibble in nibbles[:count].tolist():
        key = (step_index << 4) | nibble
        predictor += step_delta[key]
        if predictor > 32767:
            predictor = 32767
        elif predictor < -32768:
            predictor = -32768
        step_index = next_index[key]
        append(predictor)
    return np.array(samples, dtype=np.int16)


class AdpcmBlock:
    """One encoded block: the element of an ADPCM timed stream.

    The header ``(predictor, step_index, count)`` is exactly the varying
    per-element state the paper assigns to element descriptors.
    """

    _HEADER = struct.Struct("<hBxH")

    def __init__(self, predictor: int, step_index: int, count: int, data: bytes):
        self.predictor = predictor
        self.step_index = step_index
        self.count = count
        self.data = data

    def to_bytes(self) -> bytes:
        return self._HEADER.pack(self.predictor, self.step_index, self.count) + self.data

    @classmethod
    def from_bytes(cls, raw: bytes) -> "AdpcmBlock":
        if len(raw) < cls._HEADER.size:
            raise CodecError("ADPCM block too short for header")
        predictor, step_index, count = cls._HEADER.unpack_from(raw)
        expected = (count + 1) // 2
        data = raw[cls._HEADER.size:]
        if len(data) != expected:
            raise CodecError(
                f"ADPCM block holds {len(data)} payload bytes, expected {expected}"
            )
        return cls(predictor, step_index, count, data)

    def decode(self) -> np.ndarray:
        return decode_block(self.data, self.count, self.predictor, self.step_index)


class AdpcmCodec(Codec):
    """Block-based IMA ADPCM over mono int16 sample arrays.

    ``encode`` produces a concatenation of self-describing blocks;
    :meth:`encode_blocks` exposes the per-block structure (with the
    varying state for element descriptors) for stream construction.
    """

    name = "ima-adpcm"

    def __init__(self, block_samples: int = 505):
        if block_samples < 1:
            raise CodecError("block_samples must be >= 1")
        self.block_samples = block_samples

    @property
    def is_lossy(self) -> bool:
        return True

    def encode_blocks(self, samples: np.ndarray) -> list[AdpcmBlock]:
        """Encode into blocks, carrying the adaptive state across them."""
        samples = np.asarray(samples)
        if samples.ndim != 1:
            raise CodecError(f"AdpcmCodec is mono; got shape {samples.shape}")
        values = samples.astype(np.int16).tolist()
        blocks = []
        predictor = step_index = 0
        for begin in range(0, len(values), self.block_samples):
            chunk = values[begin:begin + self.block_samples]
            data, next_predictor, next_step = _encode_run(
                chunk, predictor, step_index)
            blocks.append(AdpcmBlock(predictor, step_index, len(chunk), data))
            predictor, step_index = next_predictor, next_step
        return blocks

    def encode(self, payload: np.ndarray) -> bytes:
        return b"".join(block.to_bytes() for block in self.encode_blocks(payload))

    def decode(self, data: bytes) -> np.ndarray:
        chunks = []
        offset = 0
        header_size = AdpcmBlock._HEADER.size
        while offset < len(data):
            if offset + header_size > len(data):
                raise CodecError("trailing bytes do not form an ADPCM block")
            predictor, step_index, count = AdpcmBlock._HEADER.unpack_from(data, offset)
            payload_size = (count + 1) // 2
            end = offset + header_size + payload_size
            block = AdpcmBlock.from_bytes(data[offset:end])
            chunks.append(block.decode())
            offset = end
        if not chunks:
            return np.empty(0, dtype=np.int16)
        return np.concatenate(chunks)

    def compression_ratio(self) -> float:
        """Nominal ratio vs 16-bit PCM (~4:1, less block headers)."""
        pcm_bytes = self.block_samples * 2
        adpcm_bytes = AdpcmBlock._HEADER.size + (self.block_samples + 1) // 2
        return pcm_bytes / adpcm_bytes
