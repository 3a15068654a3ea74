"""Hostile codec input: typed errors and bounded allocation.

Encoded frames arrive from BLOBs, containers and the network. A frame
header is a claim, not a fact: a decoder must check it against the
bytes that follow before it sizes anything from it, and must answer
every malformed input with a :class:`CodecError` — never a
``MemoryError``, ``IndexError`` or ``struct.error``.
"""

from __future__ import annotations

import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codecs.adpcm import AdpcmBlock, AdpcmCodec, decode_block, encode_block
from repro.codecs.base import EncodedFrame
from repro.codecs.dvi_like import DviLikeCodec
from repro.codecs.huffman import (
    MAX_CODE_LENGTH,
    HuffmanCodec,
    canonical_codes,
    huffman_decompress,
)
from repro.codecs.jpeg_like import JpegLikeCodec, decode_plane_coefficients
from repro.codecs.mpeg_like import MpegLikeCodec
from repro.codecs.rle import rle_encode
from repro.codecs.scalable import ScalableVideoCodec
from repro.codecs.varint import (
    MAX_UVARINT,
    read_svarint,
    read_uvarint,
    write_svarint,
    write_uvarint,
)
from repro.errors import CodecError
from repro.media import frames

#: Peak traced allocation allowed while rejecting a hostile input.
ALLOCATION_BOUND = 1 << 20


def rejects_within_bound(call, match=None):
    """``call`` raises CodecError without tracing more than the bound."""
    tracemalloc.start()
    try:
        with pytest.raises(CodecError, match=match):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ALLOCATION_BOUND, f"peak allocation {peak} bytes"


def giant_jpeg_frame() -> bytes:
    """A 61-byte JPEG-like frame whose header claims 65535x65535."""
    header = struct.pack(">4sHHBB", b"RJ1\x00", 65535, 65535, 50, 2)
    plane = b"\x00" + bytes([0, 255]) * 6  # raw container, 6 empty blocks
    return header + b"".join(
        struct.pack(">I", len(plane)) + plane for _ in range(3))


class TestHostileFrameHeaders:
    def test_giant_jpeg_frame_rejected(self):
        data = giant_jpeg_frame()
        assert len(data) == 61
        rejects_within_bound(lambda: JpegLikeCodec().decode(data),
                             match="cannot hold")

    def test_block_count_bounded_by_stream(self):
        rejects_within_bound(
            lambda: decode_plane_coefficients(b"\x00\xff" * 4, 67108864),
            match="cannot hold 67108864 blocks")

    def test_giant_mpeg_intra_frame_rejected(self):
        frame = EncodedFrame(data=giant_jpeg_frame(), kind="I",
                             display_index=0, decode_index=0)
        rejects_within_bound(
            lambda: MpegLikeCodec().decode_sequence([frame]),
            match="cannot hold")

    def test_truncated_mpeg_residual_rejected(self):
        shot = frames.scene(16, 16, 2, "orbit")
        codec = MpegLikeCodec(gop_pattern="IP")
        intra, predicted = codec.encode_sequence(shot)
        for cut in (3, 12, 16):
            broken = EncodedFrame(data=predicted.data[:cut], kind="P",
                                  display_index=1, decode_index=1)
            with pytest.raises(CodecError):
                codec.decode_sequence([intra, broken])

    def test_giant_scalable_layers_rejected(self):
        base = JpegLikeCodec(quality=75, subsampling="4:2:0").encode(
            frames.gradient_frame(8, 8))
        channel = struct.pack(">I", 7) + b"\x00" + bytes([0, 255]) * 3
        layer = struct.pack(">I", 3 * len(channel)) + channel * 3
        data = (struct.pack(">4sHHB", b"RS1\x00", 65535, 65535, 3)
                + struct.pack(">I", len(base)) + base + layer * 2)
        rejects_within_bound(lambda: ScalableVideoCodec().decode(data),
                             match="cannot hold")

    def test_giant_scalable_base_rejected(self):
        base = giant_jpeg_frame()
        data = (struct.pack(">4sHHB", b"RS1\x00", 65535, 65535, 1)
                + struct.pack(">I", len(base)) + base)
        rejects_within_bound(lambda: ScalableVideoCodec(levels=1).decode(data),
                             match="cannot hold")

    @pytest.mark.parametrize("cut", [0, 9, 10, 12, 15, 30])
    def test_truncated_jpeg_frame_rejected(self, cut):
        data = JpegLikeCodec().encode(frames.gradient_frame(16, 16))
        with pytest.raises(CodecError):
            JpegLikeCodec().decode(data[:cut])

    @pytest.mark.parametrize("cut", [0, 8, 11, 20])
    def test_truncated_scalable_frame_rejected(self, cut):
        data = ScalableVideoCodec(levels=2).encode(frames.gradient_frame(16, 16))
        with pytest.raises(CodecError):
            ScalableVideoCodec(levels=2).decode(data[:cut])

    def test_level_beyond_int16_rejected(self):
        # DC delta 40000 (zigzag 80000), then end of block.
        out = bytearray()
        write_svarint(out, 40000)
        out.append(255)
        with pytest.raises(CodecError, match="int16"):
            decode_plane_coefficients(bytes(out), 1)


def huffman_container(lengths: list[int], payload: bytes) -> bytes:
    header = rle_encode(bytes(lengths))
    return b"\x01" + len(header).to_bytes(2, "big") + header + payload


class TestHuffmanHeaders:
    @pytest.mark.parametrize("length", [16, 200, 255])
    def test_code_longer_than_cap_rejected(self, length):
        lengths = [0] * 256
        lengths[0] = 1
        lengths[1] = length
        with pytest.raises(CodecError, match="0..15"):
            HuffmanCodec(lengths)
        frame = huffman_container(lengths, b"\x00\x00\x00\x01\x00")
        rejects_within_bound(lambda: huffman_decompress(frame))

    def test_negative_length_rejected(self):
        lengths = [0] * 256
        lengths[3] = -1
        with pytest.raises(CodecError):
            HuffmanCodec(lengths)

    def test_all_ones_over_subscribed(self):
        with pytest.raises(CodecError, match="over-subscribed"):
            HuffmanCodec([1] * 256)
        frame = huffman_container([1] * 256, b"\x00\x00\x00\x02\x40")
        rejects_within_bound(lambda: huffman_decompress(frame),
                             match="over-subscribed")

    def test_three_one_bit_codes_over_subscribed(self):
        lengths = [0] * 256
        lengths[7] = lengths[8] = lengths[9] = 1
        with pytest.raises(CodecError, match="over-subscribed"):
            canonical_codes(lengths)

    def test_kraft_sum_one_accepted(self):
        lengths = [0] * 256
        lengths[0], lengths[1], lengths[2] = 1, 2, 2
        assert HuffmanCodec(lengths).decode(
            b"\x00\x00\x00\x03\x58") == bytes([0, 1, 2])

    def test_maximal_code_accepted(self):
        lengths = [0] * 256
        for symbol in range(MAX_CODE_LENGTH):
            lengths[symbol] = symbol + 1
        lengths[MAX_CODE_LENGTH] = MAX_CODE_LENGTH
        codec = HuffmanCodec(lengths)
        data = bytes(range(MAX_CODE_LENGTH + 1)) * 3
        assert codec.decode(codec.encode(data)) == data

    def test_symbol_count_beyond_payload_bits_rejected(self):
        codec = HuffmanCodec.for_data(b"abcabd")
        frame = (0xFFFFFFFF).to_bytes(4, "big") + b"\x00" * 4
        rejects_within_bound(lambda: codec.decode(frame), match="claims")

    def test_count_within_bits_but_stream_exhausted(self):
        lengths = [0] * 256
        lengths[0] = lengths[1] = 1
        codec = HuffmanCodec(lengths)
        assert codec.decode(b"\x00\x00\x00\x08\xa5") == bytes(
            [1, 0, 1, 0, 0, 1, 0, 1])
        with pytest.raises(CodecError, match="exhausted"):
            HuffmanCodec([0] * 255 + [3]).decode(b"\x00\x00\x00\x03\x00")

    def test_unused_code_space_is_invalid(self):
        lengths = [0] * 256
        lengths[65] = 2  # only code 00 exists
        with pytest.raises(CodecError, match="invalid"):
            HuffmanCodec(lengths).decode(b"\x00\x00\x00\x02\x10")

    def test_empty_codebook_with_symbols_rejected(self):
        with pytest.raises(CodecError):
            HuffmanCodec([0] * 256).decode(b"\x00\x00\x00\x01\x00")


class TestAdpcmState:
    @pytest.mark.parametrize("step_index", [89, 255, -1])
    def test_step_index_out_of_table_rejected(self, step_index):
        with pytest.raises(CodecError, match="step index"):
            decode_block(b"\x00", 2, 0, step_index)
        with pytest.raises(CodecError, match="step index"):
            encode_block(np.zeros(2, dtype=np.int16), 0, step_index)

    def test_hostile_block_header_rejected(self):
        raw = AdpcmBlock(0, 200, 2, b"\x11").to_bytes()
        with pytest.raises(CodecError, match="step index"):
            AdpcmCodec().decode(raw)

    def test_short_payload_rejected(self):
        with pytest.raises(CodecError, match="cannot hold"):
            decode_block(b"\x00", 3, 0, 0)


class TestVarintRoundTrip:
    @pytest.mark.parametrize("value", [2 ** 63, 2 ** 64, -(2 ** 63) - 1,
                                       2 ** 69 - 1, -(2 ** 69)])
    def test_wide_signed_values_round_trip(self, value):
        out = bytearray()
        write_svarint(out, value)
        assert read_svarint(bytes(out), 0) == (value, len(out))

    @pytest.mark.parametrize("value", [MAX_UVARINT + 1, 2 ** 100])
    def test_writer_refuses_what_reader_rejects(self, value):
        with pytest.raises(CodecError, match="70 bits"):
            write_uvarint(bytearray(), value)
        too_long = bytearray()
        while value:
            too_long.append((value & 0x7F) | (0x80 if value >> 7 else 0))
            value >>= 7
        with pytest.raises(CodecError, match="too long"):
            read_uvarint(bytes(too_long), 0)

    @pytest.mark.parametrize("value", [2 ** 69, -(2 ** 69) - 1])
    def test_signed_writer_refuses_beyond_range(self, value):
        with pytest.raises(CodecError):
            write_svarint(bytearray(), value)

    @given(st.integers(0, MAX_UVARINT))
    def test_uvarint_round_trip(self, value):
        out = bytearray(b"\x07")
        write_uvarint(out, value)
        assert read_uvarint(bytes(out), 1) == (value, len(out))

    @given(st.integers(-(2 ** 69), 2 ** 69 - 1))
    def test_svarint_round_trip(self, value):
        out = bytearray()
        write_svarint(out, value)
        write_svarint(out, -1)
        decoded, offset = read_svarint(bytes(out), 0)
        assert decoded == value
        assert read_svarint(bytes(out), offset) == (-1, len(out))


def mutations(data: bytes, seed: int, count: int):
    """Truncations, byte flips and insertions of ``data``, seeded."""
    rng = random.Random(seed)
    for _ in range(count):
        mutated = bytearray(data)
        kind = rng.randrange(3)
        if kind == 0:
            del mutated[rng.randrange(len(mutated)):]
        elif kind == 1:
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        else:
            at = rng.randrange(len(mutated))
            mutated[at:at] = bytes(rng.randrange(256)
                                   for _ in range(rng.randrange(1, 5)))
        yield bytes(mutated)


class TestMutatedFrames:
    """Damaged frames fail with CodecError or decode; nothing else escapes."""

    def survives(self, decode, data, seed):
        for mutated in mutations(data, seed, 200):
            try:
                decode(mutated)
            except CodecError:
                pass

    def test_jpeg_like(self):
        codec = JpegLikeCodec(quality=40)
        frame = frames.scene(24, 16, 1, "texture")[0]
        self.survives(codec.decode, codec.encode(frame), seed=1)

    @pytest.mark.parametrize("video_format", ["PLV", "RTV"])
    def test_dvi_like(self, video_format):
        codec = DviLikeCodec(video_format)
        frame = frames.scene(24, 16, 1, "texture")[0]
        self.survives(codec.decode, codec.encode(frame), seed=5)

    def test_scalable(self):
        codec = ScalableVideoCodec(levels=2)
        frame = frames.scene(24, 16, 1, "texture")[0]
        self.survives(codec.decode, codec.encode(frame), seed=2)

    def test_mpeg_like_predicted_frame(self):
        codec = MpegLikeCodec(gop_pattern="IP")
        intra, predicted = codec.encode_sequence(
            frames.scene(24, 16, 2, "orbit"))

        def decode(data):
            codec.decode_sequence([intra, EncodedFrame(
                data=data, kind="P", display_index=1, decode_index=1)])
        self.survives(decode, predicted.data, seed=3)

    def test_adpcm(self):
        codec = AdpcmCodec(block_samples=50)
        samples = np.arange(-3000, 3000, 37).astype(np.int16)
        self.survives(codec.decode, codec.encode(samples), seed=4)
