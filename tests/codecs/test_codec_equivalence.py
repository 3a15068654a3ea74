"""The codec kernels against the straightforward loops they replaced.

:mod:`reference_codecs` keeps the per-bit Huffman decoder, the
per-sample ADPCM coder, the per-coefficient serializer, the
byte-at-a-time RLE scan and the build-then-compare container. Stored
media depends on the exact bytes, so every kernel must emit what those
loops emit and decode what they decode — on valid input byte for byte,
and on garbage at least by failing the same way (a ``CodecError``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.codecs import adpcm, huffman, jpeg_like
from repro.codecs.adpcm import AdpcmCodec
from repro.codecs.color import SUBSAMPLING
from repro.codecs.rle import rle_encode
from repro.codecs.varint import write_svarint, write_uvarint
from repro.errors import CodecError

from tests.codecs import reference_codecs as reference

#: Byte strings with the skew real coefficient streams have: a few
#: frequent symbols and a tail, plus long runs and uniform noise.
skewed_bytes = st.lists(
    st.one_of(st.sampled_from([0, 1, 2, 3, 255]), st.integers(0, 255)),
    max_size=600,
).map(bytes)
byte_strings = st.one_of(
    st.binary(max_size=600),
    skewed_bytes,
    st.tuples(st.integers(0, 255), st.integers(0, 700)).map(
        lambda pair: bytes([pair[0]]) * pair[1]),
)


def same_outcome(kernel, oracle):
    """Both return equal values, or both fail: the kernel with
    :class:`CodecError`, the oracle with it or the ``OverflowError`` its
    per-coefficient numpy writes raised for out-of-range levels."""
    try:
        expected = oracle()
    except (CodecError, OverflowError):
        with pytest.raises(CodecError):
            kernel()
        return
    actual = kernel()
    if isinstance(expected, np.ndarray):
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected)
    else:
        assert actual == expected


class TestEntropyCoding:
    @given(byte_strings)
    def test_rle_encode_matches_reference(self, data):
        assert rle_encode(data) == reference.rle_encode(data)

    @given(byte_strings)
    def test_code_lengths_match_reference(self, data):
        assert huffman.code_lengths(data) == reference.code_lengths(data)

    @given(byte_strings)
    def test_huffman_compress_matches_reference(self, data):
        compressed = huffman.huffman_compress(data)
        assert compressed == reference.huffman_compress(data)
        assert huffman.huffman_decompress(compressed) == data

    @given(byte_strings.filter(bool))
    def test_encode_matches_reference(self, data):
        codec = huffman.HuffmanCodec.for_data(data)
        assert codec.encode(data) == reference.huffman_encode(
            codec.lengths, data)

    @given(byte_strings.filter(bool))
    def test_lookup_decode_matches_per_bit_decode(self, data):
        codec = huffman.HuffmanCodec.for_data(data)
        encoded = codec.encode(data)
        assert codec.decode(encoded) == data
        assert reference.huffman_decode(codec.lengths, encoded) == data

    @settings(max_examples=200)
    @given(byte_strings.filter(bool), st.integers(0, 2000), st.binary(
        max_size=80))
    def test_garbage_decodes_alike(self, source, count, payload):
        # Valid (possibly incomplete) codebooks over arbitrary bits.
        lengths = huffman.code_lengths(source)
        frame = count.to_bytes(4, "big") + payload
        same_outcome(lambda: huffman.HuffmanCodec(lengths).decode(frame),
                     lambda: reference.huffman_decode(lengths, frame))


coefficient_blocks = st.integers(0, 6).flatmap(
    lambda n: hnp.arrays(
        np.int16, (n, 8, 8),
        elements=st.one_of(
            st.just(0), st.just(0), st.just(0),
            st.integers(-70, 70),
            st.integers(-32768, 32767),
        ),
    ))


class TestCoefficientSerializer:
    @given(coefficient_blocks)
    def test_encode_matches_reference(self, quantized):
        assert jpeg_like.encode_plane_coefficients(quantized) == \
            reference.encode_plane_coefficients(quantized)

    @given(coefficient_blocks)
    def test_decode_matches_reference(self, quantized):
        data = jpeg_like.encode_plane_coefficients(quantized)
        decoded = jpeg_like.decode_plane_coefficients(data, len(quantized))
        assert decoded.dtype == np.int16
        assert np.array_equal(decoded, quantized)
        assert np.array_equal(
            decoded, reference.decode_plane_coefficients(data, len(quantized)))

    @settings(max_examples=200)
    @given(st.binary(max_size=120), st.integers(0, 80))
    def test_garbage_decodes_alike(self, data, block_count):
        same_outcome(
            lambda: jpeg_like.decode_plane_coefficients(data, block_count),
            lambda: reference.decode_plane_coefficients(data, block_count))


frames = st.tuples(st.integers(1, 20), st.integers(1, 20)).flatmap(
    lambda shape: hnp.arrays(np.uint8, shape + (3,)))


class TestJpegLikeFrames:
    @settings(max_examples=40, deadline=None)
    @given(frames, st.integers(1, 100), st.sampled_from(sorted(SUBSAMPLING)))
    def test_frame_matches_per_plane_reference(self, frame, quality,
                                               subsampling):
        codec = jpeg_like.JpegLikeCodec(quality, subsampling)
        encoded = codec.encode(frame)
        assert encoded == reference.jpeg_encode(frame, quality, subsampling)
        assert np.array_equal(codec.decode(encoded),
                              reference.jpeg_decode(encoded))


samples = hnp.arrays(np.int16, st.integers(0, 700),
                     elements=st.one_of(st.integers(-32768, 32767),
                                        st.sampled_from([-32768, 0, 32767])))


class TestAdpcm:
    @given(samples, st.integers(-32768, 32767), st.integers(0, 88))
    def test_encode_block_matches_reference(self, block, predictor,
                                            step_index):
        assert adpcm.encode_block(block, predictor, step_index) == \
            reference.adpcm_encode_block(block, predictor, step_index)

    @given(st.binary(max_size=400), st.integers(-32768, 32767),
           st.integers(0, 88), st.data())
    def test_decode_block_matches_reference(self, data, predictor,
                                            step_index, draw):
        count = draw.draw(st.integers(0, 2 * len(data)))
        decoded = adpcm.decode_block(data, count, predictor, step_index)
        assert decoded.dtype == np.int16
        assert np.array_equal(decoded, reference.adpcm_decode_block(
            data, count, predictor, step_index))

    @given(samples, st.integers(1, 600))
    def test_encode_blocks_carry_state_like_reference(self, signal,
                                                      block_samples):
        blocks = AdpcmCodec(block_samples).encode_blocks(signal)
        expected = reference.adpcm_encode_blocks(signal, block_samples)
        assert [block.to_bytes() for block in blocks] == \
            [block.to_bytes() for block in expected]

    def test_float_samples_truncate_like_int(self):
        block = np.array([0.9, -0.9, 1234.7, -1234.7, 3.0])
        assert adpcm.encode_block(block, 0, 0) == \
            reference.adpcm_encode_block(block, 0, 0)


class TestVarintBytes:
    @given(st.integers(-(2 ** 63) + 1, 2 ** 63 - 1))
    def test_svarint_bytes_unchanged_below_two_to_the_63(self, value):
        out, expected = bytearray(), bytearray()
        write_svarint(out, value)
        reference.write_svarint(expected, value)
        assert out == expected

    @given(st.integers(0, 2 ** 64))
    def test_uvarint_bytes_unchanged(self, value):
        out, expected = bytearray(), bytearray()
        write_uvarint(out, value)
        reference.write_uvarint(expected, value)
        assert out == expected
