"""Committed codec goldens: encoded bytes and decoded arrays pinned.

Stored media outlives the code that wrote it: placement tables, element
sizes, container bytes and every same-seed export downstream depend on
the exact bytes the codecs emit. These digests were recorded once over a
fixed, generated corpus and are compared on every run, so a codec change
that moves one encoded byte or one decoded sample fails here.

Each case hashes, in order, every encoded byte string and every decoded
array (dtype, shape and bytes) it produces. The corpus covers the
JPEG-like codec at qualities 1/40/75/100 under all four chroma
subsamplings and odd frame sizes, MPEG-like sequences over three GOP
patterns, scalable pyramids decoded at every level, IMA ADPCM with
block sizes 1, 320 and 505 over odd lengths and clamping signals,
``huffman_compress``, ``rle_encode`` and the varint writers.

When a change is *meant* to alter codec output, recompute the digests
with ``python tests/codecs/test_codec_golden.py`` and say why in the
change's notes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.codecs.adpcm import AdpcmCodec, decode_block, encode_block
from repro.codecs.huffman import (
    HuffmanCodec,
    huffman_compress,
    huffman_decompress,
)
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.codecs.mpeg_like import MpegLikeCodec
from repro.codecs.rle import rle_encode
from repro.codecs.scalable import ScalableVideoCodec
from repro.codecs.varint import write_svarint, write_uvarint
from repro.media import frames

QUALITIES = (1, 40, 75, 100)
SUBSAMPLINGS = ("4:4:4", "4:2:2", "4:2:0", "4:1:1")
#: (height, width): the studio frame, odd sizes and a single pixel.
FRAME_SIZES = ((24, 32), (13, 17), (31, 9), (1, 1))
ADPCM_BLOCKS = (1, 320, 505)
ADPCM_LENGTHS = (0, 1, 7, 320, 641, 1011)
#: Fibonacci symbol counts: an unconstrained Huffman tree would need
#: 22-bit codes, so the 15-bit length cap has to flatten them.
FIBONACCI = (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610,
             987, 1597, 2584, 4181, 6765, 10946, 17711, 28657)


class _Digest:
    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def bytes(self, data: bytes) -> None:
        self._hash.update(len(data).to_bytes(8, "big"))
        self._hash.update(data)

    def array(self, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array)
        self.bytes(f"{array.dtype.str}{array.shape}".encode())
        self.bytes(array.tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def noisy_frame(height: int, width: int, seed: int) -> np.ndarray:
    """Gradients plus uniform noise: every coefficient band populated."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:height, 0:width]
    base = np.stack([(x * 7 + y * 3) % 256, (x * y) % 256,
                     (255 - x * 5 + y) % 256], axis=-1)
    noise = rng.integers(-24, 25, (height, width, 3))
    return np.clip(base + noise, 0, 255).astype(np.uint8)


def frame_corpus(height: int, width: int) -> list[np.ndarray]:
    corpus = [noisy_frame(height, width, seed=height * 100 + width)]
    if min(height, width) >= 8:
        corpus += frames.scene(width, height, 2, "texture", seed=7)
    return corpus


def adpcm_signal(length: int, seed: int) -> np.ndarray:
    """A tone with noise, a silent stretch and full-scale square edges
    that drive the step index and predictor into both clamps."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    tone = 9000 * np.sin(2 * np.pi * t / 37.0) + rng.normal(0, 600, length)
    square = np.where((t // 61) % 2 == 0, 32767.0, -32768.0)
    signal = np.where((t // 150) % 3 == 2, square, tone)
    signal[(t // 97) % 5 == 4] = 0
    return np.clip(np.rint(signal), -32768, 32767).astype(np.int16)


def byte_corpus() -> dict[str, bytes]:
    rng = np.random.default_rng(31)
    coefficient_streams = [
        JpegLikeCodec(quality=q).encode(noisy_frame(24, 32, q))
        for q in QUALITIES
    ]
    return {
        "empty": b"",
        "one-byte": b"\x2a",
        "single-symbol": b"\x07" * 500,
        "two-symbols": b"ab" * 3 + b"a",
        "uniform": bytes(rng.integers(0, 256, 4000, dtype=np.uint8)),
        "skewed": b"\x00" * 9000 + bytes(range(256)),
        "geometric": bytes(np.minimum(rng.geometric(0.3, 3000), 255)
                           .astype(np.uint8)),
        "length-capped": b"".join(bytes([i]) * count
                                  for i, count in enumerate(FIBONACCI)),
        "text": b"it was the best of times, it was the worst of times" * 20,
        "runs": b"x" * 300 + b"abc" + b"\xff" * 5 + b"\x00" * 256,
        "frames": b"".join(coefficient_streams),
    }


def _jpeg_case(quality: int, subsampling: str) -> str:
    digest = _Digest()
    codec = JpegLikeCodec(quality=quality, subsampling=subsampling)
    for height, width in FRAME_SIZES:
        for frame in frame_corpus(height, width):
            encoded = codec.encode(frame)
            digest.bytes(encoded)
            digest.array(codec.decode(encoded))
    return digest.hexdigest()


def _mpeg_case(gop: str) -> str:
    digest = _Digest()
    for quality, size in ((40, (24, 32)), (75, (15, 21))):
        height, width = size
        sequence = frames.scene(width, height, 6, "orbit")
        sequence[3] = noisy_frame(height, width, seed=3)
        codec = MpegLikeCodec(quality=quality, gop_pattern=gop)
        encoded = codec.encode_sequence(sequence)
        for frame in encoded:
            digest.bytes(frame.data)
            digest.bytes(f"{frame.kind}{frame.display_index}"
                         f"/{frame.decode_index}".encode())
        for decoded in codec.decode_sequence(encoded):
            digest.array(decoded)
    return digest.hexdigest()


def _scalable_case(levels: int) -> str:
    digest = _Digest()
    codec = ScalableVideoCodec(levels=levels, quality=60)
    for height, width in ((24, 32), (21, 33)):
        encoded = codec.encode(noisy_frame(height, width, seed=levels))
        digest.bytes(encoded)
        for level in range(levels):
            digest.array(codec.decode_at_level(encoded, level))
            digest.bytes(str(codec.bytes_at_level(encoded, level)).encode())
    return digest.hexdigest()


def _adpcm_case(block_samples: int) -> str:
    digest = _Digest()
    codec = AdpcmCodec(block_samples=block_samples)
    for length in ADPCM_LENGTHS:
        samples = adpcm_signal(length, seed=length + block_samples)
        encoded = codec.encode(samples)
        digest.bytes(encoded)
        for block in codec.encode_blocks(samples):
            digest.bytes(block.to_bytes())
        digest.array(codec.decode(encoded))
    return digest.hexdigest()


def _adpcm_block_case() -> str:
    digest = _Digest()
    samples = adpcm_signal(333, seed=5)
    for predictor, step_index in ((0, 0), (1234, 40), (-32768, 88),
                                  (32767, 0), (-500, 17)):
        data = encode_block(samples, predictor, step_index)
        digest.bytes(data)
        digest.array(decode_block(data, len(samples), predictor, step_index))
    return digest.hexdigest()


def _huffman_case() -> str:
    digest = _Digest()
    for data in byte_corpus().values():
        compressed = huffman_compress(data)
        digest.bytes(compressed)
        digest.bytes(huffman_decompress(compressed))
        if data:
            codec = HuffmanCodec.for_data(data)
            digest.bytes(codec.header())
            digest.bytes(codec.encode(data))
    return digest.hexdigest()


def _rle_case() -> str:
    digest = _Digest()
    for data in byte_corpus().values():
        digest.bytes(rle_encode(data))
    return digest.hexdigest()


def _varint_case() -> str:
    out = bytearray()
    values = [0, 1, 63, 64, 127, 128, 300, 16383, 16384, 2 ** 31,
              2 ** 62, 2 ** 63 - 1]
    for value in values:
        write_uvarint(out, value)
        write_svarint(out, value)
        write_svarint(out, -value)
    write_svarint(out, -(2 ** 63))
    return hashlib.sha256(bytes(out)).hexdigest()


def compute_digests() -> dict[str, str]:
    digests = {}
    for quality in QUALITIES:
        for subsampling in SUBSAMPLINGS:
            digests[f"jpeg/q{quality}/{subsampling}"] = _jpeg_case(
                quality, subsampling)
    for gop in ("IBBP", "IPPP", "IBPB"):
        digests[f"mpeg/{gop}"] = _mpeg_case(gop)
    for levels in (1, 2, 3):
        digests[f"scalable/levels{levels}"] = _scalable_case(levels)
    for block_samples in ADPCM_BLOCKS:
        digests[f"adpcm/block{block_samples}"] = _adpcm_case(block_samples)
    digests["adpcm/encode_block"] = _adpcm_block_case()
    digests["huffman"] = _huffman_case()
    digests["rle"] = _rle_case()
    digests["varint"] = _varint_case()
    return digests


GOLDEN = {
    "adpcm/block1":
        "b58abb53e16ae2763d252fcaf0dc852657ca9af07760587d535e08bc2af47b84",
    "adpcm/block320":
        "72b7dd8fba800b957daaf66e50140e8a424b46b1b799d414aee9b150b2f07603",
    "adpcm/block505":
        "6d51dca7485ac8accfce912388a07e9246ac5c715b50ef628d805e01350be5c8",
    "adpcm/encode_block":
        "90017a93e6341cd10e5d8de6d279ef6d47329bc26d58a446f6027170a61451ea",
    "huffman":
        "80ad8c43ebcbf022ec67954764352a70ebdee107bdcf0265d2c0cddc6763c26d",
    "jpeg/q1/4:1:1":
        "8e9f07cf5a3be960135144cab343afa786770feeac1fc95b1f6021b3f02b1e4f",
    "jpeg/q1/4:2:0":
        "0f19572a73e491d543124aaa8c2e5c91775e47458b91169db00b322b98edc658",
    "jpeg/q1/4:2:2":
        "a6fc9eff43f8cbaa84a9caef5904733b79cc181ee9532c48a622829bdf1060fc",
    "jpeg/q1/4:4:4":
        "ad2df51cb0775c4bfbb89500bb757cc2ec3ec73298ed6d8692bf49504b8aa385",
    "jpeg/q100/4:1:1":
        "bff62168de24dbab06775466631beacc71e179e32f8f83a19512dd8841265915",
    "jpeg/q100/4:2:0":
        "d8ecb491604e38a4e7d7ee050f456ef8ec1407bc0b7f6765776460a799b1e110",
    "jpeg/q100/4:2:2":
        "e2949dad6e36288fa3e9dc861dd7e5a4e4bb1dda6f94f49b4d161630a3c25a60",
    "jpeg/q100/4:4:4":
        "6f6c81f477d19c83df8f79bcee9ad826d04b1ad353bde776df6112fab14153a6",
    "jpeg/q40/4:1:1":
        "264d8fdaa2eec585697696515ea9cbaf443f4a0a8c9195de84033a5998124cb7",
    "jpeg/q40/4:2:0":
        "33ca2b13b76c84f86e541c45e7b9ad64e7ca2a0a08b1fe698406e87c270a24bc",
    "jpeg/q40/4:2:2":
        "f75781abf99c0a41823a358ea2f89864131334d557dd6955eee03685392b808f",
    "jpeg/q40/4:4:4":
        "f6a990d0629b20c42b60c830ee22ffdb5f3dbf9b99a218736848d0829354b968",
    "jpeg/q75/4:1:1":
        "cba1fb85599905ec3cb5eff86c59184c31dd56bf40c78391e2d54ed23239f90b",
    "jpeg/q75/4:2:0":
        "ec989a0441836cf0185594ce7063b424e21b2e4aaeafe56df077c76493615665",
    "jpeg/q75/4:2:2":
        "37d9ebfe65ea721f1caa72f526632fa481c7101ea96f8d04c97004a66cf37a17",
    "jpeg/q75/4:4:4":
        "636b97c04e005f6e9d1276827b62d1a3ee8cf8c7aefff237e0b2a69a21159e3a",
    "mpeg/IBBP":
        "dc88e4e3bc6911dca98298c35ffdf9666fd8801ee885455cc1640be6f0bf712e",
    "mpeg/IBPB":
        "9a796c221b8941b56e20d4b338b56c32b8cdcb975135790e92f9656aec4b9641",
    "mpeg/IPPP":
        "aa8e2b2350b6465440eadad320c52b621c4e437e61284c643e07ec8c02f4ffc7",
    "rle":
        "e01db01ac31e007879688d14bd6de1783fcefdf1e0369b3e9b62b7680bd4511c",
    "scalable/levels1":
        "97f2773349a841f22155597961388d85bfd717ccacca11d6b9e72edcfab68afa",
    "scalable/levels2":
        "73d276b78453bfc7b7c9dd92172ad9642af93046d0af13db54298dbe7cc1d684",
    "scalable/levels3":
        "9a85faa2dcea7a5534574140b0c74e0c0a417582749c2e409178829b8f1acc2d",
    "varint":
        "3105b0431154430f2dcfbc61f2358616ae2a19c767d4d7f7c45bc0a8772b9091",
}


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


def test_golden_covers_every_case(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_codec_digest_matches_golden(digests, case):
    assert digests[case] == GOLDEN[case], (
        f"{case}: codec output changed; if intended, regenerate with "
        "`python tests/codecs/test_codec_golden.py`"
    )


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for key, value in sorted(compute_digests().items()):
        print(f'    "{key}":\n        "{value}",')
