"""CODECS — µs per call of the codec kernels on studio-sized media.

Times the calls every recorded title and every preview frame goes
through: a JPEG-like encode and decode of a 32x24 frame (quality 40,
4:2:2 — the perfbench studio shot), an IMA ADPCM encode and decode of
one 320-sample block (one block per frame at 25 fps, 8 kHz), and
``huffman_compress`` / ``huffman_decompress`` of one plane's
coefficient stream. Each number is the best of ``ROUNDS`` passes over
the corpus; the rounds visit the kernels in turn, so a slow spell on a
shared machine costs every kernel one round rather than one kernel all
of its rounds. ``*_per_second`` readings are the same numbers inverted,
so ``tools.check --bench-compare`` gates a kernel that slows by a
quarter.

Wall-clock reads are confined to this benchmark (the lint gate covers
``src/repro`` only).
"""

import time

import numpy as np

from repro.codecs import dct
from repro.codecs.adpcm import decode_block, encode_block
from repro.codecs.color import rgb_to_yuv, subsample_yuv
from repro.codecs.huffman import huffman_compress, huffman_decompress
from repro.codecs.jpeg_like import JpegLikeCodec, encode_plane_coefficients
from repro.codecs.pcm import quantize_samples
from repro.media import frames, signals

WIDTH, HEIGHT = 32, 24
QUALITY = 40
AUDIO_RATE = 8000
AUDIO_BLOCK = 320
ROUNDS = 15


def best_us(cases) -> dict[str, float]:
    """Best-of-``ROUNDS`` µs per ``call(item)`` for each ``(name, call,
    items)`` case, the rounds interleaved across the cases."""
    best = {name: float("inf") for name, _, _ in cases}
    for _ in range(ROUNDS):
        for name, call, items in cases:
            start = time.perf_counter()
            for item in items:
                call(item)
            best[name] = min(best[name], time.perf_counter() - start)
    return {name: best[name] * 1e6 / len(items) for name, _, items in cases}


def studio_frames() -> list[np.ndarray]:
    shots = [frames.scene(WIDTH, HEIGHT, 8, kind, seed=seed)
             for seed, kind in enumerate(("orbit", "pan", "texture", "cut"))]
    return [frame for shot in shots for frame in shot]


def plane_streams(corpus) -> list[bytes]:
    """The coefficient byte streams ``huffman_compress`` sees per plane."""
    luma, chroma = dct.quant_tables(QUALITY)
    streams = []
    for frame in corpus:
        planes = subsample_yuv(*rgb_to_yuv(frame), "4:2:2")
        for plane, table in zip(planes, (luma, chroma, chroma)):
            blocks, _ = dct.to_blocks(plane - 128.0)
            quantized = dct.quantize(dct.forward_dct(blocks), table)
            streams.append(encode_plane_coefficients(quantized))
    return streams


def audio_blocks() -> list[np.ndarray]:
    tone = signals.mix(signals.sine(440.0, 1.0, AUDIO_RATE) * 0.5,
                       signals.sine(1320.0, 1.0, AUDIO_RATE) * 0.2)
    samples = quantize_samples(tone, 16)
    return [samples[i:i + AUDIO_BLOCK]
            for i in range(0, len(samples) - AUDIO_BLOCK + 1, AUDIO_BLOCK)]


def test_codec_kernels_us_per_call(report):
    codec = JpegLikeCodec(quality=QUALITY)
    corpus = studio_frames()
    encoded = [codec.encode(frame) for frame in corpus]
    streams = plane_streams(corpus)
    compressed = [huffman_compress(stream) for stream in streams]
    blocks = audio_blocks()
    adpcm = [(encode_block(block, 0, 0), len(block)) for block in blocks]

    cases = [
        ("jpeg_encode", codec.encode, corpus),
        ("jpeg_decode", codec.decode, encoded),
        ("adpcm_encode", lambda block: encode_block(block, 0, 0), blocks),
        ("adpcm_decode",
         lambda item: decode_block(item[0], item[1], 0, 0), adpcm),
        ("huffman_compress", huffman_compress, streams),
        ("huffman_decompress", huffman_decompress, compressed),
    ]
    timings = best_us(cases)
    per = {"jpeg": "frame", "adpcm": "block", "huffman": "plane"}
    rows = [(name, per[name.split("_")[0]], timings[name])
            for name, _, _ in cases]
    for name, _, us in rows:
        report.metric("codecs", f"{name}_us", us)
        report.metric("codecs", f"{name}_per_second", 1e6 / us)
    huffman_share = sum(blob[0] == 1 for blob in compressed) / len(compressed)
    report.metric("codecs", "huffman_coded_plane_share", huffman_share)
    report.table(
        "codecs",
        ("kernel", "per", "µs/call", "calls/s"),
        [(name, per, f"{us:.1f}", f"{1e6 / us:.0f}")
         for name, per, us in rows],
        title=(f"CODECS — kernel µs per call, {WIDTH}x{HEIGHT} q{QUALITY} "
               f"frames, {AUDIO_BLOCK}-sample ADPCM blocks "
               f"({huffman_share:.0%} of planes Huffman-coded)"),
    )

    for frame, data in zip(corpus, encoded):
        assert codec.encode(frame) == data
    for stream, blob in zip(streams, compressed):
        assert huffman_decompress(blob) == stream
