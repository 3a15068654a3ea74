"""PREVIEW — decodes and wall-clock cost of previewing edited titles.

Each title records two JPEG-like shots and a PCM track into a BLOB,
edits them (cut / fade / cut / concat over BLOB-backed objects that
decode on read) and previews the composition twice through a
:class:`~repro.cache.derivations.DerivationCache` sized for one title.
Cut points cycle, so titles differ slightly in length.

Reported: video decodes per source frame the edit needs (1.0 means
each needed frame is decoded once and nothing else is), preview µs per
played element for the cold and the warm preview, and the derivation
cache's hit ratio over the run. A warm preview must decode nothing.

Wall-clock reads are confined to this benchmark (the lint gate covers
``src/repro`` only).
"""

import time

from repro.blob.blob import MemoryBlob
from repro.cache.derivations import DerivationCache, object_bytes
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.codecs.pcm import PcmCodec
from repro.core.composition import MultimediaObject
from repro.core.media_object import InterpretedMediaObject
from repro.edit import MediaEditor
from repro.engine.player import CostModel, Player
from repro.engine.recorder import Recorder
from repro.media import frames, signals
from repro.media.objects import audio_object, video_object

FPS = 25
SHOT = 12
FADE = 3
TITLES = 12
#: (frames dropped before the fade, frames dropped after it).
CUTS = ((0, 0), (1, 0), (0, 1), (1, 1))


def record_title(index: int, codec, pcm, decodes: list):
    """One title's composition; video decodes append to ``decodes``."""
    early, late = CUTS[index % len(CUTS)]
    cut1_end, cut2_start = SHOT - FADE - early, FADE + late
    picture = cut1_end + FADE + (SHOT - cut2_start)
    shot1 = video_object(frames.scene(48, 32, SHOT, "orbit", seed=index),
                         f"t{index}-shot1")
    shot2 = video_object(frames.scene(48, 32, SHOT, "pan", seed=index),
                         f"t{index}-shot2")
    audio = audio_object(signals.sine(220 + 20 * index, picture / FPS, 8000),
                         f"t{index}-audio", sample_rate=8000,
                         block_samples=320)
    interpretation = Recorder(MemoryBlob()).record(
        [shot1, shot2, audio],
        encoders={shot1.name: codec.encode, shot2.name: codec.encode,
                  audio.name: pcm.encode},
    )

    def decode_video(raw, entry):
        decodes.append(entry.blob_offset)
        return codec.decode(raw)

    a, b = (InterpretedMediaObject(interpretation, shot.name,
                                   decode=decode_video)
            for shot in (shot1, shot2))
    sound = InterpretedMediaObject(
        interpretation, audio.name, decode=lambda raw, entry: pcm.decode(raw))
    editor = MediaEditor()
    edited = editor.concat(
        editor.cut(a, 0, cut1_end),
        editor.transition(a, b, FADE, a_start=cut1_end),
        editor.cut(b, cut2_start, SHOT),
        name=f"t{index}-picture",
    )
    movie = MultimediaObject(f"t{index}-movie")
    movie.add_temporal(edited, at=0, label="picture")
    movie.add_temporal(sound, at=0, label="audio")
    needed = cut1_end + FADE + FADE + (SHOT - cut2_start)
    return movie, edited, needed


def timed_play(player, movie):
    start = time.perf_counter()
    report = player.play(movie)
    return time.perf_counter() - start, report.element_count


def test_preview_decodes_and_cost(report):
    codec, pcm = JpegLikeCodec(quality=45), PcmCodec(16, 1)
    decodes: list = []
    titles = [record_title(i, codec, pcm, decodes) for i in range(TITLES)]
    budget = object_bytes(titles[0][1].expand()) * 3 // 2
    cache = DerivationCache(budget_bytes=budget)
    player = Player(CostModel(bandwidth=4_000_000), derivation_cache=cache)

    amplification = []
    cold_s = warm_s = 0.0
    cold_elements = warm_elements = 0
    warm_decodes = 0
    for movie, _, needed in titles:
        decodes.clear()
        seconds, elements = timed_play(player, movie)
        amplification.append(len(decodes) / needed)
        cold_s += seconds
        cold_elements += elements
        decodes.clear()
        seconds, elements = timed_play(player, movie)
        warm_decodes += len(decodes)
        warm_s += seconds
        warm_elements += elements

    worst = max(amplification)
    cold_us = cold_s * 1e6 / cold_elements
    warm_us = warm_s * 1e6 / warm_elements
    report.metric("preview", "decodes_per_needed_frame", worst)
    report.metric("preview", "cold_us_per_element", cold_us)
    report.metric("preview", "warm_us_per_element", warm_us)
    report.metric("preview", "warm_decodes", warm_decodes)
    report.metric("preview", "derivation_hit_ratio", cache.hit_ratio)
    report.kv("preview", [
        ("titles", TITLES),
        ("video decodes per needed frame (worst title)", f"{worst:.2f}"),
        ("cold preview us/element", f"{cold_us:.1f}"),
        ("warm preview us/element", f"{warm_us:.1f}"),
        ("video decodes on warm previews", warm_decodes),
        ("derivation cache hit ratio", f"{cache.hit_ratio:.2f}"),
    ], title="PREVIEW — decodes and wall-clock cost per previewed title")
    assert worst <= 1.0
    assert warm_decodes == 0
