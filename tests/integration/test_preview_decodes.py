"""A preview decodes each source frame it plays once, and only once.

A cut / fade / cut / concat title is recorded into a BLOB, as in
``test_figure4_over_blobs.py``, with decoders that count their calls.
Expanding the edit must decode exactly the source frames the edit uses
and give the same stream as selecting from fully decoded sources;
planning playback must not decode the BLOB-backed audio at all; and a
second preview through a derivation cache sized for one title must be a
cache hit, even after a smaller title was resident before it.
"""

from collections import Counter

import numpy as np
import pytest

from repro.blob.blob import MemoryBlob
from repro.cache.derivations import DerivationCache, object_bytes
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.codecs.pcm import PcmCodec
from repro.core import stream_ops
from repro.core.composition import MultimediaObject
from repro.core.media_object import InterpretedMediaObject
from repro.edit import MediaEditor
from repro.edit.transitions import fade_frames
from repro.engine.player import CostModel, Player
from repro.engine.recorder import Recorder
from repro.media import frames, signals
from repro.media.objects import audio_object, video_object

FPS = 25
SHOT = 10
FADE = 3


class Title:
    """One recorded title: shots cut at ``cut1_end`` / ``cut2_start``
    around a ``FADE``-frame fade, composed with its audio."""

    def __init__(self, index: int, cut1_end: int, cut2_start: int):
        self.cut1_end, self.cut2_start = cut1_end, cut2_start
        self.video_decodes: Counter = Counter()
        self.audio_decodes = 0
        codec, pcm = JpegLikeCodec(quality=45), PcmCodec(16, 1)
        shot1 = video_object(frames.scene(32, 24, SHOT, "orbit", seed=index),
                             f"t{index}-shot1")
        shot2 = video_object(frames.scene(32, 24, SHOT, "pan", seed=index),
                             f"t{index}-shot2")
        picture = cut1_end + FADE + (SHOT - cut2_start)
        audio = audio_object(signals.sine(330, picture / FPS, 8000) * 0.4,
                             f"t{index}-audio", sample_rate=8000,
                             block_samples=320)
        self.interpretation = Recorder(MemoryBlob()).record(
            [shot1, shot2, audio],
            encoders={shot1.name: codec.encode, shot2.name: codec.encode,
                      audio.name: pcm.encode},
        )

        def decode_video(raw, entry):
            self.video_decodes[entry.blob_offset] += 1
            return codec.decode(raw)

        def decode_audio(raw, entry):
            self.audio_decodes += 1
            return pcm.decode(raw)

        self.codec = codec
        self.shots = [
            InterpretedMediaObject(self.interpretation, shot.name,
                                   decode=decode_video)
            for shot in (shot1, shot2)
        ]
        self.audio = InterpretedMediaObject(self.interpretation, audio.name,
                                            decode=decode_audio)
        editor = MediaEditor()
        a, b = self.shots
        self.picture = editor.concat(
            editor.cut(a, 0, cut1_end),
            editor.transition(a, b, FADE, a_start=cut1_end),
            editor.cut(b, cut2_start, SHOT),
            name=f"t{index}-picture",
        )
        self.movie = MultimediaObject(f"t{index}-movie")
        self.movie.add_temporal(self.picture, at=0, label="picture")
        self.movie.add_temporal(self.audio, at=0, label="audio")

    def needed_frames(self) -> Counter:
        """BLOB offsets of the source frames the edit uses, each once."""
        a, b = (self.interpretation.sequence(s.sequence_name).entries
                for s in self.shots)
        used = list(a[:self.cut1_end + FADE]) + \
            list(b[:FADE]) + list(b[self.cut2_start:])
        return Counter(e.blob_offset for e in set(used))

    def oracle(self):
        """The reference result: select from fully decoded sources."""
        decode = (lambda raw, entry: self.codec.decode(raw))  # noqa: E731
        full_a, full_b = (
            self.interpretation.materialize(s.sequence_name, decode=decode)
            for s in self.shots
        )
        fades = [
            fade_frames(full_a.tuples[self.cut1_end + i].element.payload,
                        full_b.tuples[i].element.payload,
                        i / (FADE - 1))
            for i in range(FADE)
        ]
        return stream_ops.concat(
            stream_ops.select_range(full_a, 0, self.cut1_end),
            video_object(fades, "fade").stream(),
            stream_ops.select_range(full_b, self.cut2_start, SHOT),
        )


@pytest.fixture
def title():
    return Title(1, cut1_end=5, cut2_start=4)


def test_expansion_decodes_each_needed_frame_once(title):
    title.picture.expand()
    assert title.video_decodes == title.needed_frames()
    assert set(title.video_decodes.values()) == {1}


def test_expansion_equals_full_stream_oracle(title):
    expanded = title.picture.expand().stream()
    oracle = title.oracle()
    assert len(expanded) == len(oracle)
    for got, want in zip(expanded, oracle):
        assert (got.start, got.duration) == (want.start, want.duration)
        assert got.element.size == want.element.size
        assert np.array_equal(got.element.payload, want.element.payload)


def test_play_never_decodes_the_interpreted_audio(title):
    report = Player(CostModel(bandwidth=4_000_000)).play(title.movie)
    assert report.element_count == len(title.oracle()) + len(
        title.interpretation.sequence(title.audio.sequence_name))
    assert title.audio_decodes == 0


def test_second_preview_is_a_cache_hit_after_a_smaller_title():
    small = Title(2, cut1_end=4, cut2_start=5)
    large = Title(3, cut1_end=5, cut2_start=3)
    large_bytes = object_bytes(large.picture.expand())
    assert object_bytes(small.picture.expand()) < large_bytes
    large.video_decodes.clear()
    cache = DerivationCache(budget_bytes=large_bytes * 3 // 2)
    player = Player(CostModel(bandwidth=4_000_000), derivation_cache=cache)
    for _ in range(2):
        player.play(small.movie)
    assert small.picture in cache

    player.play(large.movie)
    assert large.video_decodes == large.needed_frames()
    large.video_decodes.clear()
    player.play(large.movie)
    assert sum(large.video_decodes.values()) == 0
    assert large.picture in cache and small.picture not in cache
