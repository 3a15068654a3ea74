"""``studio``: record, catalog, edit and preview one title after another.

Closed loop, one client. Setup captures every title's raw media
(synthetic shots and a tone). Each title then runs the paper's Figure 5
pipeline:

1. record two JPEG-like shots and one ADPCM track into a ``PagedBlob``
   on a file-backed ``DurablePageStore`` (WAL, checksums, ``BufferPool``);
2. commit, write an RMF2 container, catalog it with ``add_interpretation``
   in an indexed ``MediaDatabase``;
3. edit: cut / fade / cut / concat over ``InterpretedMediaObject``s that
   decode from the BLOB, composed with the title's audio;
4. preview twice with ``Player.play`` through a shared ``DerivationCache``.

The buffer pool and the derivation cache hold one title but not the
run's titles: the second preview hits, earlier titles get evicted.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass, field

from repro.api import (
    BufferPool,
    CostModel,
    DerivationCache,
    DurablePageStore,
    FilePager,
    Interpretation,
    MediaDatabase,
    MemoryBlob,
    MultimediaObject,
    PagedBlob,
    Player,
    Recorder,
    WriteAheadLog,
)
from repro.cache.derivations import object_bytes
from repro.codecs.adpcm import AdpcmCodec
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.core.media_object import DerivedMediaObject, InterpretedMediaObject
from repro.edit import MediaEditor
from repro.media import frames, signals
from repro.media.objects import audio_object, video_object
from repro.storage.container import read_container, write_container

from perfbench.base import Workload

WIDTH, HEIGHT = 32, 24
SHOT_FRAMES = 8
FADE_FRAMES = 3
FPS = 25
AUDIO_RATE = 8000
AUDIO_BLOCK = 320          # one block per frame at 25 fps
PAGE_SIZE = 512
KINDS = ("orbit", "pan", "texture", "cut")


@dataclass
class TitleInputs:
    """One title's captured raw media and edit decisions."""

    index: int
    shot1: object
    shot2: object
    audio: object
    cut1_end: int
    cut2_start: int

    @property
    def picture_frames(self) -> int:
        return self.cut1_end + FADE_FRAMES + (SHOT_FRAMES - self.cut2_start)

    @property
    def distinct_source_frames(self) -> int:
        """Source frames the edit needs, each counted once."""
        shot1 = self.cut1_end + FADE_FRAMES
        shot2 = FADE_FRAMES + (SHOT_FRAMES - self.cut2_start)
        return shot1 + shot2


#: Cut points (frames dropped before the fade, after it) cycle through
#: every combination, so every run has the same mix of title lengths.
CUT_PATTERNS = ((0, 0), (1, 0), (0, 1), (1, 1))


def capture(seed: int, count: int) -> list[TitleInputs]:
    """Synthetic capture of ``count`` titles, a pure function of ``seed``.

    Title structure (shot kinds, cut points) follows a fixed schedule;
    the seed draws the content: texture seeds and the tone's pitch.
    """
    rng = random.Random(seed)
    titles = []
    for index in range(count):
        kind1 = KINDS[index % len(KINDS)]
        kind2 = KINDS[(index + 1 + index // len(KINDS) % 3) % len(KINDS)]
        early, late = CUT_PATTERNS[index % len(CUT_PATTERNS)]
        cut1_end = SHOT_FRAMES - FADE_FRAMES - early
        cut2_start = FADE_FRAMES + late
        picture = cut1_end + FADE_FRAMES + (SHOT_FRAMES - cut2_start)
        shot1 = video_object(
            frames.scene(WIDTH, HEIGHT, SHOT_FRAMES, kind1,
                         seed=rng.randrange(1 << 16)),
            f"t{index}-shot1")
        shot2 = video_object(
            frames.scene(WIDTH, HEIGHT, SHOT_FRAMES, kind2,
                         seed=rng.randrange(1 << 16)),
            f"t{index}-shot2")
        tone = signals.sine(rng.uniform(200.0, 900.0), picture / FPS,
                            AUDIO_RATE)
        audio = audio_object(tone, f"t{index}-audio", sample_rate=AUDIO_RATE,
                             block_samples=AUDIO_BLOCK)
        titles.append(TitleInputs(index, shot1, shot2, audio, cut1_end,
                                  cut2_start))
    return titles


@dataclass
class _Studio:
    """The open stores of one setup."""

    directory: str
    store: DurablePageStore
    pool: BufferPool
    wal: WriteAheadLog
    db: MediaDatabase
    cache: DerivationCache
    player: Player
    titles: list[TitleInputs]
    encoded: dict[str, list[bytes]] = field(default_factory=dict)

    def close(self) -> None:
        self.store.close()
        self.db.index.close()


class Studio(Workload):
    name = "studio"
    items_per_second = 11.0
    item_name = "title"

    def __init__(self, seed: int, workdir: str, items: int):
        super().__init__(seed, workdir, items)
        self.jpeg = JpegLikeCodec(quality=40)
        self.adpcm = AdpcmCodec(block_samples=AUDIO_BLOCK)
        self.state: _Studio | None = None
        self.title_ms: list[float] = []
        self.ingest_ms: list[float] = []
        self.media_seconds = 0.0
        self.played = 0
        self.needed_frames = 0
        self.user_bytes = 0
        self.container_bytes = 0

    # -- setup ---------------------------------------------------------------

    def setup(self, repetition: int) -> None:
        if self.state is not None:
            self.state.close()
        directory = os.path.join(self.workdir, f"studio-{repetition}")
        os.makedirs(directory)
        # One warm-up title plus the measured ones.
        titles = capture(self.seed, self.items + 1)
        # Size the caches from one title: they hold it but not the run.
        probe = Recorder(MemoryBlob()).record(
            [titles[0].shot1, titles[0].shot2, titles[0].audio],
            encoders=self._encoders(titles[0], {}))
        title_pages = -(-len(probe.blob) // PAGE_SIZE) + 2
        # The cache prices an expansion by its own estimate (object_bytes).
        picture = self._compose(probe, titles[0]).component("picture").component
        picture_bytes = object_bytes(picture.expand())
        pool = BufferPool(title_pages * 3 // 2)
        wal = WriteAheadLog(os.path.join(directory, "wal"))
        store = DurablePageStore(
            FilePager(os.path.join(directory, "pages.db"),
                      page_size=PAGE_SIZE),
            wal=wal, checksums=True, buffer_pool=pool)
        cache = DerivationCache(budget_bytes=picture_bytes * 3 // 2)
        self.state = _Studio(
            directory=directory, store=store, pool=pool, wal=wal,
            db=MediaDatabase("studio", index=os.path.join(directory,
                                                          "index.db")),
            cache=cache,
            player=Player(CostModel(bandwidth=4_000_000), prefetch_depth=4,
                          derivation_cache=cache),
            titles=titles,
        )
        self._title(titles[-1])  # warm-up, untimed

    def close(self) -> None:
        if self.state is not None:
            self.state.close()
            self.state = None

    # -- one title -----------------------------------------------------------

    def _encoders(self, title: TitleInputs, sink: dict[str, list[bytes]]):
        jpeg, adpcm = self.jpeg, self.adpcm

        def video(name):
            out = sink.setdefault(name, [])

            def encode(frame):
                data = jpeg.encode(frame)
                out.append(data)
                return data
            return encode

        audio_out = sink.setdefault(title.audio.name, [])

        def audio(block):
            data = adpcm.encode(block[:, 0])
            audio_out.append(data)
            return data

        return {title.shot1.name: video(title.shot1.name),
                title.shot2.name: video(title.shot2.name),
                title.audio.name: audio}

    def decoders(self):
        jpeg, adpcm = self.jpeg, self.adpcm

        def video(raw, entry):
            return jpeg.decode(raw)

        def audio(raw, entry):
            return adpcm.decode(raw)[:, None]

        return video, audio

    def _compose(self, interpretation, title: TitleInputs):
        """Edit the recorded shots (cut / fade / cut / concat) and compose
        the picture with the audio; nothing is expanded yet."""
        decode_video, decode_audio = self.decoders()
        shot1 = InterpretedMediaObject(interpretation, title.shot1.name,
                                       decode=decode_video)
        shot2 = InterpretedMediaObject(interpretation, title.shot2.name,
                                       decode=decode_video)
        audio = InterpretedMediaObject(interpretation, title.audio.name,
                                       decode=decode_audio)
        editor = MediaEditor()
        cut1 = editor.cut(shot1, 0, title.cut1_end)
        fade = editor.transition(shot1, shot2, FADE_FRAMES,
                                 a_start=title.cut1_end, b_start=0)
        cut2 = editor.cut(shot2, title.cut2_start, SHOT_FRAMES)
        picture = editor.concat(cut1, fade, cut2,
                                name=f"title{title.index}-picture")
        movie = MultimediaObject(f"title{title.index}-movie")
        movie.add_temporal(picture, at=0, label="picture")
        movie.add_temporal(audio, at=0, label="audio")
        return movie

    def _title(self, title: TitleInputs):
        """Record → commit → container → catalog → edit → preview ×2."""
        state = self.state
        state.encoded = {}
        start = self.clock()
        blob = PagedBlob(state.store)
        interpretation = Recorder(blob).record(
            [title.shot1, title.shot2, title.audio],
            encoders=self._encoders(title, state.encoded),
            interpretation_name=f"title{title.index}")
        state.store.commit()
        path = os.path.join(state.directory, f"title{title.index}.rmf")
        container_bytes = write_container(interpretation, path)
        state.db.add_interpretation(interpretation)
        ingested = self.elapsed(start)

        movie = self._compose(interpretation, title)
        previews = [state.player.play(movie) for _ in range(2)]
        elapsed = self.elapsed(start)
        return elapsed, ingested, previews, interpretation, path, \
            container_bytes

    def run_item(self, index: int) -> None:
        title = self.state.titles[index]
        elapsed, ingested, previews, interpretation, path, \
            container_bytes = self._title(title)
        self.title_ms.append(elapsed * 1e3)
        self.ingest_ms.append(ingested * 1e3)
        recorded = 2 * SHOT_FRAMES / FPS + title.picture_frames / FPS
        self.media_seconds += recorded + title.picture_frames / FPS
        self.played += sum(report.element_count for report in previews)
        self.needed_frames += title.distinct_source_frames
        self.user_bytes += sum(
            len(b) for chunks in self.state.encoded.values() for b in chunks)
        self.container_bytes += container_bytes
        self._pending_check = (title, previews, interpretation, path)

    # -- output checks ---------------------------------------------------------

    def check_item(self, index: int) -> list[str]:
        """Read-backs go to the page file with the buffer pool detached,
        so the checked bytes are the committed ones and the pool's
        counters and residency are left as the timed title left them."""
        store = self.state.store
        pool, store.buffer_pool = store.buffer_pool, None
        try:
            return self._check(index)
        finally:
            store.buffer_pool = pool

    def _check(self, index: int) -> list[str]:
        title, previews, interpretation, path = self._pending_check
        problems = []
        rng = random.Random(self.seed * 1_000_003 + index)
        for name, chunks in self.state.encoded.items():
            k = rng.randrange(len(chunks))
            if interpretation.read_element(name, k) != chunks[k]:
                problems.append(f"{name}[{k}] read back differs from the "
                                "encoder's output")
        reread = read_container(path)
        for name in interpretation.names():
            if reread.sequence(name).table() != \
                    interpretation.sequence(name).table():
                problems.append(f"container table {name} differs")
            k = rng.randrange(len(interpretation.sequence(name)))
            if reread.read_element(name, k) != \
                    interpretation.read_element(name, k):
                problems.append(f"container element {name}[{k}] differs")
        expected = title.picture_frames + len(title.audio.stream())
        for report in previews:
            if report.element_count != expected:
                problems.append(
                    f"preview played {report.element_count} elements, "
                    f"expected {expected}")
        return problems

    # -- metrics -------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        busy = sum(self.title_ms) / 1e3
        previewing = busy - sum(self.ingest_ms) / 1e3
        return self.latency_metrics(self.title_ms, self.ingest_ms) | {
            "throughput": self.media_seconds / busy,
            "element_us": previewing * 1e6 / self.played,
        }

    def aliases(self) -> dict[str, str]:
        return {"p50_ms": "title_p50_ms", "p90_ms": "title_p90_ms",
                "side_p50_ms": "ingest_p50_ms",
                "side_p90_ms": "ingest_p90_ms",
                "throughput": "realtime_x",
                "element_us": "preview_element_us"}

    # -- tracing -------------------------------------------------------------

    def install_tracing(self, patches, recorder) -> None:
        patches.method(sys.modules[__name__], "write_container", "storage",
                       "storage.container")
        patches.method(Recorder, "record", "engine.recorder")
        patches.method(PagedBlob, "read", "blob", "blob.read")
        patches.method(PagedBlob, "append", "blob", "blob.write")
        patches.method(DurablePageStore, "commit", "durability",
                       "durability.commit")
        patches.method(Interpretation, "materialize", "core.interpretation",
                       "core.materialize")
        patches.method(DerivedMediaObject, "expand", "edit", "edit.expand")
        self._wrap_codecs(recorder)

    def _wrap_codecs(self, recorder) -> None:
        """Codec calls go through the benchmark's own callables, so they
        are traced by rebinding the codec methods on these instances."""
        jpeg, adpcm = self.jpeg, self.adpcm
        jpeg.encode = recorder.wrap(type(jpeg).encode.__get__(jpeg),
                                    "codecs.encode", "codecs")
        jpeg.decode = recorder.wrap(type(jpeg).decode.__get__(jpeg),
                                    "codecs.decode_video", "codecs")
        adpcm.encode = recorder.wrap(type(adpcm).encode.__get__(adpcm),
                                     "codecs.encode", "codecs")
        adpcm.decode = recorder.wrap(type(adpcm).decode.__get__(adpcm),
                                     "codecs.decode_audio", "codecs")

    def remove_tracing(self) -> None:
        for codec in (self.jpeg, self.adpcm):
            codec.__dict__.pop("encode", None)
            codec.__dict__.pop("decode", None)

    def databases(self) -> list[MediaDatabase]:
        return [self.state.db]

    def trace_counters(self) -> dict[str, float]:
        state = self.state
        pool, cache = state.pool.stats(), state.cache.stats()
        return {
            "pool_hits": pool["hits"], "pool_misses": pool["misses"],
            "pool_evictions": pool["evictions"],
            "cache_hits": cache["hits"], "cache_misses": cache["misses"],
            "cache_evictions": cache["evictions"],
            "wal_bytes": state.wal.size_bytes(),
            "user_bytes": self.user_bytes,
            "container_bytes": self.container_bytes,
            "needed_frames": self.needed_frames,
        }

    def per_layer(self, recorder, counted: dict[str, float],
                  items: int) -> dict[str, float]:
        names = recorder.inclusive_seconds()
        pool_reads = counted["pool_hits"] + counted["pool_misses"]
        cache_reads = counted["cache_hits"] + counted["cache_misses"]
        return {
            "codecs.encode_s": names.get("codecs.encode", 0.0) / items,
            "codecs.decode_s": (names.get("codecs.decode_video", 0.0)
                                + names.get("codecs.decode_audio", 0.0))
            / items,
            "codecs.decode_amplification":
                recorder.count("codecs.decode_video")
                / counted["needed_frames"],
            "blob.read_s": names.get("blob.read", 0.0) / items,
            "blob.write_s": names.get("blob.write", 0.0) / items,
            "cache.pool.hit_ratio": counted["pool_hits"] / max(1, pool_reads),
            "cache.pool.evictions": counted["pool_evictions"] / items,
            "durability.commit_s": names.get("durability.commit", 0.0) / items,
            "durability.wal_bytes_per_user_byte":
                counted["wal_bytes"] / counted["user_bytes"],
            "storage.container_s": names.get("storage.container", 0.0)
            / items,
            "storage.container_bytes_per_user_byte":
                counted["container_bytes"] / counted["user_bytes"],
            "core.materialize_s": names.get("core.materialize", 0.0) / items,
            "edit.expand_s": names.get("edit.expand", 0.0) / items,
            "cache.derivations.hit_ratio":
                counted["cache_hits"] / max(1, cache_reads),
            "cache.derivations.evictions": counted["cache_evictions"] / items,
        }
