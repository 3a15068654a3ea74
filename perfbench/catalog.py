"""``catalog``: a seeded read/write mix against a large indexed catalog.

Closed loop, one client. Setup builds a file-backed indexed
``MediaDatabase`` through the public ``add_object``/``add_multimedia``
path: tens of thousands of attributed objects, nested compositions and
unexpanded derivation objects for lineage. Its index file (about 6 MB)
is larger than SQLite's default page cache (2 MB). The run is about 80%
reads and 20% writes. Every input — catalog rows, compositions, the
operation mix and each write's new objects — is generated from the seed
before timing starts, so the timed call is the catalog's work alone.
"""

from __future__ import annotations

import os
import random
from typing import Any, Callable

from repro.api import (
    MediaDatabase,
    MultimediaObject,
    Rational,
    media_type_registry,
)
from repro.core.media_object import StillMediaObject
from repro.edit import MediaEditor
from repro.media import frames
from repro.media.objects import video_object

from perfbench.base import Workload

OBJECTS = 20_000
BASES = 40
DERIVED = 1_200
PROGRAMS = 20
SEGMENTS = 40
COMPONENTS = 10
NEW_COMPONENTS = 5
GENRES = ("news", "drama", "sport", "nature", "archive")

#: (operation, weight): 80% reads, 20% writes.
MIX = (
    ("attr", 24), ("during", 14), ("overlap", 10), ("occurrences", 10),
    ("descendants", 10), ("lineage", 12),
    ("add_object", 10), ("set_attribute", 9), ("add_multimedia", 1),
)
READS = {"attr", "during", "overlap", "occurrences", "descendants",
         "lineage"}


def _attributes(rng: random.Random) -> dict:
    return {"genre": rng.choice(GENRES), "year": 1950 + rng.randrange(70),
            "reel": rng.randrange(500)}


def catalog_plan(seed: int) -> dict:
    """The catalog's rows, lineage and compositions as plain data."""
    rng = random.Random(seed)
    objects = [(f"obj-{i:06d}", _attributes(rng)) for i in range(OBJECTS)]
    derived = []
    for i in range(DERIVED):
        if i == 0 or rng.random() < 0.3:
            source = f"base-{rng.randrange(BASES):03d}"
        else:
            source = f"der-{rng.randrange(max(0, i - 60), i):05d}"
        step = rng.randrange(3)
        argument = (6, rng.randrange(1, 9), rng.randrange(1, 4))[step]
        derived.append((f"der-{i:05d}", source, step, argument,
                        rng.randrange(500)))
    programs = []
    for p in range(PROGRAMS):
        segments = []
        for s in range(SEGMENTS):
            components = [
                (f"obj-{rng.randrange(OBJECTS):06d}",
                 2 * c + rng.randrange(2), 1 + rng.randrange(4))
                for c in range(COMPONENTS)
            ]
            segments.append((s * 20 + rng.randrange(4), components))
        programs.append(segments)
    return {"objects": objects, "derived": derived, "programs": programs}


def build(plan: dict, path: str) -> MediaDatabase:
    """Ingest ``plan`` into a file-backed indexed catalog at ``path``."""
    text = media_type_registry.get("text")
    descriptor = text.make_media_descriptor()
    db = MediaDatabase("catalog", index=path)
    for name, attributes in plan["objects"]:
        db.add_object(StillMediaObject(text, descriptor, name, name=name),
                      **attributes)
    editor = MediaEditor()
    for i in range(BASES):
        base = video_object(frames.scene(8, 8, 12, "orbit"), f"base-{i:03d}")
        db.add_object(base, genre="raw", reel=i)
    for name, source, step, argument, reel in plan["derived"]:
        source_obj = db.get_object(source)
        if step == 0:
            obj = editor.cut(source_obj, 0, argument, name=name)
        elif step == 1:
            obj = editor.translate(source_obj, argument, name=name)
        else:
            obj = editor.scale(source_obj, Rational(argument), name=name)
        db.add_object(obj, genre="derived", reel=reel)
    for p, segments in enumerate(plan["programs"]):
        program = MultimediaObject(f"program-{p:02d}")
        for s, (at, components) in enumerate(segments):
            segment = MultimediaObject(f"program-{p:02d}-seg{s:03d}")
            for c, (name, start, duration) in enumerate(components):
                segment.add_temporal(db.get_object(name), at=start,
                                     duration=duration, label=f"c{c}")
            program.add_temporal(segment, at=at, label=f"seg{s:03d}")
        db.add_multimedia(program)
    return db


def op_specs(seed: int, count: int) -> list[tuple]:
    """``count`` operations drawn from :data:`MIX`, as plain data."""
    rng = random.Random(seed * 104_729 + 3)
    kinds = [kind for kind, _ in MIX]
    weights = [weight for _, weight in MIX]
    specs = []
    for i in range(count):
        kind = rng.choices(kinds, weights)[0]
        program = f"program-{rng.randrange(PROGRAMS):02d}"
        if kind == "attr":
            genre = rng.choice(GENRES)
            if rng.random() < 0.5:
                args = (("genre", genre), ("reel", rng.randrange(500)))
            else:
                args = (("genre", genre), ("year", 1950 + rng.randrange(70)))
        elif kind == "during":
            start = rng.randrange(0, SEGMENTS * 20 - 30)
            args = (program, start, start + rng.randrange(4, 30))
        elif kind in ("overlap", "descendants"):
            args = (program, f"seg{rng.randrange(SEGMENTS):03d}")
        elif kind == "occurrences":
            args = (f"obj-{rng.randrange(OBJECTS):06d}",)
        elif kind == "lineage":
            if rng.random() < 0.5:
                args = ("lineage", f"der-{rng.randrange(DERIVED):05d}")
            else:
                args = ("derived_from", f"base-{rng.randrange(BASES):03d}")
        elif kind == "add_object":
            args = (f"new-{i:06d}", tuple(sorted(_attributes(rng).items())))
        elif kind == "set_attribute":
            key = rng.choice(("genre", "year", "reel"))
            args = (f"obj-{rng.randrange(OBJECTS):06d}", key,
                    _attributes(rng)[key])
        else:
            args = (f"new-program-{i:06d}", tuple(
                (f"obj-{rng.randrange(OBJECTS):06d}", 2 * c,
                 1 + rng.randrange(3)) for c in range(NEW_COMPONENTS)))
        specs.append((kind, args))
    return specs


def bind(spec: tuple, db: MediaDatabase) -> Callable[[str], Any]:
    """The call for one operation: ``backend -> comparable result``.

    Write inputs (new objects, compositions) are built here, before
    timing; the returned call only hands them to the catalog."""
    kind, args = spec
    if kind == "attr":
        filters = dict(args)
        return lambda b: [o.name for o in db.objects(backend=b, **filters)]
    if kind == "during":
        return lambda b: db.components_during(*args, backend=b)
    if kind == "overlap":
        return lambda b: db.components_overlapping(*args, backend=b)
    if kind == "descendants":
        return lambda b: db.component_descendants(*args, backend=b)
    if kind == "occurrences":
        return lambda b: db.occurrences_of(*args, backend=b)
    if kind == "lineage":
        method, name = args    # looked up per call, so tracing sees it
        return lambda b: [o.name for o in getattr(db, method)(name,
                                                              backend=b)]
    if kind == "add_object":
        text = media_type_registry.get("text")
        name, attributes = args
        obj = StillMediaObject(text, text.make_media_descriptor(), name,
                               name=name)
        return lambda b: db.add_object(obj, **dict(attributes))
    if kind == "set_attribute":
        return lambda b: db.set_attribute(*args)
    name, components = args
    composition = MultimediaObject(name)
    for c, (obj_name, start, duration) in enumerate(components):
        composition.add_temporal(db.get_object(obj_name), at=start,
                                 duration=duration, label=f"c{c}")
    return lambda b: db.add_multimedia(composition)


class Catalog(Workload):
    name = "catalog"
    items_per_second = 2400.0
    min_items = 1000         # about 200 writes
    setup_repetitions = 3
    item_name = "query"

    def __init__(self, seed: int, workdir: str, items: int):
        super().__init__(seed, workdir, items)
        self.db: MediaDatabase | None = None
        self.read_ms: list[float] = []
        self.write_ms: list[float] = []
        self.read_rows = 0
        self.checked: set[str] = set()

    def setup(self, repetition: int) -> None:
        self.close()
        path = os.path.join(self.workdir, f"catalog-{repetition}.db")
        self.db = build(catalog_plan(self.seed), path)
        self.specs = op_specs(self.seed, self.items)
        self.calls = [bind(spec, self.db) for spec in self.specs]
        # Warm the planner and the page cache with a few reads.
        for spec in op_specs(self.seed + 1, 60):
            if spec[0] in READS:
                bind(spec, self.db)("auto")

    def close(self) -> None:
        if self.db is not None:
            self.db.index.close()
            self.db = None

    def run_item(self, index: int) -> None:
        call = self.calls[index]
        start = self.clock()
        result = call("auto")
        elapsed = self.elapsed(start) * 1e3
        self._last = result
        if self.specs[index][0] in READS:
            self.read_ms.append(elapsed)
            self.read_rows += len(result)
        else:
            self.write_ms.append(elapsed)

    def check_item(self, index: int) -> list[str]:
        """Sampled reads must equal the linear-scan oracle: the first of
        each class, then every 2000th operation."""
        kind = self.specs[index][0]
        if kind not in READS:
            return []
        if kind in self.checked and index % 2000 != 0:
            return []
        self.checked.add(kind)
        if self.calls[index]("linear") != self._last:
            return [f"{kind} read #{index} differs from backend='linear'"]
        return []

    def end_to_end(self) -> dict[str, float]:
        busy = (sum(self.read_ms) + sum(self.write_ms)) / 1e3
        return self.latency_metrics(self.read_ms, self.write_ms) | {
            "throughput": (len(self.read_ms) + len(self.write_ms)) / busy,
            "element_us": sum(self.read_ms) * 1e3 / self.read_rows,
        }

    def aliases(self) -> dict[str, str]:
        return {"p50_ms": "read_p50_ms", "p90_ms": "read_p90_ms",
                "side_p50_ms": "write_p50_ms", "side_p90_ms": "write_p90_ms",
                "throughput": "ops_per_s", "element_us": "read_row_us"}

    def databases(self) -> list[MediaDatabase]:
        return [self.db]
