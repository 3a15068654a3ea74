"""Hostile SQLite files: only typed errors escape.

Both SQLite-backed stores — the telemetry time series and the temporal
index — open files through :func:`repro.query.sqlutil.open_tuned`. A
seeded corpus of mutated database files (bit flips, truncations,
overwritten and inserted byte runs) must raise nothing but
:class:`~repro.errors.MediaModelError` subclasses, whether at open, on
a read, on a write or on close.
"""

import random

import pytest

from repro.core.media_object import StillMediaObject
from repro.core.media_types import media_type_registry
from repro.core.rational import Rational
from repro.errors import MediaModelError, ObservabilityError, QueryIndexError
from repro.obs.telemetry import TelemetryStore
from repro.query.database import MediaDatabase
from repro.query.index import TemporalIndex


def mutate(rng: random.Random, data: bytes) -> bytes:
    data = bytearray(data)
    op = rng.randrange(4)
    if op == 0:
        for _ in range(rng.randint(1, 16)):
            i = rng.randrange(len(data))
            data[i] ^= 1 << rng.randrange(8)
    elif op == 1:
        del data[rng.randrange(len(data)):]
    elif op == 2:
        i = rng.randrange(len(data))
        n = rng.randint(1, 64)
        data[i:i + n] = bytes(rng.randrange(256) for _ in range(n))
    else:
        i = rng.randrange(len(data))
        data[i:i] = bytes(rng.randrange(256)
                          for _ in range(rng.randint(1, 32)))
    return bytes(data)


def counter(name, value):
    return {name: {"type": "counter",
                   "series": [{"labels": {"k": "a"}, "value": value}]}}


def histogram(name, counts, total):
    return {name: {"type": "histogram", "series": [{"value": {
        "buckets": [0.1, 1.0], "counts": counts, "count": sum(counts),
        "sum": total}}]}}


@pytest.fixture(scope="module")
def telemetry_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("telemetry") / "store.db"
    with TelemetryStore(str(path)) as store:
        for tick in range(1, 13):
            store.record_scrape(
                "srv", Rational(tick, 4),
                counter("hits", 3 * tick)
                | histogram("lat", [tick, 2 * tick, 1], tick / 2))
        store.record_alert("r", "srv", "pending", Rational(1), 2.0, 1.0)
    return path.read_bytes()


@pytest.fixture(scope="module")
def index_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("index") / "index.db"
    text = media_type_registry.get("text")
    db = MediaDatabase("hostile", index=str(path))
    for i in range(20):
        db.add_object(StillMediaObject(
            text, text.make_media_descriptor(), f"s{i}", name=f"s{i}"))
    db.index._conn.commit()
    db.index.close()
    return path.read_bytes()


def use_telemetry(path: str) -> None:
    store = TelemetryStore(path)
    try:
        store.dump()
        store.delta("hits", 1)
        store.quantile("lat", 0.5, 1)
        store.series("hits")
        store.metric_kinds()
        store.record_scrape("srv", Rational(99), counter("hits", 1))
        store.record_alert("r", "srv", "firing", Rational(99), 1.0, 1.0)
    finally:
        store.close()


def use_index(path: str) -> None:
    TemporalIndex(path).close()


def escapes(base: bytes, tmp_path, seed: int, count: int, use) -> list[str]:
    rng = random.Random(seed)
    escaped = []
    for case in range(count):
        path = tmp_path / f"case{case}.db"
        path.write_bytes(mutate(rng, base))
        try:
            use(str(path))
        except MediaModelError:
            pass
        except Exception as exc:  # the failure the test is after
            escaped.append(f"case {case}: {type(exc).__name__}: {exc}")
    return escaped


def test_telemetry_store_raises_only_typed_errors(telemetry_file, tmp_path):
    assert escapes(telemetry_file, tmp_path, 1, 200, use_telemetry) == []


def test_temporal_index_raises_only_typed_errors(index_file, tmp_path):
    assert escapes(index_file, tmp_path, 2, 100, use_index) == []


def test_unmutated_files_still_open(telemetry_file, index_file, tmp_path):
    telemetry = tmp_path / "telemetry.db"
    telemetry.write_bytes(telemetry_file)
    with TelemetryStore(str(telemetry)) as store:
        assert store.scrape_count == 12
        assert store.delta("hits", Rational(1, 2)) == 36 - 30
    index = tmp_path / "index.db"
    index.write_bytes(index_file)
    TemporalIndex(str(index)).close()


def test_garbage_files_name_their_store(tmp_path):
    junk = tmp_path / "junk.db"
    junk.write_bytes(b"\x00garbage" * 512)
    with pytest.raises(ObservabilityError, match="junk.db"):
        TelemetryStore(str(junk))
    with pytest.raises(QueryIndexError, match="junk.db"):
        TemporalIndex(str(junk))
