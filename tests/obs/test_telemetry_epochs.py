"""Tests for the telemetry store's epochs, bounded mirror and reopen.

Each serve builds a fresh event loop at t=0, so a reused server's
series restart their clock every serve. :meth:`Telemetry.attach` opens
a store epoch per serve; windows read within the epoch, with the last
row of the previous serve as the baseline. The live mirror keeps only
the longest rule window plus one row; longer windows, time travel and
reopened files read SQL.
"""

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.core.rational import Rational
from repro.engine.recorder import Recorder
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.errors import ObservabilityError
from repro.media import frames
from repro.media.objects import video_object
from repro.obs import Observability
from repro.obs.telemetry import Telemetry, TelemetryStore, _answers_to


def counter(name, value, **labels):
    series = {"value": value}
    if labels:
        series["labels"] = labels
    return {name: {"type": "counter", "series": [series]}}


def histogram(name, counts, total, buckets=(0.1, 1.0)):
    return {name: {"type": "histogram", "series": [{"value": {
        "buckets": list(buckets), "counts": list(counts),
        "count": sum(counts), "sum": total,
    }}]}}


@pytest.fixture(scope="module")
def movie():
    video = video_object(frames.scene(48, 36, 20, "orbit"), "feature")
    return Recorder(MemoryBlob()).record(
        [video], encoders={"feature": JpegLikeCodec(quality=40).encode},
    )


def overloaded_serves(movie, serves):
    """Serve the overloaded six-session batch ``serves`` times on one
    server; returns the telemetry and the last serve's alert rows."""
    telemetry = Telemetry()
    server = VodServer(21_000, obs=Observability(), telemetry=telemetry)
    server.publish("feature", movie)
    requests = [SessionRequest(client=f"client-{i}", title="feature",
                               arrival_time=Rational(i, 8))
                for i in range(6)]
    first_row = 0
    for _ in range(serves):
        first_row = len(telemetry.store.alert_rows())
        server.serve(requests, ServeOptions(enforce_admission=False))
    return telemetry, telemetry.store.alert_rows()[first_row:]


class TestEpochs:
    def test_reused_server_alerts_like_a_fresh_one(self, movie):
        _, fresh = overloaded_serves(movie, 1)
        _, fourth = overloaded_serves(movie, 4)
        assert [row["state"] for row in fresh] == \
            ["pending", "pending", "firing", "firing", "resolved",
             "resolved"]
        assert [(r["alert"], r["state"], r["at"]) for r in fourth] == \
            [(r["alert"], r["state"], r["at"]) for r in fresh]
        # the fourth serve's windows subtract the third serve's running
        # lateness sum, so the float burns agree to rounding only
        for mine, theirs in zip(fourth, fresh):
            assert mine["burn_short"] == pytest.approx(
                theirs["burn_short"], rel=1e-9)
            assert mine["burn_long"] == pytest.approx(
                theirs["burn_long"], rel=1e-9)

    def test_window_before_the_epoch_starts_at_the_previous_serve(self):
        store = TelemetryStore()
        store.open_epoch("srv")
        for tick, value in enumerate([10, 20, 30], start=1):
            store.record_scrape("srv", Rational(tick), counter("hits", value))
        store.open_epoch("srv")
        store.record_scrape("srv", Rational(1), counter("hits", 35))
        store.record_scrape("srv", Rational(2), counter("hits", 45))
        # the window reaches back before t=1: the baseline is the last
        # row of the previous serve, not a row of its clock
        assert store.delta("hits", window=4) == 45 - 30
        assert store.delta("hits", window=1) == 45 - 35

    def test_a_series_born_in_a_later_epoch_counts_from_zero(self):
        store = TelemetryStore()
        store.open_epoch("srv")
        store.record_scrape("srv", Rational(1), counter("hits", 5))
        store.open_epoch("srv")
        snapshot = counter("hits", 6) | counter("misses", 2)
        store.record_scrape("srv", Rational(1), snapshot)
        assert store.delta("misses", window=2) == 2
        assert store.delta("hits", window=2) == 1

    def test_epochs_are_per_source(self):
        store = TelemetryStore()
        for source in ("shard0", "shard1"):
            store.open_epoch(source)
            store.record_scrape(source, Rational(1),
                                counter(f"{source}.hits", 4))
        store.open_epoch("shard0")
        store.record_scrape("shard0", Rational(1), counter("shard0.hits", 9))
        assert store.delta("hits", window=2, source="shard0") == 5
        assert store.delta("hits", window=2, source="shard1") == 4


class TestBoundedMirror:
    def test_mirror_keeps_the_longest_window_plus_one_row(self, movie):
        telemetry, _ = overloaded_serves(movie, 2)
        horizon = max(rule.long_window for rule in telemetry.alerts.rules)
        bound = horizon / telemetry.interval + 1
        rows = [len(series.rows)
                for series in telemetry.store._live.values()]
        assert rows and max(rows) <= bound

    def test_longer_windows_read_sql(self, movie):
        telemetry, _ = overloaded_serves(movie, 1)
        store = telemetry.store
        (samples,) = store.series("engine.play.elements").values()
        # the whole serve is longer than the kept horizon: the long
        # read must still see the first sample's zero baseline
        assert samples[0][0] > 0
        assert store.delta("engine.play.elements", window=1000) == \
            samples[-1][1]

    def test_time_travel_reads_agree_with_the_mirror(self):
        store = TelemetryStore()
        values = [0, 10, 25, 45, 70, 100]
        for tick, value in enumerate(values, start=1):
            store.record_scrape("srv", Rational(tick),
                                counter("hits", value))
            live = store.delta("hits", window=2)
            past = store.delta("hits", window=2, at=Rational(tick))
            assert live == past

    def test_histogram_counts_follow_every_change(self):
        store = TelemetryStore()
        for tick, counts in enumerate([[5, 0, 0], [0, 5, 0], [0, 5, 0]],
                                      start=1):
            # the first two share an observation count, not buckets
            store.record_scrape("srv", Rational(tick),
                                histogram("lat", counts, 0.1))
        dump = store.dump()
        assert dump.count('"counts": [5, 0, 0]') == 1
        assert dump.count('"counts": [0, 5, 0]') == 2

    def test_query_names_agree_with_suffix_matching(self):
        store = TelemetryStore()
        name = "shard0.engine.play.underruns"
        names = _answers_to(name)
        assert names == [name, "engine.play.underruns", "play.underruns",
                         "underruns"]
        for query in names + ["ngine.play.underruns", "shard0.engine"]:
            assert store._matches(query, name) == (query in names)

    def test_unhashable_label_values_are_rejected(self):
        store = TelemetryStore()
        with pytest.raises(ObservabilityError):
            store.record_scrape("srv", Rational(1),
                                counter("hits", 1, kind=["a"]))


def write_history(store):
    for tick, value in enumerate([0, 10, 25, 45], start=1):
        store.record_scrape("srv", Rational(tick, 4), counter("hits", value)
                            | histogram("lat", [value, 1, 0], value / 10))
    store.record_alert("r", "srv", "pending", Rational(1), 2.0, 1.0)


def write_more(store):
    store.record_scrape("srv", Rational(5, 4),
                        counter("hits", 60) | histogram("lat", [60, 2, 0], 6.1))
    store.record_alert("r", "srv", "firing", Rational(5, 4), 3.0, 2.0)


class TestReopen:
    def test_reopened_file_resumes_and_matches_a_live_store(self, tmp_path):
        path = str(tmp_path / "telemetry.db")
        with TelemetryStore(path) as store:
            write_history(store)
        live = TelemetryStore()
        write_history(live)

        reopened = TelemetryStore(path)
        assert reopened.scrape_count == live.scrape_count == 4
        assert reopened.latest_time() == Rational(1)
        for window in (Rational(1, 4), Rational(1, 2), Rational(10)):
            assert reopened.delta("hits", window) == \
                live.delta("hits", window)
            assert reopened.quantile("lat", 0.5, window) == \
                live.quantile("lat", 0.5, window)

        write_more(reopened)
        write_more(live)
        assert reopened.dump() == live.dump()
        assert reopened.delta("hits", Rational(1, 2)) == \
            live.delta("hits", Rational(1, 2)) == 60 - 25
        reopened.close()

    def test_a_new_epoch_on_a_reopened_source_reads_the_mirror(self, tmp_path):
        path = str(tmp_path / "telemetry.db")
        with TelemetryStore(path) as store:
            write_history(store)
        with TelemetryStore(path) as store:
            store.open_epoch("srv")
            store.record_scrape("srv", Rational(1, 4), counter("hits", 7))
            # a new clock in a new process: the registry restarted, so
            # the epoch counts from zero
            assert store.delta("hits", Rational(1)) == 7
            assert store.scrape_count == 5

    def test_not_a_database_is_a_typed_error(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_bytes(b"not a database" * 200)
        with pytest.raises(ObservabilityError):
            TelemetryStore(str(path))
