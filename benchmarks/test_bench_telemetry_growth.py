"""TELEMETRY GROWTH — does an observed fleet get slower with uptime?

A long-running server scrapes its metrics every quarter second of
simulated time and runs the burn-rate alert pass after each scrape.
If a scrape or an alert read costs O(history), every batch served
makes the next one slower. This benchmark serves 320 staggered
batches on *one* observed fleet (no refresh) and compares the median
batch wall time of the last quarter with that of the first quarter.

The batch shape mirrors the ``vod`` workload's staggered batches:
six titles of 32x24 video on three shards, six sessions per batch
arriving over two simulated seconds at read granularity, every fourth
batch carrying a seeded fault plan with retry and adaptation.

The ratio gate is 1.3x so it stays robust under machine load; the
exact ratio and the process's peak RSS land in
``BENCH_telemetry_growth.json``. Wall-clock reads are confined to this
benchmark; everything inside the serve runs on simulated time.
"""

import random
import resource
import statistics
import sys
import time

from repro.api import (
    AdaptationPolicy,
    FaultPlan,
    Fleet,
    MemoryBlob,
    Observability,
    Rational,
    Recorder,
    RetryPolicy,
    ServeOptions,
    SessionRequest,
    Telemetry,
)
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.media import frames
from repro.media.objects import video_object

SEED = 5
BATCHES = 320
TITLES = 6
SESSIONS = 6
SHARDS = 3
BANDWIDTH = 400_000
FAULT_EVERY = 4
GROWTH_BOUND = 1.3


def make_titles(rng: random.Random) -> dict:
    codec = JpegLikeCodec(quality=40)
    kinds = ("orbit", "pan", "texture", "cut")
    titles = {}
    for index in range(TITLES):
        name = f"title{index}"
        video = video_object(
            frames.scene(32, 24, 36 + 4 * index, kinds[index % len(kinds)],
                         seed=rng.randrange(1 << 16)),
            name)
        titles[name] = Recorder(MemoryBlob()).record(
            [video], encoders={name: codec.encode},
            interpretation_name=name)
    return titles


def make_batches(rng: random.Random) -> list:
    names = [f"title{i}" for i in range(TITLES)]
    batches = []
    for index in range(BATCHES):
        picked = list(names)
        rng.shuffle(picked)
        requests = [
            SessionRequest(client=f"viewer{j}", title=title,
                           arrival_time=Rational(rng.randrange(0, 40), 20))
            for j, title in enumerate(picked[:SESSIONS])
        ]
        options = ServeOptions(enforce_admission=False, granularity="read")
        if index % FAULT_EVERY == FAULT_EVERY - 1:
            options = options.replace(
                fault_plan=FaultPlan(
                    seed=rng.randrange(1 << 30), page_size=512,
                    transient_rate=0.15, bad_page_rate=0.02,
                    corruption_rate=0.02, degraded_fraction=0.2,
                    degradation_span=8),
                retry_policy=RetryPolicy(max_retries=3,
                                         backoff=Rational(1, 250)),
                adaptation=AdaptationPolicy(levels=3))
        batches.append((requests, options))
    return batches


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


def serve_batches() -> tuple[list[float], Fleet]:
    rng = random.Random(SEED)
    titles = make_titles(rng)
    batches = make_batches(rng)
    fleet = Fleet(BANDWIDTH, shards=SHARDS, obs=Observability(),
                  telemetry=Telemetry())
    for name, interpretation in titles.items():
        fleet.publish(name, interpretation)
    fleet.serve([SessionRequest(client="warm", title=name)
                 for name in titles],
                ServeOptions(enforce_admission=False))
    elapsed_ms = []
    for requests, options in batches:
        start = time.perf_counter()
        fleet.serve(requests, options)
        elapsed_ms.append((time.perf_counter() - start) * 1e3)
    return elapsed_ms, fleet


def test_telemetry_growth_over_320_batches(report):
    elapsed_ms, fleet = serve_batches()
    quarter = BATCHES // 4
    first = statistics.median(elapsed_ms[:quarter])
    last = statistics.median(elapsed_ms[-quarter:])
    growth = last / first
    rss = peak_rss_mb()
    store = fleet.telemetry.store

    report.kv(
        "telemetry_growth",
        [
            ("staggered batches on one fleet", BATCHES),
            ("first-quarter median", f"{first:.2f} ms"),
            ("last-quarter median", f"{last:.2f} ms"),
            ("growth ratio (last / first)", f"{growth:.2f}x"),
            ("scrapes taken", store.scrape_count),
            ("alert transitions", len(store.alert_rows())),
            ("peak RSS", f"{rss:.1f} MB"),
        ],
        title="TELEMETRY GROWTH — per-batch cost over one observed "
              "fleet's uptime",
    )
    report.metric("telemetry_growth", "first_quarter_median_ms", first)
    report.metric("telemetry_growth", "last_quarter_median_ms", last)
    report.metric("telemetry_growth", "growth_ratio", growth)
    report.metric("telemetry_growth", "peak_rss_mb", rss)
    report.metric("telemetry_growth", "scrapes", store.scrape_count)

    # the run must actually exercise the pipeline being measured
    assert store.scrape_count > BATCHES
    assert growth <= GROWTH_BOUND, (
        f"last-quarter batches took {growth:.2f}x the first quarter's"
    )
