"""Equivalence suite: kernel-scheduled serve vs the seed stepping loop.

The kernel rebuild of :meth:`VodServer.serve` must be a pure refactor
for uniform-arrival batches: byte-identical observability exports and
identical :class:`ServerReport`\\s against :func:`serve_stepping`, the
seed loop retained verbatim as the oracle — including for same-seed
faulted runs, adaptation runs and checkpointed runs.
"""

import dataclasses

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.engine.player import AdaptationPolicy, RetryPolicy
from repro.engine.recorder import Recorder
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.faults.disk import SimulatedMedium
from repro.faults.plan import FaultPlan
from repro.media import frames
from repro.media.objects import video_object
from repro.obs import Observability, to_json_lines
from tests.engine.stepping_oracle import serve_stepping


def make_title(name, frame_count=25, size=48):
    video = video_object(frames.scene(size, size * 3 // 4, frame_count,
                                      "orbit"), name)
    return Recorder(MemoryBlob()).record(
        [video], encoders={name: JpegLikeCodec(quality=40).encode},
        interpretation_name=f"{name}-capture",
    )


@pytest.fixture(scope="module")
def movie():
    return make_title("feature")


@pytest.fixture(scope="module")
def short():
    return make_title("short", frame_count=12)


def build_server(movie, short, obs=None):
    server = VodServer(bandwidth=2_000_000, prefetch_depth=8, obs=obs)
    server.publish("feature", movie)
    server.publish("short", short)
    return server


def requests(n, title="feature"):
    return [SessionRequest(client=f"client-{i}", title=title)
            for i in range(n)]


def run_both(movie, short, reqs, options=None):
    """Serve the same batch through the kernel and the seed loop.

    Separate servers, separate observability sinks — the only shared
    inputs are the published titles and the request batch. Returns
    ``(kernel_report, seed_report, kernel_obs, seed_obs)``.
    """
    obs_a, obs_b = Observability(), Observability()
    server_a = build_server(movie, short, obs=obs_a)
    server_b = build_server(movie, short, obs=obs_b)
    report_a = server_a.serve(reqs, options)
    report_b = serve_stepping(server_b, reqs, options)
    return report_a, report_b, obs_a, obs_b


class TestCleanEquivalence:
    def test_reports_and_exports_identical(self, movie, short):
        reqs = requests(3) + requests(2, "short")
        report_a, report_b, obs_a, obs_b = run_both(movie, short, reqs)
        assert report_a == report_b
        assert to_json_lines(obs_a) == to_json_lines(obs_b)

    def test_single_session(self, movie, short):
        report_a, report_b, obs_a, obs_b = run_both(
            movie, short, requests(1))
        assert report_a == report_b
        assert to_json_lines(obs_a) == to_json_lines(obs_b)

    def test_overloaded_batch_same_rejections(self, movie, short):
        obs_a, obs_b = Observability(), Observability()
        server_a = build_server(movie, short, obs=obs_a)
        server_b = build_server(movie, short, obs=obs_b)
        capacity = server_a.capacity("feature")
        reqs = requests(capacity + 4)
        report_a = server_a.serve(reqs)
        report_b = serve_stepping(server_b, reqs)
        assert report_a == report_b
        assert len(report_a.rejected) == 4
        assert to_json_lines(obs_a) == to_json_lines(obs_b)


class TestFaultedEquivalence:
    def test_same_seed_faulted_run(self, movie, short):
        plan = FaultPlan(seed=55, page_size=512, bad_page_rate=0.05)
        report_a, report_b, obs_a, obs_b = run_both(
            movie, short, requests(3),
            ServeOptions(fault_plan=plan),
        )
        assert report_a == report_b
        assert to_json_lines(obs_a) == to_json_lines(obs_b)

    def test_faulted_run_with_fallbacks(self, movie, short):
        # A strict retry policy forces some sessions through the
        # degraded-fallback path; the kernel must replay it in the
        # same order with the same fault-visit counters.
        plan = FaultPlan(seed=55, page_size=512, bad_page_rate=0.2)
        strict = RetryPolicy(max_retries=0, abort_skip_fraction=0.01)
        report_a, report_b, obs_a, obs_b = run_both(
            movie, short, requests(4),
            ServeOptions(fault_plan=plan, retry_policy=strict),
        )
        assert report_a == report_b
        assert to_json_lines(obs_a) == to_json_lines(obs_b)

    def test_adaptation_run(self, movie, short):
        plan = FaultPlan(seed=7, page_size=512, bad_page_rate=0.1)
        adaptation = AdaptationPolicy(levels=3)
        report_a, report_b, obs_a, obs_b = run_both(
            movie, short, requests(3),
            ServeOptions(fault_plan=plan, adaptation=adaptation),
        )
        assert report_a == report_b
        assert to_json_lines(obs_a) == to_json_lines(obs_b)


class TestCheckpointedEquivalence:
    def test_durable_checkpoint_bytes_identical(self, movie, short):
        fs_a, fs_b = SimulatedMedium(), SimulatedMedium()
        server_a = build_server(movie, short)
        server_b = build_server(movie, short)
        reqs = requests(3)
        server_a.serve(reqs, ServeOptions(
            checkpoint_to="/ckpt/batch.json", checkpoint_fs=fs_a))
        serve_stepping(server_b, reqs, ServeOptions(
            checkpoint_to="/ckpt/batch.json", checkpoint_fs=fs_b))
        from repro.durability.atomic import read_bytes
        assert read_bytes("/ckpt/batch.json", fs=fs_a) == \
            read_bytes("/ckpt/batch.json", fs=fs_b)


class TestReplayMemo:
    def test_memo_off_when_observed(self, movie, short):
        # With a live sink every session must run for real: per-session
        # spans are part of the export contract.
        obs = Observability()
        server = build_server(movie, short, obs=obs)
        server.serve(requests(5))
        assert len(obs.tracer.named("vod.session")) == 5

    def test_memo_results_match_real_runs(self, movie, short):
        observed = build_server(movie, short, obs=Observability())
        memoized = build_server(movie, short)
        reqs = requests(6)
        report_a = observed.serve(reqs)
        report_b = memoized.serve(reqs)
        # PlaybackReport carries obs-derived extras (metrics snapshot,
        # SLO verdicts) that a null sink legitimately omits; the
        # simulation outcome itself must match exactly.
        def projection(report):
            return [dataclasses.replace(s.report, metrics=None, slo=[])
                    for s in report.admitted]
        assert projection(report_a) == projection(report_b)
        assert report_a.per_client_bandwidth == report_b.per_client_bandwidth
