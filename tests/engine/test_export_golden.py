"""Committed export goldens: same-seed output pinned across commits.

The determinism suites compare two runs of the *same* code; nothing
there notices when a refactor changes what a run emits. These digests
were recorded once and are compared on every run, so a change to the
engine that alters a report, a metric, a span, a flight-recorder event
or a health rollup — even by one byte — fails here.

Each case hashes, in order: every ``PlaybackReport`` the run produced
(its embedded metric snapshot stripped, since the export already holds
it), ``to_json_lines``, ``to_chrome_trace`` and, for serving cases,
``health().export()``. The matrix covers {no fault plan, a plan with
transient, bad and degraded pages} x {no adaptation, three layers},
each played directly through ``Player.play`` and served at
``"session"`` and ``"read"`` granularity (staggered arrivals), plus a
fallback-heavy faulted serve and one unobserved replay-memo batch.

When a change is *meant* to alter exports, recompute the digests with
``python tests/engine/test_export_golden.py`` and say why in the
change's notes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.core.rational import Rational
from repro.engine.player import (
    AdaptationPolicy,
    CostModel,
    Player,
    RetryPolicy,
)
from repro.engine.recorder import Recorder
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.faults.plan import FaultPlan
from repro.media import frames
from repro.media.objects import video_object
from repro.obs import Observability, to_chrome_trace, to_json_lines


def make_title(name, frame_count, size=48):
    video = video_object(frames.scene(size, size * 3 // 4, frame_count,
                                      "orbit"), name)
    return Recorder(MemoryBlob()).record(
        [video], encoders={name: JpegLikeCodec(quality=40).encode},
        interpretation_name=f"{name}-capture",
    )


def fault_plan():
    return FaultPlan(seed=55, page_size=512, transient_rate=0.2,
                     bad_page_rate=0.05, degraded_fraction=0.4)


FAULTS = {"clean": lambda: None, "faulted": fault_plan}
ADAPTATIONS = {"full": lambda: None,
               "adaptive": lambda: AdaptationPolicy(levels=3)}
#: (granularity, staggered arrivals) for the serving cases.
SERVES = (("session", False), ("read", True))


def report_text(report) -> str:
    return repr(dataclasses.replace(report, metrics=None))


def server_report_text(report) -> str:
    lines = [
        f"bandwidth={report.bandwidth} share={report.per_client_bandwidth}"
        f" recovered={report.recovered}",
        f"rejected={[r.key for r in report.rejected]}",
        f"failed={report.failed}",
    ]
    for session in report.admitted:
        lines.append(
            f"{session.client} {session.title} degraded={session.degraded}"
            f" resumed={session.resumed} {report_text(session.report)}"
        )
    return "\n".join(lines)


def digest(*parts: str) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode("utf-8"))
        sha.update(b"\x00")
    return sha.hexdigest()


def obs_parts(obs: Observability) -> list[str]:
    return [to_json_lines(obs), to_chrome_trace(obs)]


def health_text(server: VodServer) -> str:
    return json.dumps(server.health().export(), sort_keys=True)


def play_case(titles, plan, adaptation) -> str:
    obs = Observability()
    player = Player(CostModel(bandwidth=9_000), prefetch_depth=4,
                    fault_plan=plan, adaptation=adaptation, obs=obs)
    reports = [player.play(titles[name]) for name in sorted(titles)]
    return digest(*(report_text(r) for r in reports), *obs_parts(obs))


def build_server(titles, obs=None) -> VodServer:
    server = VodServer(bandwidth=36_000, prefetch_depth=8, obs=obs)
    for name in sorted(titles):
        server.publish(name, titles[name])
    return server


def batch(staggered: bool) -> list[SessionRequest]:
    return [
        SessionRequest(
            client=f"client-{i}", title="feature" if i % 3 else "short",
            arrival_time=Rational(i, 5) if staggered else Rational(0),
        )
        for i in range(4)
    ]


def serve_case(titles, options: ServeOptions, staggered: bool) -> str:
    obs = Observability()
    server = build_server(titles, obs=obs)
    report = server.serve(batch(staggered), options)
    return digest(server_report_text(report), *obs_parts(obs),
                  health_text(server))


def compute_digests(titles) -> dict[str, str]:
    """Every golden case's digest, keyed by case name."""
    found: dict[str, str] = {}
    for fault_name, make_plan in FAULTS.items():
        for adapt_name, make_adaptation in ADAPTATIONS.items():
            name = f"{fault_name}-{adapt_name}"
            found[f"play/{name}"] = play_case(
                titles, make_plan(), make_adaptation(),
            )
            for granularity, staggered in SERVES:
                options = ServeOptions(
                    enforce_admission=False, fault_plan=make_plan(),
                    adaptation=make_adaptation(), granularity=granularity,
                )
                found[f"serve-{granularity}/{name}"] = serve_case(
                    titles, options, staggered,
                )
    strict = RetryPolicy(max_retries=0, abort_skip_fraction=0.01)
    for granularity, staggered in SERVES:
        options = ServeOptions(
            enforce_admission=False, retry_policy=strict,
            fault_plan=FaultPlan(seed=55, page_size=512, bad_page_rate=0.2),
            adaptation=AdaptationPolicy(levels=3), granularity=granularity,
        )
        found[f"serve-{granularity}/fallback"] = serve_case(
            titles, options, staggered,
        )
    memo_server = build_server(titles)
    memo = memo_server.serve(batch(False) + batch(False),
                             ServeOptions(enforce_admission=False))
    found["serve-session/memo"] = digest(server_report_text(memo))
    return found


GOLDEN = {
    "play/clean-adaptive":
        "6dcf43d1b137a993ad26b70809daedf1bb690fa4b42e12059a78f1d1eb246d72",
    "play/clean-full":
        "6dcf43d1b137a993ad26b70809daedf1bb690fa4b42e12059a78f1d1eb246d72",
    "play/faulted-adaptive":
        "986cddf5fa3aabb0283c66754e891a9d44dfb90bcfc27e31a53142abd6758fd2",
    "play/faulted-full":
        "36d7784c40b7221167f02dab93991ab0865a64ac75d039dea55dd9e3ecdb73d9",
    "serve-read/clean-adaptive":
        "cc788a2c6d105e8f6bab38f4326d2a5d00858e342f369cc423ae4a117b1a52f8",
    "serve-read/clean-full":
        "cc788a2c6d105e8f6bab38f4326d2a5d00858e342f369cc423ae4a117b1a52f8",
    "serve-read/fallback":
        "022c8274f9d620dd879e9e545f86dce5c4ca3960098f6b8a568636f9d3a18934",
    "serve-read/faulted-adaptive":
        "bfcc92f340c28dc149d253307118f047ff6bcc66c187a9c916ab7125eb4d2ba0",
    "serve-read/faulted-full":
        "0798250e2562ca55a1cafe3ca5c619a4388aee5b577052f54b64fddf97faf452",
    "serve-session/clean-adaptive":
        "3dbdeb8733f4248f9fd4d617091d7813132ea11885096256952e36c462108ed3",
    "serve-session/clean-full":
        "3dbdeb8733f4248f9fd4d617091d7813132ea11885096256952e36c462108ed3",
    "serve-session/fallback":
        "48cae1028c986e8461157532c6fa2933998a54d8be0fbd0f74f522fb8138851c",
    "serve-session/faulted-adaptive":
        "1bbbe1100b76bdfdac13cece3123491abcd3f552c95895c569004875ce2f5b35",
    "serve-session/faulted-full":
        "ac28dd460a9d8fa95496e7678dcac814290249aa0d4bc46f411cee9ec6ef365b",
    "serve-session/memo":
        "95e8883f840630b74c963dd511b05ca25aa2e4d55a3af15743dc06c45122ad21",
}


def make_titles():
    return {
        "feature": make_title("feature", frame_count=25),
        "short": make_title("short", frame_count=12),
    }


@pytest.fixture(scope="module")
def titles():
    return make_titles()


@pytest.fixture(scope="module")
def digests(titles):
    return compute_digests(titles)


def test_golden_covers_every_case(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_export_digest_matches_golden(digests, case):
    assert digests[case] == GOLDEN[case], (
        f"{case}: same-seed output changed; if intended, regenerate with "
        "`python tests/engine/test_export_golden.py`"
    )


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for key, value in sorted(compute_digests(make_titles()).items()):
        print(f'    "{key}":\n        "{value}",')
