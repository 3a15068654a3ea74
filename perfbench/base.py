"""What every workload shares: the item loop contract, latency summaries
and the tracing targets common to all layers."""

from __future__ import annotations

import time

from repro.blob.pages import FilePager, PageStore
from repro.cache.derivations import DerivationCache
from repro.cache.pool import BufferPool
from repro.durability.store import DurablePageStore
from repro.durability.wal import WriteAheadLog
from repro.edit.editor import MediaEditor
from repro.engine.fleet import Fleet
from repro.engine.kernel import EventLoop
from repro.engine.player import Player
from repro.engine.vod import VodServer
from repro.obs.events import FlightRecorder
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import Tracer
from repro.query.database import MediaDatabase
from repro.query.index import TemporalIndex

from perfbench import stats
from perfbench.trace import Patches, SpanRecorder, self_times

__all__ = ["LAYERS", "Workload", "common_per_layer", "traced_common"]

#: Layers whose self time the traced run attributes, in report order.
LAYERS = (
    "codecs", "blob", "cache.pool", "durability", "storage",
    "core.interpretation", "edit", "cache.derivations", "engine.recorder",
    "engine.player", "analysis", "engine.kernel", "engine.fleet",
    "engine.vod", "obs", "query.catalog", "query.index",
)

#: MediaDatabase read calls, by the per-layer query class they feed.
QUERY_CLASSES = {
    "objects": "attr",
    "components_during": "during",
    "components_overlapping": "overlap",
    "occurrences_of": "occurrences",
    "component_descendants": "descendants",
    "lineage": "lineage",
    "derived_from": "lineage",
}


class Workload:
    """One closed-loop workload.

    ``setup`` builds the inputs and opens the program's stores; it may
    run several times in one process (only the last state is kept).
    ``run_item`` executes and times one item (a title, a serve call or
    a catalog operation); ``check_item`` verifies its outputs outside the timed
    region and returns a list of problems.
    """

    name = ""
    items_per_second = 1.0
    #: Fewest items that give every timing 100 samples (a p90).
    min_items = 100
    setup_repetitions = 5
    item_name = "item"
    clock = staticmethod(time.perf_counter)
    #: Reference-speed seconds per wall second, set before each item.
    scale = 1.0

    def __init__(self, seed: int, workdir: str, items: int):
        self.seed = seed
        self.workdir = workdir
        self.items = items

    def setup(self, repetition: int) -> None:
        raise NotImplementedError

    def elapsed(self, start: float) -> float:
        """Reference-speed seconds since ``start`` (a :attr:`clock` value)."""
        return (self.clock() - start) * self.scale

    def run_item(self, index: int) -> None:
        raise NotImplementedError

    def check_item(self, index: int) -> list[str]:
        return []

    def close(self) -> None:
        pass

    def end_to_end(self) -> dict[str, float]:
        raise NotImplementedError

    def aliases(self) -> dict[str, str]:
        """End-to-end slot -> this workload's own name for it."""
        return {}

    @staticmethod
    def latency_metrics(main_ms: list[float],
                        side_ms: list[float]) -> dict[str, float]:
        return {
            "p50_ms": stats.median(main_ms),
            "p90_ms": stats.percentile(main_ms, 90),
            "side_p50_ms": stats.median(side_ms),
            "side_p90_ms": stats.percentile(side_ms, 90),
        }

    # -- tracing hooks -----------------------------------------------------------

    def install_tracing(self, patches: Patches,
                        recorder: SpanRecorder) -> None:
        """Wrap this workload's own entry points (beyond the common ones)."""

    def remove_tracing(self) -> None:
        pass

    def trace_counters(self) -> dict[str, float]:
        """Cumulative counters; the traced run sums their growth over
        the traced items and passes it to :meth:`per_layer`."""
        return {}

    def per_layer(self, recorder: SpanRecorder, counted: dict[str, float],
                  items: int) -> dict[str, float]:
        return {}

    def databases(self) -> list[MediaDatabase]:
        return []


def traced_common(patches: Patches, tally: dict) -> None:
    """Wrap the public entry points every workload may reach; counted
    calls (kernel events) add up in ``tally``."""
    method = patches.method
    # engine.player and analysis
    method(Player, "play", "engine.player", "engine.player.play")
    method(Player, "plan_multimedia", "engine.player", "engine.player.plan")
    method(Player, "plan_interpretation", "engine.player",
           "engine.player.plan")
    method(Player, "verify_plan", "analysis", "analysis.verify")
    patches.stepper(Player, "stepper", "engine.player", "engine.player.step")
    # pages, pool, durability
    for attr in ("read", "write", "allocate"):
        method(PageStore, attr, "blob", f"blob.page_{attr}")
        method(DurablePageStore, attr, "blob", f"blob.page_{attr}")
    method(FilePager, "read_page", "blob", "blob.pager_read")
    method(FilePager, "write_page", "blob", "blob.pager_write")
    method(FilePager, "grow", "blob", "blob.pager_grow")
    for attr in ("get", "put", "pin", "unpin", "invalidate"):
        method(BufferPool, attr, "cache.pool", f"cache.pool.{attr}")
    for attr in ("begin", "log_grow", "log_write", "commit"):
        method(WriteAheadLog, attr, "durability", f"durability.wal_{attr}")
    # derivations and editing
    for attr in ("materialize", "get", "put"):
        method(DerivationCache, attr, "cache.derivations",
               f"cache.derivations.{attr}")
    for attr in ("cut", "transition", "concat"):
        method(MediaEditor, attr, "edit", "edit.derive")
    # kernel, fleet, server
    method(EventLoop, "run", "engine.kernel", "engine.kernel.run", tally)
    method(Fleet, "serve", "engine.fleet", "engine.fleet.serve")
    method(VodServer, "serve", "engine.vod", "engine.vod.serve")
    # observability
    method(Telemetry, "sample", "obs", "obs.telemetry.sample")
    for attr in ("counter", "gauge", "histogram"):
        method(MetricsRegistry, attr, "obs", "obs.metrics")
    method(Counter, "inc", "obs", "obs.metrics")
    method(Gauge, "set", "obs", "obs.metrics")
    method(Gauge, "set_max", "obs", "obs.metrics")
    method(Histogram, "observe", "obs", "obs.metrics")
    method(FlightRecorder, "record", "obs", "obs.events")
    method(Tracer, "record", "obs", "obs.tracer")
    method(Tracer, "event", "obs", "obs.tracer")
    # catalog and index
    for attr in ("add_object", "set_attribute", "add_interpretation",
                 "add_multimedia", *QUERY_CLASSES):
        method(MediaDatabase, attr, "query.catalog", f"query.catalog.{attr}")
    for attr in ("index_object", "set_attribute", "index_provenance",
                 "ensure_multimedia", "object_names", "components_overlapping",
                 "components_during", "occurrences_of",
                 "component_descendants", "ancestors_of", "descendants_of"):
        method(TemporalIndex, attr, "query.index", f"query.index.{attr}")


def _p50(values: list[float], scale: float) -> float:
    return stats.median(values) * scale if values else 0.0


def common_per_layer(recorder: SpanRecorder, tally: dict, items: int,
                     databases: list[MediaDatabase]) -> dict[str, float]:
    """Per-layer metrics every workload reports (0 where unused)."""
    spans = recorder.spans
    selfs = self_times(spans)
    own: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for span in spans:
        own[span.name] = own.get(span.name, 0.0) + selfs[span.span_id]
        inclusive[span.name] = inclusive.get(span.name, 0.0) + span.duration
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + \
            selfs[span.span_id]
        durations.setdefault(span.name, []).append(span.duration)
    traced = sum(s.duration for s in spans if s.parent is None)
    events = tally.get("engine.kernel.run", 0)
    steps = durations.get("engine.player.step", [])
    metrics = {
        "engine.player.plan_s": own.get("engine.player.plan", 0.0) / items,
        "analysis.verify_s": inclusive.get("analysis.verify", 0.0) / items,
        "engine.player.step_us": (sum(steps) / len(steps) * 1e6
                                  if steps else 0.0),
        "engine.kernel.events": events / items,
        "engine.kernel.event_us": (own.get("engine.kernel.run", 0.0)
                                   / events * 1e6 if events else 0.0),
        "engine.fleet.serve_self_s": own.get("engine.fleet.serve", 0.0)
        / items,
        "obs.telemetry.sample_s": inclusive.get("obs.telemetry.sample", 0.0)
        / items,
        "obs.self_share": layer_self.get("obs", 0.0) / traced,
        "trace.unattributed_share": layer_self.get("item", 0.0) / traced,
    }
    reads: dict[str, list[float]] = {}
    for method_name, query_class in QUERY_CLASSES.items():
        reads.setdefault(query_class, []).extend(
            durations.get(f"query.catalog.{method_name}", []))
    for query_class, values in reads.items():
        metrics[f"query.{query_class}_p50_ms"] = _p50(values, 1e3)
    metrics["query.add_object_us"] = _p50(
        durations.get("query.catalog.add_object", []), 1e6)
    metrics["query.set_attribute_us"] = _p50(
        durations.get("query.catalog.set_attribute", []), 1e6)
    metrics["query.add_multimedia_ms"] = _p50(
        durations.get("query.catalog.add_multimedia", []), 1e3)
    index_bytes = objects = 0
    for db in databases:
        index_bytes += db.index.census()["size_bytes"]
        objects += len(db)
    metrics["query.index_bytes_per_object"] = (index_bytes / objects
                                               if objects else 0.0)
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_share"] = \
            layer_self.get(layer, 0.0) / traced
    return metrics
