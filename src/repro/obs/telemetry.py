"""Clock-driven telemetry: scrapes, a time-series store, burn-rate alerts.

:meth:`MetricsRegistry.snapshot` is a single end-of-run export with no
time axis, and :class:`~repro.obs.slo.SloPolicy` evaluates once per
finished report — neither can say *when* an error budget started
burning while sessions are still streaming. This module adds the time
axis:

* :class:`Telemetry` — a repeating :class:`~repro.engine.kernel.EventLoop`
  event that, every ``interval`` of simulated time, samples the whole
  metrics registry into a :class:`TelemetryStore` and evaluates alert
  rules. The scrape re-schedules itself only while the loop still has
  work pending, so a drained serve ends with one final sample instead
  of an immortal timer.
* :class:`TelemetryStore` — a stdlib-``sqlite3`` time-series store
  following the :mod:`repro.query.sqlutil` conventions (exact-rational
  timestamps as INTEGER pairs, a REAL approximation as a conservative
  prefilter re-judged exactly in Python). Windowed rollups —
  :meth:`~TelemetryStore.delta`, :meth:`~TelemetryStore.rate`,
  :meth:`~TelemetryStore.quantile` via elementwise bucket-count merges
  — are pure functions of the stored rows.
* :class:`AlertManager` — multi-window burn-rate alerting in the
  Prometheus style: each :class:`BurnRateRule` re-expresses an
  :class:`~repro.obs.slo.Slo` objective over a short/long window pair;
  an alert goes *pending* when the short window runs hot, *firing*
  when both windows agree, and *resolved* when the short window cools.
  Every transition is a flight-recorder event stamped with the
  simulated clock and a row in the store's alert log.

Determinism contract (the same one the rest of :mod:`repro.obs`
keeps): scrape times come from the kernel's rational clock, rollups
are exact-or-float arithmetic over stored rows, and
:meth:`TelemetryStore.dump` iterates in sorted order — two same-seed
runs produce byte-identical dumps and alert timelines.
"""

from __future__ import annotations

import json
import sqlite3
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import wraps
from operator import itemgetter
from typing import Any, Callable

from repro.core.rational import Rational, as_rational
from repro.errors import ObservabilityError
from repro.obs.events import Severity
from repro.obs.slo import Slo, SloPolicy, default_slo_policy

__all__ = [
    "Alert",
    "AlertManager",
    "BurnRateRule",
    "DEFAULT_SCRAPE_INTERVAL",
    "Telemetry",
    "TelemetryStore",
    "default_burn_rate_rules",
]

#: Default scrape cadence (simulated seconds). A quarter second keeps
#: several samples inside the default one-second short window while
#: adding only a handful of events per simulated second of serving.
DEFAULT_SCRAPE_INTERVAL = Rational(1, 4)

#: Relative slack for the REAL prefilter columns, mirroring the
#: TemporalIndex: the float scan may admit extra candidate rows, which
#: the exact re-check below discards — never the reverse.
_EPS_REL = 1e-9

_SCHEMA = """
CREATE TABLE IF NOT EXISTS scrapes (
    scrape_id INTEGER PRIMARY KEY,
    source    TEXT NOT NULL,
    t_num     INTEGER NOT NULL,
    t_den     INTEGER NOT NULL,
    t_approx  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS samples (
    scrape_id INTEGER NOT NULL,
    metric    TEXT NOT NULL,
    labels    TEXT NOT NULL,
    kind      TEXT NOT NULL,
    value     REAL,
    count     INTEGER,
    total     REAL,
    buckets   TEXT
);
CREATE TABLE IF NOT EXISTS hist_bounds (
    metric TEXT PRIMARY KEY,
    bounds TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS alert_log (
    seq        INTEGER PRIMARY KEY,
    alert      TEXT NOT NULL,
    source     TEXT NOT NULL,
    state      TEXT NOT NULL,
    t_num      INTEGER NOT NULL,
    t_den      INTEGER NOT NULL,
    t_approx   REAL NOT NULL,
    burn_short REAL NOT NULL,
    burn_long  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_samples_metric
    ON samples (metric, scrape_id);
CREATE INDEX IF NOT EXISTS idx_scrapes_time
    ON scrapes (t_approx);
"""

#: What a damaged database file raises, from SQLite or from decoding
#: its rows (bad UTF-8 or JSON, a non-integer timestamp column, a zero
#: denominator). The store re-raises each as ObservabilityError.
_DAMAGED = (sqlite3.DatabaseError, ValueError, TypeError, ArithmeticError)

#: Where each readable field sits in a live-mirror row; a histogram
#: row holds its bucket counts as a list, ready for the windowed merge.
_ROW_INDEX = {"value": 0, "count": 1, "total": 2, "buckets": 3}


def _margin(value: float) -> float:
    return _EPS_REL * (1.0 + abs(value))


def _reads_file(method):
    """Re-raise what a damaged file throws from a read as
    ObservabilityError, so a hostile file yields only typed errors."""

    @wraps(method)
    def guarded(self, *args, **kwargs):
        try:
            return method(self, *args, **kwargs)
        except _DAMAGED as exc:
            raise self._damaged(exc) from exc

    return guarded


class _Series:
    """One (source, metric, labels) series in the live mirror.

    ``times`` and ``rows`` hold the series' samples in its source's
    current epoch, oldest first; times never decrease within an epoch,
    so a window boundary is one bisect. ``base`` is the series' last
    row before the epoch began: the baseline of a window that starts
    before the epoch's first scrape (None: count from zero).
    """

    __slots__ = ("source", "name", "labels", "times", "rows", "base",
                 "counts")

    def __init__(self, source: str, name: str, labels: str):
        self.source = source
        self.name = name
        self.labels = labels
        self.times: list[Rational] = []
        self.rows: list[tuple] = []
        self.base: tuple | None = None
        # the last histogram counts seen and their JSON encoding
        self.counts: tuple[list, str] | None = None

    def trim(self, cutoff: Rational) -> None:
        """Drop rows older than the newest one at or before ``cutoff``:
        that row is the baseline of the longest window still answered."""
        times = self.times
        while len(times) > 1 and times[1] <= cutoff:
            del times[0]
            del self.rows[0]


def _answers_to(name: str) -> list[str]:
    """Every query name that stored metric ``name`` answers to: itself
    and each dotted suffix (``shard0.engine.play.underruns`` answers
    to ``engine.play.underruns``, ``play.underruns``, ...)."""
    return [name] + [name[i + 1:] for i, ch in enumerate(name) if ch == "."]


class TelemetryStore:
    """An exact-timestamped time series of metric samples in SQLite.

    One row per (scrape, metric, label set). Counters and gauges store
    their reading in ``value``; histograms store the observation
    ``count``, the running ``total`` and the bucket-count vector (the
    fixed boundaries live once per metric in ``hist_bounds``).
    Non-numeric gauge readings are kept as NULL — they have no place
    on a time axis but their presence is still dumped.

    Every scrape is written to SQLite as it happens. Alongside, a live
    mirror keeps each series' rows of its source's current *epoch* —
    one serve, one clock (:meth:`open_epoch`) — trimmed to the kept
    horizon plus one row. Reads at the newest scrape time within that
    horizon are answered from the mirror in O(series × log window);
    time-travel reads, longer windows and sources whose rows predate
    this process (a reopened file) take the SQL path.
    """

    def __init__(self, path: str = ":memory:"):
        # Imported lazily: repro.query pulls in repro.obs at package
        # import, so a top-level import here would be a cycle.
        from repro.query.sqlutil import open_tuned, rational_columns

        self._path = path
        self._rational_columns = rational_columns
        self._conn = open_tuned(path, _SCHEMA, ObservabilityError)
        self._closed = False
        # the live mirror: canonical (source, metric, labels JSON) keys,
        # the same series under each snapshot's label items, and the
        # series each (query name, source or None) read sums
        self._live: dict[tuple, _Series] = {}
        self._aliases: dict[tuple, _Series] = {}
        self._index: dict[tuple, list[_Series]] = {}
        # per source: how much trailing time the mirror keeps (None:
        # the whole epoch)
        self._keep: dict[str, Rational | None] = {}
        try:
            self._resume()
        except _DAMAGED as exc:
            self._conn.close()
            raise self._damaged(exc) from exc

    def _resume(self) -> None:
        """Pick up the sequences, the newest time and the histogram
        bounds of a reopened file (an empty store starts from zero)."""
        newest = self._conn.execute(
            "SELECT scrape_id, t_num, t_den FROM scrapes"
            " ORDER BY scrape_id DESC LIMIT 1"
        ).fetchone()
        self._scrape_seq = 0 if newest is None else int(newest[0])
        self._latest: Rational | None = (
            None if newest is None else Rational(newest[1], newest[2]))
        self._alert_seq = int(self._conn.execute(
            "SELECT COALESCE(MAX(seq), 0) FROM alert_log").fetchone()[0])
        self._bounds: dict[str, tuple] = {
            metric: tuple(json.loads(bounds)) for metric, bounds in
            self._conn.execute("SELECT metric, bounds FROM hist_bounds")
        }
        # sources whose rows live only in the file: reads touching them
        # take SQL until an epoch restarts their clock
        self._cold: set[str] = {row[0] for row in self._conn.execute(
            "SELECT DISTINCT source FROM scrapes")}

    def _damaged(self, exc: Exception) -> ObservabilityError:
        return ObservabilityError(
            f"telemetry store {self._path!r} is damaged or not a "
            f"telemetry database: {type(exc).__name__}: {exc}"
        )

    # -- writes ---------------------------------------------------------------

    def open_epoch(self, source: str, keep=None) -> None:
        """Restart ``source``'s clock: its next scrapes form a new epoch.

        A serve builds a fresh event loop at t=0, so one serve is one
        epoch. Each series' last row so far becomes the new epoch's
        baseline, so a window reaching back before the epoch's first
        scrape counts from the end of the previous serve — never from
        rows of an earlier clock. ``keep`` bounds the mirror to that
        much trailing time plus one row (None keeps the whole epoch);
        reads with longer windows take the SQL path.
        """
        for series in self._live.values():
            if series.source == source and series.rows:
                series.base = series.rows[-1]
                series.times = []
                series.rows = []
        self._keep[source] = None if keep is None else as_rational(keep)
        self._cold.discard(source)

    def record_scrape(self, source: str, at, snapshot: dict[str, Any]) -> int:
        """Store one full registry snapshot taken at simulated ``at``.

        Returns the scrape id. ``snapshot`` is the
        :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` shape (a
        scoped view's restricted snapshot works identically).
        """
        when = as_rational(at)
        scrape_id = self._scrape_seq + 1
        rows = []
        appends = []
        bounds = []
        for metric in sorted(snapshot):
            body = snapshot[metric]
            kind = body.get("type", "metric")
            for entry in body.get("series", ()):
                series = self._series_for(source, metric,
                                          entry.get("labels", {}))
                value = entry.get("value")
                if kind == "histogram" and isinstance(value, dict):
                    if metric not in self._bounds:
                        self._bounds[metric] = tuple(value["buckets"])
                        bounds.append((metric, json.dumps(value["buckets"])))
                    counts = value["counts"]
                    seen = series.counts
                    if seen is None or seen[0] != counts:
                        seen = series.counts = (list(counts),
                                                json.dumps(counts))
                    row = (None, value["count"], value["sum"], seen[0])
                    encoded = seen[1]
                else:
                    numeric = value if isinstance(value, (int, float)) \
                        and not isinstance(value, bool) else None
                    row = (numeric, None, None, None)
                    encoded = None
                rows.append((scrape_id, metric, series.labels, kind,
                             *row[:3], encoded))
                appends.append((series, row))
        num, den, approx = self._rational_columns(when)
        try:
            self._conn.execute(
                "INSERT INTO scrapes (scrape_id, source, t_num, t_den,"
                " t_approx) VALUES (?, ?, ?, ?, ?)",
                (scrape_id, source, num, den, approx),
            )
            if bounds:
                self._conn.executemany(
                    "INSERT OR IGNORE INTO hist_bounds (metric, bounds)"
                    " VALUES (?, ?)", bounds,
                )
            self._conn.executemany(
                "INSERT INTO samples (scrape_id, metric, labels, kind,"
                " value, count, total, buckets)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
        except sqlite3.DatabaseError as exc:
            raise self._damaged(exc) from exc
        self._scrape_seq = scrape_id
        self._latest = when
        keep = self._keep.get(source)
        cutoff = None if keep is None else when - keep
        for series, row in appends:
            series.times.append(when)
            series.rows.append(row)
            if cutoff is not None:
                series.trim(cutoff)
        return scrape_id

    def _series_for(self, source: str, metric: str,
                    labels: dict[str, Any]) -> _Series:
        """The mirror series for one snapshot entry. A new series is
        indexed under every query name it answers to, and its labels are
        JSON-encoded once, here."""
        alias = (source, metric, tuple(labels.items()))
        try:
            series = self._aliases.get(alias)
        except TypeError:
            raise ObservabilityError(
                f"labels of {metric!r} must have hashable values, "
                f"got {labels!r}"
            ) from None
        if series is not None:
            return series
        text = json.dumps(labels, sort_keys=True)
        key = (source, metric, text)
        series = self._live.get(key)
        if series is None:
            series = self._live[key] = _Series(source, metric, text)
            for name in _answers_to(metric):
                self._index.setdefault((name, source), []).append(series)
                self._index.setdefault((name, None), []).append(series)
        self._aliases[alias] = series
        return series

    def record_alert(self, alert: str, source: str, state: str, at,
                     burn_short: float, burn_long: float) -> int:
        """Append one alert transition to the timeline."""
        seq = self._alert_seq + 1
        num, den, approx = self._rational_columns(at)
        try:
            self._conn.execute(
                "INSERT INTO alert_log (seq, alert, source, state, t_num,"
                " t_den, t_approx, burn_short, burn_long)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (seq, alert, source, state, num, den, approx,
                 burn_short, burn_long),
            )
        except sqlite3.DatabaseError as exc:
            raise self._damaged(exc) from exc
        self._alert_seq = seq
        return seq

    # -- reads ----------------------------------------------------------------

    @property
    def scrape_count(self) -> int:
        return self._scrape_seq

    def latest_time(self) -> Rational | None:
        """The newest scrape's simulated time, or None when empty."""
        return self._latest

    @_reads_file
    def sources(self) -> list[str]:
        return [r[0] for r in self._conn.execute(
            "SELECT DISTINCT source FROM scrapes ORDER BY source"
        )]

    @_reads_file
    def metrics(self) -> list[str]:
        return [r[0] for r in self._conn.execute(
            "SELECT DISTINCT metric FROM samples ORDER BY metric"
        )]

    @_reads_file
    def metric_kinds(self) -> dict[str, str]:
        """``{metric: kind}`` for every stored metric."""
        return {r[0]: r[1] for r in self._conn.execute(
            "SELECT DISTINCT metric, kind FROM samples ORDER BY metric"
        )}

    def _matches(self, metric: str, name: str) -> bool:
        """Whether stored ``name`` answers to query ``metric``: exact,
        or a scoped ``<prefix>.<metric>`` (fleet shards prefix every
        metric with their shard name). Agrees with :func:`_answers_to`."""
        return name == metric or name.endswith("." + metric)

    @_reads_file
    def _sql_series(self, metric: str, at, source: str | None,
                    field: str) -> dict[tuple, list[tuple]]:
        """Per-(source, metric, labels) ``(time, field)`` rows from SQL,
        in insert order; with ``at``, only rows up to exact ``at``.

        The SQL ``t_approx`` bound is the conservative REAL prefilter;
        candidates are re-judged against the exact rational timestamp,
        so float rounding can only widen the scan. Bucket counts come
        back decoded.
        """
        # The LIKE arm is a coarse SQL prefilter (its ``_`` wildcard
        # over-matches); _matches() below re-judges exactly.
        clauses = ["(m.metric = ? OR m.metric LIKE ?)"]
        params: list[Any] = [metric, "%." + metric]
        if at is not None:
            hi = float(at)
            clauses.append("s.t_approx <= ?")
            params.append(hi + _margin(hi))
        if source is not None:
            clauses.append("s.source = ?")
            params.append(source)
        query = (
            f"SELECT s.source, m.metric, m.labels, s.t_num, s.t_den,"
            f" m.{field} FROM samples m"
            f" JOIN scrapes s ON s.scrape_id = m.scrape_id"
            f" WHERE {' AND '.join(clauses)}"
            f" ORDER BY m.scrape_id, m.rowid"
        )
        grouped: dict[tuple, list[tuple]] = {}
        for row in self._conn.execute(query, params):
            if not self._matches(metric, row[1]):
                continue
            when = Rational(row[3], row[4])
            if at is not None and when > at:  # prefilter false positive
                continue
            value = row[5]
            if field == "buckets" and value is not None:
                value = json.loads(value)
            grouped.setdefault((row[0], row[1], row[2]), []).append(
                (when, value)
            )
        return grouped

    def _live_series(self, metric: str, at, window,
                     source: str | None) -> list[_Series] | None:
        """The mirror series answering a read, or None when the read
        needs SQL: ``at`` before the newest scrape, a window longer than
        a source's kept horizon, or a source whose rows predate this
        process."""
        if self._latest is None or at < self._latest:
            return None
        if source is None:
            if self._cold:
                return None
            keeps = list(self._keep.values())
        else:
            if source in self._cold:
                return None
            keeps = [self._keep.get(source)]
        for keep in keeps:
            if keep is not None and window > keep:
                return None
        return self._index.get((metric, source), [])

    def _brackets(self, metric: str, at, window, source: str | None,
                  field: str) -> list[tuple]:
        """``(name, baseline, last)`` readings of ``field`` for every
        matching series with samples: ``last`` is its newest reading up
        to ``at``, ``baseline`` its last reading at or before the window
        start (None: the series counts from zero)."""
        start = at - window
        live = self._live_series(metric, at, window, source)
        out = []
        if live is not None:
            index = _ROW_INDEX[field]
            for series in live:
                rows = series.rows
                if not rows:
                    continue
                i = bisect_right(series.times, start)
                base = rows[i - 1] if i else series.base
                out.append((series.name,
                            None if base is None else base[index],
                            rows[-1][index]))
            return out
        for (_, name, _), samples in self._sql_series(
                metric, at, source, field).items():
            i = bisect_right(samples, start, key=itemgetter(0))
            out.append((name, samples[i - 1][1] if i else None,
                        samples[-1][1]))
        return out

    def delta(self, metric: str, window, at=None, source: str | None = None,
              field: str = "value") -> float:
        """Counter increase over the trailing ``window`` ending at ``at``
        (default: the newest scrape), summed across matching series.

        ``field`` selects the sampled column: ``"value"`` for counters
        and gauges, ``"count"`` / ``"total"`` for histogram observation
        counts and running sums. A series first seen inside the window
        contributes its whole reading (counters start at zero).
        """
        if field not in ("value", "count", "total"):
            raise ObservabilityError(
                f"delta field must be value, count or total, got {field!r}"
            )
        at = self.latest_time() if at is None else as_rational(at)
        if at is None:
            return 0.0
        window = as_rational(window)
        if window <= 0:
            raise ObservabilityError(f"window must be positive, got {window}")
        total = 0.0
        for _, before, last in self._brackets(metric, at, window, source,
                                              field):
            if last is None:
                continue
            total += last - (0.0 if before is None else before)
        return total

    def rate(self, metric: str, window, at=None, source: str | None = None,
             field: str = "value") -> float:
        """Per-second rate: :meth:`delta` over the window length."""
        return self.delta(metric, window, at=at, source=source,
                          field=field) / float(as_rational(window))

    def quantile(self, metric: str, q: float, window, at=None,
                 source: str | None = None) -> float:
        """Windowed quantile of a histogram metric.

        Merges the elementwise bucket-count *deltas* over the window
        across every matching series, then interpolates within the
        merged counts exactly as
        :meth:`~repro.obs.metrics.Histogram.quantile` does (overflow
        ranks clamp to the last finite boundary). 0.0 when the window
        saw no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        at = self.latest_time() if at is None else as_rational(at)
        if at is None:
            return 0.0
        window = as_rational(window)
        if window <= 0:
            raise ObservabilityError(f"window must be positive, got {window}")
        merged: list[int] = []
        bounds: tuple[float, ...] | None = None
        for name, base_counts, last_counts in self._brackets(
                metric, at, window, source, "buckets"):
            if last_counts is None:
                continue
            if bounds is None:
                bounds = self._bounds.get(name)
                if bounds is None:
                    continue
            if base_counts is None:
                base_counts = [0] * len(last_counts)
            if not merged:
                merged = [0] * len(last_counts)
            for i, (lo, hi_c) in enumerate(zip(base_counts, last_counts)):
                merged[i] += hi_c - lo
        count = sum(merged)
        if not merged or count == 0 or bounds is None:
            return 0.0
        target = q * count
        cumulative = 0
        for index, bucket_count in enumerate(merged):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                if index >= len(bounds):
                    return bounds[-1]
                hi = bounds[index]
                lo = bounds[index - 1] if index > 0 else min(0.0, hi)
                fraction = (target - cumulative) / bucket_count
                return lo + fraction * (hi - lo)
            cumulative += bucket_count
        return bounds[-1]

    def series(self, metric: str, source: str | None = None,
               field: str = "value") -> dict[tuple, list[tuple]]:
        """Every matching series as ``{(source, metric, labels):
        [(time, value), ...]}`` — the dashboard's raw feed, read from
        SQL (the mirror holds only recent rows)."""
        if field not in ("value", "count", "total"):
            raise ObservabilityError(
                f"series field must be value, count or total, got {field!r}"
            )
        return self._sql_series(metric, None, source, field)

    @_reads_file
    def alert_rows(self) -> list[dict[str, Any]]:
        """The alert timeline in transition order, exact timestamps."""
        return [
            {
                "seq": seq, "alert": alert, "source": source,
                "state": state, "at": str(Rational(num, den)),
                "burn_short": burn_short, "burn_long": burn_long,
            }
            for seq, alert, source, state, num, den, burn_short, burn_long
            in self._conn.execute(
                "SELECT seq, alert, source, state, t_num, t_den,"
                " burn_short, burn_long FROM alert_log ORDER BY seq"
            )
        ]

    @_reads_file
    def dump(self) -> str:
        """The whole store as deterministic JSON lines.

        Fixed table order, fixed row order, sorted keys, exact
        timestamps as ``num/den`` strings — the byte-identity oracle
        for same-seed runs.
        """
        lines = []
        for sid, source, num, den in self._conn.execute(
                "SELECT scrape_id, source, t_num, t_den FROM scrapes"
                " ORDER BY scrape_id"):
            lines.append(json.dumps(
                {"scrape": sid, "source": source,
                 "at": str(Rational(num, den))},
                sort_keys=True))
        for row in self._conn.execute(
                "SELECT scrape_id, metric, labels, kind, value, count,"
                " total, buckets FROM samples"
                " ORDER BY scrape_id, metric, labels"):
            sid, metric, labels, kind, value, count, total, buckets = row
            body: dict[str, Any] = {"scrape": sid, "metric": metric,
                                    "labels": json.loads(labels),
                                    "kind": kind}
            if kind == "histogram":
                body["count"] = count
                body["sum"] = total
                body["counts"] = json.loads(buckets) if buckets else []
            else:
                body["value"] = value
            lines.append(json.dumps(body, sort_keys=True))
        for metric, bounds in self._conn.execute(
                "SELECT metric, bounds FROM hist_bounds ORDER BY metric"):
            lines.append(json.dumps(
                {"histogram": metric, "buckets": json.loads(bounds)},
                sort_keys=True))
        for row in self.alert_rows():
            lines.append(json.dumps(row, sort_keys=True))
        return "\n".join(lines) + "\n"

    def close(self) -> None:
        """Commit and close: a file-backed store reopens with its whole
        history (:meth:`_resume`). Closing twice is a no-op."""
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.commit()
        except sqlite3.DatabaseError as exc:
            raise self._damaged(exc) from exc
        finally:
            self._conn.close()

    def __enter__(self) -> "TelemetryStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"TelemetryStore({self._scrape_seq} scrapes, "
            f"{self._alert_seq} alert transitions)"
        )


# -- burn-rate rules -----------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class BurnRateRule:
    """One SLO objective re-expressed over sliding windows.

    The measured value is ``delta(numerator) / delta(denominator)``
    over each window — or, with ``denominator=None``, the numerator's
    per-second rate. The rule runs hot in a window when
    ``slo.burn(measured) >= burn_threshold``. Short/long window pairs
    are the Prometheus multi-window idiom: the short window reacts,
    the long window confirms, and their conjunction gates *firing* so
    a single bad scrape cannot page.
    """

    name: str
    slo: Slo
    numerator: str
    denominator: str | None = None
    short_window: Any = Rational(1)
    long_window: Any = Rational(4)
    burn_threshold: float = 1.0
    numerator_field: str = "value"
    denominator_field: str = "value"

    def __post_init__(self) -> None:
        short = as_rational(self.short_window)
        long = as_rational(self.long_window)
        if short <= 0 or long <= 0:
            raise ObservabilityError(
                f"rule {self.name!r} windows must be positive"
            )
        if short >= long:
            raise ObservabilityError(
                f"rule {self.name!r} short window {short} must be shorter "
                f"than long window {long}"
            )
        if self.burn_threshold <= 0:
            raise ObservabilityError(
                f"rule {self.name!r} burn_threshold must be positive"
            )

    def measured(self, store: TelemetryStore, source: str | None,
                 at, window) -> float:
        numerator = store.delta(self.numerator, window, at=at, source=source,
                                field=self.numerator_field)
        if self.denominator is None:
            return numerator / float(as_rational(window))
        denominator = store.delta(self.denominator, window, at=at,
                                  source=source,
                                  field=self.denominator_field)
        return numerator / denominator if denominator > 0 else 0.0

    def burn(self, store: TelemetryStore, source: str | None,
             at, window) -> float:
        return self.slo.burn(self.measured(store, source, at, window))


def default_burn_rate_rules(
        policy: SloPolicy | None = None) -> tuple[BurnRateRule, ...]:
    """Stock rules re-expressing the serving SLOs over windows.

    Only the objectives with a natural windowed reading are covered:
    deadline-miss rate (underruns over elements) and rebuffer ratio
    (lateness seconds accrued per second of serving). Startup latency
    and delivered quality remain per-report verdicts.
    """
    policy = default_slo_policy() if policy is None else policy
    by_name = {slo.name: slo for slo in policy}
    rules = []
    miss = by_name.get("deadline-miss-rate")
    if miss is not None:
        rules.append(BurnRateRule(
            name="deadline-miss-burn", slo=miss,
            numerator="engine.play.underruns",
            denominator="engine.play.elements",
        ))
    rebuffer = by_name.get("rebuffer-ratio")
    if rebuffer is not None:
        rules.append(BurnRateRule(
            name="rebuffer-burn", slo=rebuffer,
            numerator="engine.play.lateness_seconds",
            numerator_field="total",
        ))
    return tuple(rules)


# -- alert lifecycle -----------------------------------------------------------

#: Alert states. Transitions always pass through *pending*; *resolved*
#: is re-armable (a later hot short window restarts at pending).
INACTIVE = "inactive"
PENDING = "pending"
FIRING = "firing"
RESOLVED = "resolved"

_TRANSITION_SEVERITY = {
    PENDING: Severity.WARNING,
    FIRING: Severity.ERROR,
    RESOLVED: Severity.INFO,
    INACTIVE: Severity.DEBUG,
}


@dataclass
class Alert:
    """One rule's lifecycle against one source."""

    name: str
    source: str
    state: str = INACTIVE
    since: Any = None
    burn_short: float = 0.0
    burn_long: float = 0.0
    transitions: list[tuple] = field(default_factory=list)

    def export(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "source": self.source,
            "state": self.state,
            "since": None if self.since is None else str(self.since),
            "burn_short": self.burn_short,
            "burn_long": self.burn_long,
            "transitions": [
                {"state": state, "at": str(at)}
                for state, at in self.transitions
            ],
        }


def _next_state(state: str, hot_short: bool, hot_long: bool) -> str:
    if state in (INACTIVE, RESOLVED):
        return PENDING if hot_short else state
    if state == PENDING:
        if not hot_short:
            return INACTIVE
        return FIRING if hot_long else PENDING
    # firing
    return RESOLVED if not hot_short else FIRING


class AlertManager:
    """Evaluates burn-rate rules at scrape time, tracks alert state.

    One :class:`Alert` per (rule, source). Every state change is
    recorded in the store's alert log and — when a flight recorder is
    supplied — as a ``telemetry`` event at the scrape's simulated
    time. ``on_transition``, when set, is called as
    ``on_transition(alert, at)`` after each change; tests and
    dashboards use it to observe health mid-serve.
    """

    def __init__(self, rules: tuple[BurnRateRule, ...],
                 store: TelemetryStore):
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ObservabilityError(
                f"duplicate burn-rate rule names: {names}"
            )
        self.rules = tuple(rules)
        self.store = store
        self._alerts: dict[tuple[str, str], Alert] = {}
        self.on_transition: Callable[[Alert, Any], None] | None = None

    def evaluate(self, source: str, at, events=None, metrics=None) -> list[Alert]:
        """Run every rule against ``source`` at simulated ``at``.

        Returns the alerts that changed state this evaluation.
        """
        changed = []
        for rule in self.rules:
            burn_short = rule.burn(self.store, source, at, rule.short_window)
            burn_long = rule.burn(self.store, source, at, rule.long_window)
            hot_short = burn_short >= rule.burn_threshold
            hot_long = burn_long >= rule.burn_threshold
            key = (rule.name, source)
            alert = self._alerts.get(key)
            if alert is None:
                alert = self._alerts[key] = Alert(name=rule.name,
                                                  source=source)
            alert.burn_short = burn_short
            alert.burn_long = burn_long
            state = _next_state(alert.state, hot_short, hot_long)
            if state == alert.state:
                continue
            alert.state = state
            alert.since = at
            alert.transitions.append((state, at))
            self.store.record_alert(rule.name, source, state, at,
                                    burn_short, burn_long)
            if events is not None:
                events.record(
                    _TRANSITION_SEVERITY[state], "telemetry",
                    f"alert.{state}", at=at, alert=rule.name,
                    source=source, burn_short=burn_short,
                    burn_long=burn_long,
                )
            if metrics is not None:
                metrics.counter(
                    "telemetry.alert.transitions",
                    help="alert state changes, labeled by new state",
                ).inc(state=state)
            if self.on_transition is not None:
                self.on_transition(alert, at)
            changed.append(alert)
        return changed

    def all(self) -> list[Alert]:
        """Every tracked alert, sorted by (rule, source)."""
        return [self._alerts[key] for key in sorted(self._alerts)]

    def for_source(self, source: str) -> list[Alert]:
        return [a for a in self.all() if a.source == source]

    def firing(self, source: str | None = None) -> list[Alert]:
        return [a for a in self.all() if a.state == FIRING
                and (source is None or a.source == source)]

    def active(self, source: str | None = None) -> list[Alert]:
        """Alerts currently pending or firing."""
        return [a for a in self.all() if a.state in (PENDING, FIRING)
                and (source is None or a.source == source)]

    def __repr__(self) -> str:
        return (
            f"AlertManager({len(self.rules)} rules, "
            f"{len(self.firing())} firing)"
        )


# -- the scraper ---------------------------------------------------------------


def _base_registry(metrics):
    """Unwrap nested ScopedMetrics views down to the real registry."""
    while hasattr(metrics, "registry"):
        metrics = metrics.registry
    return metrics


class Telemetry:
    """The clock-driven scraper tying store and alerts to a serve.

    :meth:`attach` schedules the first scrape ``interval`` after the
    loop's current time; each scrape samples the registry, evaluates
    the alert rules, and re-schedules itself only while the loop still
    has other work pending — the timer never keeps a finished serve
    alive. :meth:`drain` cools remaining active alerts after the
    workload finishes by scheduling further scrapes over an idle loop.

    One Telemetry may serve a whole fleet: each shard attaches with
    its own ``source`` name and scoped sink, and the shared store
    keeps per-source series.
    """

    def __init__(self, *, interval=DEFAULT_SCRAPE_INTERVAL,
                 store: TelemetryStore | None = None,
                 rules: tuple[BurnRateRule, ...] | None = None,
                 policy: SloPolicy | None = None):
        self.interval = as_rational(interval)
        if self.interval <= 0:
            raise ObservabilityError(
                f"scrape interval must be positive, got {interval}"
            )
        self.store = store if store is not None else TelemetryStore()
        if rules is None:
            rules = default_burn_rate_rules(policy)
        self.alerts = AlertManager(rules, self.store)
        self._horizon = max(
            (as_rational(rule.long_window) for rule in self.alerts.rules),
            default=Rational(0),
        )
        self._overflow_seen: dict[tuple[str, tuple], int] = {}

    def attach(self, loop, obs, source: str) -> None:
        """Schedule the repeating scrape on ``loop`` for ``obs``.

        Every serve builds a fresh loop whose clock starts at zero, so
        attaching opens a new store epoch for ``source``; the store's
        mirror keeps the longest rule window plus one scrape.
        """
        self.store.open_epoch(source, keep=self._horizon)
        loop.after(self.interval, self._scrape, loop, obs, source)

    def _scrape(self, loop, obs, source: str) -> None:
        self.sample(obs, source, at=loop.clock.now())
        if loop.pending > 0:
            loop.after(self.interval, self._scrape, loop, obs, source)

    def sample(self, obs, source: str, at) -> int:
        """Take one sample now: overflow check, snapshot, alert pass."""
        self._note_overflow(obs)
        scrape_id = self.store.record_scrape(source, at,
                                             obs.metrics.snapshot())
        self.alerts.evaluate(source, at, events=obs.events,
                             metrics=obs.metrics)
        return scrape_id

    def _note_overflow(self, obs) -> None:
        """Mirror histogram overflow-bucket growth into a counter.

        ``Histogram.quantile`` clamps overflow ranks to the last finite
        boundary; this counter makes that saturation visible in the
        time series instead of silent.
        """
        registry = _base_registry(obs.metrics)
        names = getattr(obs.metrics, "names", lambda: [])()
        overflow = None
        for name in names:
            metric = registry.get(name)
            if getattr(metric, "kind", "") != "histogram" or \
                    name.endswith("telemetry.histogram.overflow"):
                continue
            for key in metric.labels_seen():
                seen = self._overflow_seen.get((name, key), 0)
                current = metric.overflow_count(**dict(key))
                if current > seen:
                    if overflow is None:
                        overflow = obs.metrics.counter(
                            "telemetry.histogram.overflow",
                            help="observations beyond the last histogram"
                                 " boundary, by metric",
                        )
                    overflow.inc(current - seen, metric=name)
                    self._overflow_seen[(name, key)] = current

    def drain(self, loop, obs, source: str, limit: int = 64) -> int:
        """Scrape an idle loop until ``source`` has no active alerts.

        Each extra scrape advances the simulated clock one interval;
        with no new traffic the windows empty, burns cool, and pending
        alerts cancel while firing ones resolve — all before the serve
        returns. ``limit`` bounds the cool-down against pathological
        windows. Returns the number of extra scrapes taken.
        """
        taken = 0
        while taken < limit and self.alerts.active(source):
            loop.after(self.interval, self.sample_once, loop, obs, source)
            loop.run()
            taken += 1
        return taken

    def sample_once(self, loop, obs, source: str) -> None:
        """One non-rescheduling scrape (the drain's step)."""
        self.sample(obs, source, at=loop.clock.now())

    def __repr__(self) -> str:
        return (
            f"Telemetry(interval={self.interval}, "
            f"{self.store._scrape_seq} scrapes, "
            f"{len(self.alerts.rules)} rules)"
        )
