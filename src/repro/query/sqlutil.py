"""Shared stdlib-``sqlite3`` helpers for the relational accelerators.

Two in-tree subsystems keep relational state in SQLite: the
:class:`~repro.query.index.TemporalIndex` (PR 9) and the telemetry
time-series store (:mod:`repro.obs.telemetry`). Both follow the same
conventions, factored out here:

* **Tuned in-memory-class connections** — the stores are deterministic
  caches over exact in-process state, so durability pragmas are off:
  crash safety belongs to :mod:`repro.durability`, not to these
  sidecars, and the pragmas buy a large constant factor.
* **Exact-rational columns** — timestamps are stored as exact
  ``(numerator, denominator)`` INTEGER pairs plus a REAL approximation.
  The REAL column is a *conservative prefilter* for B-tree range scans;
  candidates are re-judged in Python with exact
  :class:`~repro.core.rational.Rational` arithmetic, so float rounding
  can widen a scan but never change an answer.
"""

from __future__ import annotations

import math
import sqlite3
from fractions import Fraction

from repro.core.rational import Rational, as_rational
from repro.errors import MediaModelError

__all__ = [
    "approx",
    "open_tuned",
    "rational_columns",
    "rational_from_row",
]


def open_tuned(path: str = ":memory:", schema: str = "",
               error: type[MediaModelError] = MediaModelError
               ) -> sqlite3.Connection:
    """A connection with the accelerator pragmas applied and ``schema``
    run.

    ``journal_mode=MEMORY`` / ``synchronous=OFF`` / ``temp_store=MEMORY``:
    the store is rebuildable from in-process state, so nothing is paid
    for durability it does not need. A file SQLite cannot open, or one
    that is not a database (or whose schema is damaged), raises
    ``error`` — a typed error, never a raw ``sqlite3`` one.
    """
    try:
        conn = sqlite3.connect(path)
    except sqlite3.Error as exc:
        raise error(f"cannot open database {path!r}: {exc}") from exc
    try:
        conn.executescript(
            "PRAGMA journal_mode=MEMORY;"
            "PRAGMA synchronous=OFF;"
            "PRAGMA temp_store=MEMORY;" + schema
        )
    except (sqlite3.DatabaseError, UnicodeDecodeError) as exc:
        # a damaged schema page can hold undecodable SQL text
        conn.close()
        raise error(f"{path!r} is not a usable database: {exc}") from exc
    except Exception:
        conn.close()  # don't leak the handle when a pragma fails
        raise
    return conn


def approx(value: Fraction) -> float:
    """A REAL approximation of an exact rational, for prefilter columns.

    Saturates to +/-inf on astronomical values instead of raising —
    the exact columns still hold the true number.
    """
    try:
        return float(value)
    # repro: suppress DF006 — saturating to ±inf is the documented contract
    except OverflowError:  # pragma: no cover - astronomical timestamps
        return math.inf if value > 0 else -math.inf


def rational_columns(value) -> tuple[int, int, float]:
    """``(numerator, denominator, approximation)`` for an exact column
    pair plus its REAL prefilter."""
    exact = as_rational(value)
    return exact.numerator, exact.denominator, approx(exact)


def rational_from_row(numerator: int, denominator: int) -> Rational:
    """The exact value back from its column pair."""
    return Rational(numerator, denominator)
