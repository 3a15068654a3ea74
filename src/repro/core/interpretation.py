"""Interpretation: the mapping from BLOBs to media objects (Definition 5).

"An interpretation, I, of a BLOB B, is a mapping from B to a set of media
objects. For each object, I specifies the object's descriptor and its
placement in B. If the object is a media sequence then for each media
element I specifies the element's order within the sequence, its start
time, duration and element descriptor."

The logical view of an interpretation is a *placement table* per
sequence, exactly as in the paper's §4.1 example::

    video1(elementNumber, elementSize, blobPlacement)
    audio1(elementNumber, blobPlacement)

and, for heterogeneous/non-continuous objects::

    video1(elementNumber, startTime, duration,
           elementDescriptor, elementSize, blobPlacement)

Interpretation "supports the timed stream abstraction by encapsulating
information about the low-level encoding and BLOB placement of media
elements": :meth:`Interpretation.materialize` turns a placement table
plus the BLOB into a :class:`~repro.core.streams.TimedStream` whose
payloads are the placed byte spans (optionally decoded by a codec).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.blob.blob import Blob
from repro.core.descriptors import ElementDescriptor, MediaDescriptor
from repro.core.elements import MediaElement
from repro.core.media_types import MediaType
from repro.core.streams import TimedStream, TimedTuple
from repro.core.time_system import DiscreteTimeSystem
from repro.errors import InterpretationError
from repro.obs.instrument import Instrumented


@dataclass(frozen=True, slots=True)
class PlacementEntry:
    """One row of a placement table.

    ``element_number`` is the element's order within the sequence;
    ``start``/``duration`` are discrete time values; ``blob_offset`` and
    ``size`` give the element's placement in the BLOB. Placement order in
    the BLOB may differ from element order — that is how MPEG-style
    out-of-order key elements are represented (§2.2).
    """

    element_number: int
    start: int
    duration: int
    size: int
    blob_offset: int
    element_descriptor: ElementDescriptor | None = None

    def __post_init__(self) -> None:
        if self.element_number < 0:
            raise InterpretationError("element_number must be non-negative")
        if self.duration < 0:
            raise InterpretationError("duration must be non-negative")
        if self.size < 0 or self.blob_offset < 0:
            raise InterpretationError("placement must be non-negative")

    @property
    def end(self) -> int:
        return self.start + self.duration


class InterpretedSequence:
    """The placement table for one media object within a BLOB.

    Rows are kept in element-number order (i.e. time order); the BLOB
    placement column is free to jump around, which covers interleaving,
    padding skips and out-of-order storage.
    """

    def __init__(
        self,
        name: str,
        media_type: MediaType,
        media_descriptor: MediaDescriptor,
        entries: Iterable[PlacementEntry],
        time_system: DiscreteTimeSystem | None = None,
    ):
        media_type.validate_media_descriptor(media_descriptor)
        self.name = name
        self.media_type = media_type
        self.media_descriptor = media_descriptor
        self.time_system = time_system or media_type.time_system
        if self.time_system is None:
            raise InterpretationError(
                f"sequence {name!r}: time-based placement needs a time system"
            )
        rows = sorted(entries, key=lambda e: e.element_number)
        numbers = [e.element_number for e in rows]
        if len(set(numbers)) != len(numbers):
            raise InterpretationError(
                f"sequence {name!r}: duplicate element numbers"
            )
        for prev, cur in zip(rows, rows[1:]):
            if cur.start < prev.start:
                raise InterpretationError(
                    f"sequence {name!r}: element {cur.element_number} starts "
                    f"at {cur.start}, before element {prev.element_number} "
                    f"at {prev.start}"
                )
        self._entries: tuple[PlacementEntry, ...] = tuple(rows)
        self._starts = [e.start for e in rows]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def entries(self) -> tuple[PlacementEntry, ...]:
        return self._entries

    # -- logical table view ------------------------------------------------------

    def is_heterogeneous(self) -> bool:
        descriptors = {e.element_descriptor for e in self._entries}
        return len(descriptors) > 1

    def is_variable_size(self) -> bool:
        sizes = {e.size for e in self._entries}
        return len(sizes) > 1

    def is_continuous(self) -> bool:
        return all(
            cur.start == prev.end
            for prev, cur in zip(self._entries, self._entries[1:])
        )

    def table_columns(self) -> tuple[str, ...]:
        """The minimal logical columns, per the paper's §4.1 example.

        Homogeneous constant-size continuous sequences only need
        ``(elementNumber, blobPlacement)``; variable sizes add
        ``elementSize``; heterogeneous or non-continuous sequences need
        the full table.
        """
        full = not self.is_continuous() or self.is_heterogeneous()
        if full:
            return ("elementNumber", "startTime", "duration",
                    "elementDescriptor", "elementSize", "blobPlacement")
        if self.is_variable_size():
            return ("elementNumber", "elementSize", "blobPlacement")
        return ("elementNumber", "blobPlacement")

    def table(self) -> list[tuple]:
        """Render the placement table with exactly :meth:`table_columns`."""
        columns = self.table_columns()
        rows = []
        for e in self._entries:
            values = {
                "elementNumber": e.element_number,
                "startTime": e.start,
                "duration": e.duration,
                "elementDescriptor": e.element_descriptor,
                "elementSize": e.size,
                "blobPlacement": e.blob_offset,
            }
            rows.append(tuple(values[c] for c in columns))
        return rows

    # -- lookup --------------------------------------------------------------------

    def entry(self, element_number: int) -> PlacementEntry:
        lo = bisect.bisect_left(
            [e.element_number for e in self._entries], element_number
        )
        if lo < len(self._entries) and self._entries[lo].element_number == element_number:
            return self._entries[lo]
        raise InterpretationError(
            f"sequence {self.name!r} has no element {element_number}"
        )

    def entries_at_tick(self, tick: int) -> list[PlacementEntry]:
        """Placement rows covering ``tick`` ("the element occurring at a
        specific time")."""
        hi = bisect.bisect_right(self._starts, tick)
        result = []
        for e in self._entries[:hi]:
            if e.duration == 0 and e.start == tick:
                result.append(e)
            elif e.start <= tick < e.end:
                result.append(e)
        return result

    def total_size(self) -> int:
        return sum(e.size for e in self._entries)

    def span_ticks(self) -> int:
        if not self._entries:
            return 0
        return max(e.end for e in self._entries) - self._entries[0].start


class Interpretation(Instrumented):
    """Definition 5: a mapping from a BLOB to a set of media objects.

    Instrumentable (:class:`~repro.obs.instrument.Instrumented`):
    attaching an observability sink counts materializations, element
    reads and bytes pulled through placement tables — the §4.2
    expansion-cost side of the store-or-expand decision.
    """

    def __init__(self, blob: Blob, name: str = "interpretation"):
        self.blob = blob
        self.name = name
        self._sequences: dict[str, InterpretedSequence] = {}

    # -- construction -----------------------------------------------------------

    def add_sequence(self, sequence: InterpretedSequence) -> InterpretedSequence:
        if sequence.name in self._sequences:
            raise InterpretationError(
                f"interpretation already maps sequence {sequence.name!r}"
            )
        self._sequences[sequence.name] = sequence
        return sequence

    def add(
        self,
        name: str,
        media_type: MediaType,
        media_descriptor: MediaDescriptor,
        entries: Iterable[PlacementEntry],
        time_system: DiscreteTimeSystem | None = None,
    ) -> InterpretedSequence:
        """Convenience wrapper building and adding a sequence."""
        return self.add_sequence(InterpretedSequence(
            name, media_type, media_descriptor, entries, time_system
        ))

    # -- access ------------------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._sequences)

    def sequence(self, name: str) -> InterpretedSequence:
        try:
            return self._sequences[name]
        except KeyError:
            raise InterpretationError(
                f"interpretation has no sequence {name!r}; have: "
                f"{', '.join(self.names()) or '(none)'}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._sequences

    def media_objects(self) -> list:
        """One :class:`InterpretedMediaObject` per mapped sequence."""
        from repro.core.media_object import InterpretedMediaObject

        return [InterpretedMediaObject(self, name) for name in self.names()]

    # -- materialization ------------------------------------------------------------

    def materialize(
        self,
        name: str,
        read_payloads: bool = True,
        decode: Callable[[bytes, PlacementEntry], object] | None = None,
        rows: Sequence[PlacementEntry] | None = None,
    ) -> TimedStream:
        """Turn a placement table into a timed stream.

        With ``read_payloads`` each element's payload is the placed byte
        span (optionally passed through ``decode``); without it the
        elements carry placement sizes but no data — enough for timing
        queries and scheduling without touching the BLOB. ``rows``
        restricts the stream to those rows of the table (in time
        order), so a caller needing a range reads only that range.
        """
        sequence = self.sequence(name)
        with self._obs.tracer.span(
            "core.materialize", interpretation=self.name, sequence=name,
        ) as span:
            tuples = []
            bytes_read = 0
            for e in sequence if rows is None else rows:
                payload = None
                if read_payloads:
                    raw = self.blob.read(e.blob_offset, e.size)
                    payload = decode(raw, e) if decode else raw
                    bytes_read += e.size
                element = MediaElement(
                    payload=payload, size=e.size, descriptor=e.element_descriptor
                )
                tuples.append(TimedTuple(element, e.start, e.duration))
            span.set(elements=len(tuples), bytes=bytes_read)
            metrics = self._obs.metrics
            metrics.counter("core.interpretation.materializations").inc(
                sequence=name
            )
            metrics.counter("core.interpretation.bytes_read").inc(bytes_read)
            return TimedStream(
                sequence.media_type,
                tuples,
                time_system=sequence.time_system,
                validate_constraints=False,
            )

    def read_element(self, name: str, element_number: int) -> bytes:
        """Read one element's bytes through its placement row."""
        entry = self.sequence(name).entry(element_number)
        metrics = self._obs.metrics
        metrics.counter("core.interpretation.element_reads").inc(sequence=name)
        metrics.counter("core.interpretation.bytes_read").inc(entry.size)
        return self.blob.read(entry.blob_offset, entry.size)

    def iter_stream(
        self,
        name: str,
        decode: Callable[[bytes, PlacementEntry], object] | None = None,
    ):
        """Lazily yield ``(TimedTuple, PlacementEntry)`` pairs in time order.

        Unlike :meth:`materialize`, BLOB reads happen one element at a
        time as the caller advances — "continuous access to timed
        streams" (§2.2) without holding a 10-minute movie in memory.
        """
        sequence = self.sequence(name)
        metrics = self._obs.metrics
        for entry in sequence:
            metrics.counter("core.interpretation.element_reads").inc(
                sequence=name
            )
            metrics.counter("core.interpretation.bytes_read").inc(entry.size)
            raw = self.blob.read(entry.blob_offset, entry.size)
            payload = decode(raw, entry) if decode else raw
            element = MediaElement(
                payload=payload, size=entry.size,
                descriptor=entry.element_descriptor,
            )
            yield TimedTuple(element, entry.start, entry.duration), entry

    # -- alternative views ------------------------------------------------------------

    def restrict(self, names: Sequence[str], view_name: str | None = None) -> "Interpretation":
        """An alternative interpretation exposing only ``names``.

        "If an interpretation identifies many media objects within a
        BLOB, an alternative interpretation can be constructed by
        removing references to one of the objects ... much like an
        alternative view of the BLOB (e.g., only the audio sequence is
        visible)."
        """
        view = Interpretation(self.blob, view_name or f"{self.name}-view")
        for name in names:
            view.add_sequence(self.sequence(name))
        return view

    def edit_view(
        self,
        name: str,
        keep: Sequence[int],
        view_name: str | None = None,
    ) -> "Interpretation":
        """An alternative interpretation formed by editing a table.

        "From the video1 table, a second interpretation can be formed
        simply by removing table entries or changing their element
        number. The effect resembles video editing which involves
        cutting and reordering video sequences." (§4.1)

        ``keep`` lists the element numbers to retain, in their new
        order; elements are renumbered 0..n-1 and retimed back-to-back
        (keeping their durations). The paper warns that *modifying* an
        interpretation in place risks losing elements, so — following
        its advice — the original is never touched; a new interpretation
        over the same BLOB is returned.
        """
        source = self.sequence(name)
        new_entries = []
        cursor = 0
        for new_number, old_number in enumerate(keep):
            old = source.entry(old_number)
            new_entries.append(PlacementEntry(
                element_number=new_number,
                start=cursor,
                duration=old.duration,
                size=old.size,
                blob_offset=old.blob_offset,
                element_descriptor=old.element_descriptor,
            ))
            cursor += old.duration
        view = Interpretation(self.blob, view_name or f"{self.name}-edit")
        view.add(
            name, source.media_type, source.media_descriptor, new_entries,
            time_system=source.time_system,
        )
        return view

    # -- consistency ------------------------------------------------------------------

    def validate(self) -> None:
        """Check every placement lies inside the BLOB.

        Raises
        ------
        InterpretationError
            If any row's span exceeds the BLOB — the "media elements
            within the BLOB may be effectively lost" failure the paper
            warns about when interpretations and BLOBs drift apart.
        """
        length = len(self.blob)
        for sequence in self._sequences.values():
            for e in sequence:
                if e.blob_offset + e.size > length:
                    raise InterpretationError(
                        f"sequence {sequence.name!r} element "
                        f"{e.element_number} spans [{e.blob_offset}, "
                        f"{e.blob_offset + e.size}) beyond BLOB length {length}"
                    )

    def coverage(self) -> float:
        """Fraction of BLOB bytes referenced by some placement row.

        Less than 1.0 indicates padding or headers (e.g. CD-I sector
        padding); more than 1.0 is impossible but overlapping rows (two
        objects sharing bytes) legitimately push referenced bytes above
        distinct bytes, so bytes are deduplicated before dividing.
        """
        if len(self.blob) == 0:
            return 0.0
        spans = sorted(
            (e.blob_offset, e.blob_offset + e.size)
            for s in self._sequences.values() for e in s
        )
        covered = 0
        cursor = 0
        for begin, end in spans:
            begin = max(begin, cursor)
            if end > begin:
                covered += end - begin
                cursor = end
            cursor = max(cursor, end)
        return covered / len(self.blob)

    def describe(self) -> str:
        """Human-readable summary in the spirit of Figure 2."""
        lines = [f"Interpretation {self.name!r} of BLOB ({len(self.blob)} bytes):"]
        for name in self.names():
            seq = self._sequences[name]
            lines.append(
                f"  {name}: {len(seq)} elements of {seq.media_type.name}, "
                f"table columns {seq.table_columns()}"
            )
        lines.append(f"  coverage: {self.coverage():.1%}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Interpretation({self.name!r}, {len(self._sequences)} sequences, "
            f"blob={len(self.blob)} bytes)"
        )
