"""Media objects (§3.1-3.2): machine-readable representations of artifacts.

A *media object* pairs a media descriptor with access to its content. The
model distinguishes:

* **non-derived** media objects — their elements are stored, reached
  through the interpretation of a BLOB or held directly as a timed
  stream;
* **derived** media objects — their elements are "calculated when
  needed" from other media objects via a derivation object (§4.2).

Identity matters: interpretation, derivation and composition all relate
media objects, so each object carries a unique id used by the provenance
graph and the database catalog.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

from repro.core import stream_ops
from repro.core.descriptors import MediaDescriptor
from repro.core.media_types import MediaKind, MediaType
from repro.core.streams import TimedStream
from repro.errors import MediaModelError, StreamError
from repro.obs.instrument import Instrumented

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.derivations import DerivationCache
    from repro.core.derivation import DerivationObject

_ids = itertools.count(1)


def _next_id(prefix: str) -> str:
    return f"{prefix}{next(_ids)}"


class MediaObject:
    """Base class: a named, typed, described representation of an artifact.

    Subclasses provide content access: :meth:`stream` for time-based
    kinds, :meth:`value` for still kinds (images, text).
    """

    def __init__(
        self,
        media_type: MediaType,
        descriptor: MediaDescriptor,
        name: str | None = None,
    ):
        media_type.validate_media_descriptor(descriptor)
        self.media_type = media_type
        self.descriptor = descriptor
        self.object_id = _next_id("mo")
        self.name = name or self.object_id

    @property
    def kind(self) -> MediaKind:
        return self.media_type.kind

    @property
    def is_derived(self) -> bool:
        return False

    def stream(self) -> TimedStream:
        """The object's timed stream (time-based kinds only)."""
        raise MediaModelError(
            f"{type(self).__name__} {self.name!r} has no timed stream"
        )

    def stream_range(self, start: int, stop: int, *,
                     elements: bool = False) -> TimedStream:
        """The part of :meth:`stream` within ``[start, stop)``.

        By default ``start``/``stop`` are ticks and the result holds the
        tuples lying entirely within them (:func:`stream_ops.select_range`
        without rebasing); with ``elements`` they are element positions.
        Tuples keep their own start times. Derivations that use only part
        of an input ask for that part, so subclasses that can read a
        range without producing the whole stream (placement tables)
        override this.

        Raises
        ------
        StreamError
            If ``start`` is negative or after ``stop``, or ``stop``
            lies past the stream's end tick (with ``elements``, past
            its length).
        """
        stream = self.stream()
        extent = len(stream) if elements else stream.end
        _check_range(self.name, start, stop, extent, elements)
        if elements:
            return stream[start:stop]
        return stream_ops.select_range(stream, start, stop, rebase=False)

    def value(self) -> Any:
        """The object's value (still kinds only)."""
        raise MediaModelError(f"{type(self).__name__} {self.name!r} has no value")

    def __repr__(self) -> str:
        derived = ", derived" if self.is_derived else ""
        return (
            f"{type(self).__name__}({self.name!r}, "
            f"{self.media_type.name}{derived})"
        )


def _check_range(name: str, start: int, stop: int, extent: int,
                 elements: bool) -> None:
    unit = "elements" if elements else "ticks"
    if not 0 <= start <= stop:
        raise StreamError(
            f"{name!r}: bad range [{start}, {stop}) of {unit}"
        )
    if stop > extent:
        raise StreamError(
            f"{name!r}: range [{start}, {stop}) exceeds its {extent} {unit}"
        )


class StreamMediaObject(MediaObject):
    """A non-derived media object holding its timed stream directly.

    This is the in-memory form: freshly captured or fully expanded
    material. Objects whose elements live in a BLOB use
    :class:`InterpretedMediaObject` instead.
    """

    def __init__(
        self,
        media_type: MediaType,
        descriptor: MediaDescriptor,
        stream: TimedStream,
        name: str | None = None,
    ):
        super().__init__(media_type, descriptor, name)
        if stream.media_type.name != media_type.name:
            raise MediaModelError(
                f"stream type {stream.media_type.name!r} does not match "
                f"object type {media_type.name!r}"
            )
        self._stream = stream

    def stream(self) -> TimedStream:
        return self._stream


class StillMediaObject(MediaObject):
    """A non-derived, non-time-based media object (image, text)."""

    def __init__(
        self,
        media_type: MediaType,
        descriptor: MediaDescriptor,
        value: Any,
        name: str | None = None,
    ):
        super().__init__(media_type, descriptor, name)
        if media_type.kind.is_time_based:
            raise MediaModelError(
                f"{media_type.name} is time-based; use a stream-backed object"
            )
        self._value = value

    def value(self) -> Any:
        return self._value


class InterpretedMediaObject(MediaObject):
    """A non-derived media object reached through a BLOB interpretation.

    The object does not copy element data: :meth:`stream` materializes a
    timed stream whose element payloads are read from the BLOB through
    the interpretation's placement table (Definition 5). An optional
    ``decode`` hook turns stored bytes into domain payloads (decoded
    frames, sample arrays), so derivations can consume BLOB-resident
    media directly.
    """

    def __init__(self, interpretation, sequence_name: str, decode=None):
        sequence = interpretation.sequence(sequence_name)
        super().__init__(
            sequence.media_type, sequence.media_descriptor, name=sequence_name
        )
        self.interpretation = interpretation
        self.sequence_name = sequence_name
        self.decode = decode

    def stream(self) -> TimedStream:
        return self.interpretation.materialize(
            self.sequence_name, decode=self.decode
        )

    def stream_range(self, start: int, stop: int, *,
                     elements: bool = False) -> TimedStream:
        """Read and decode only the placement rows in ``[start, stop)``.

        Equal element for element to the base class's selection from
        the full :meth:`stream`: the placement table says which rows
        are in range without touching the BLOB.
        """
        rows = self.interpretation.sequence(self.sequence_name).entries
        if elements:
            extent, selected = len(rows), rows[start:stop]
        else:
            extent = max((e.end for e in rows), default=0)
            selected = tuple(
                e for e in rows
                if stream_ops.within(e.start, e.duration, start, stop)
            )
        _check_range(self.name, start, stop, extent, elements)
        return self.interpretation.materialize(
            self.sequence_name, decode=self.decode, rows=selected
        )

    def stream_lazy(self) -> TimedStream:
        """Stream with placement-only elements (payloads not read)."""
        return self.interpretation.materialize(
            self.sequence_name, read_payloads=False
        )


class DerivedMediaObject(MediaObject, Instrumented):
    """A derived media object (§4.2): content computed on demand.

    Holds a :class:`~repro.core.derivation.DerivationObject` — "the
    information needed to compute a derived object, references to the
    media objects and parameter values used". :meth:`stream`/:meth:`value`
    expand it; :meth:`materialize` expands once and caches, modeling the
    decision to store the expansion when real-time expansion is
    infeasible.

    Materialization state lives in one of two places. Standalone, the
    object keeps a private single-expansion memo (the original
    behaviour). With a :class:`~repro.cache.derivations.DerivationCache`
    attached (:meth:`attach_cache`, or implicitly through a
    cache-carrying :class:`~repro.engine.player.Player`), the memo is
    bypassed entirely: expansions are offered to the cache, which admits
    and evicts them under a global byte budget using its cost-driven
    policy — the §4.2 materialize-vs-expand decision made continuously.

    Instrumentable: with a sink attached, expansions, cache hits and
    materializations are counted per derivation kind and each expansion
    is a logical-clock span — the data behind the §4.2 store-or-expand
    decision.
    """

    def __init__(
        self,
        media_type: MediaType,
        descriptor: MediaDescriptor,
        derivation_object: "DerivationObject",
        name: str | None = None,
    ):
        super().__init__(media_type, descriptor, name)
        self.derivation_object = derivation_object
        self._expanded: MediaObject | None = None
        self._cache: "DerivationCache | None" = None

    @property
    def is_derived(self) -> bool:
        return True

    @property
    def is_materialized(self) -> bool:
        if self._cache is not None:
            return self in self._cache
        return self._expanded is not None

    def attach_cache(self, cache: "DerivationCache | None") -> "DerivedMediaObject":
        """Route materialization through ``cache`` (None detaches).

        Attaching moves any existing memoized expansion into the cache
        (subject to its admission policy) and clears the memo, so the
        unbounded per-object memo is fully replaced by the shared,
        byte-budgeted cache. Returns ``self`` for chaining.
        """
        if cache is not None and self._expanded is not None:
            cache.put(self, self._expanded)
        self._cache = cache
        if cache is not None:
            self._expanded = None
        return self

    def expand(self) -> MediaObject:
        """Compute the non-derived equivalent (never cached)."""
        kind = self.derivation_object.derivation.name
        with self._obs.tracer.span(
            "core.expand", derivation=kind, object=self.name,
        ):
            self._obs.metrics.counter("core.derivation.expansions").inc(
                derivation=kind
            )
            return self.derivation_object.expand()

    def materialize(self) -> MediaObject:
        """Expand once and cache — "store a non-derived object" (§4.2)."""
        kind = self.derivation_object.derivation.name
        if self._cache is not None:
            cached = self._cache.get(self)
            if cached is not None:
                self._obs.metrics.counter("core.derivation.cache_hits").inc(
                    derivation=kind
                )
                return cached
            expanded = self.expand()
            self._cache.put(self, expanded)
            self._obs.metrics.counter(
                "core.derivation.materializations"
            ).inc(derivation=kind)
            return expanded
        if self._expanded is None:
            self._expanded = self.expand()
            self._obs.metrics.counter(
                "core.derivation.materializations"
            ).inc(derivation=kind)
        return self._expanded

    def discard_materialization(self) -> None:
        """Drop the cached expansion, keeping only the derivation object."""
        self._expanded = None
        if self._cache is not None:
            self._cache.discard(self)

    def _target(self) -> MediaObject:
        if self._cache is not None:
            return self.materialize()
        if self._expanded is not None:
            self._obs.metrics.counter("core.derivation.cache_hits").inc(
                derivation=self.derivation_object.derivation.name
            )
            return self._expanded
        return self.expand()

    def stream(self) -> TimedStream:
        return self._target().stream()

    def value(self) -> Any:
        return self._target().value()

    def antecedents(self) -> list[MediaObject]:
        """The media objects this object is derived from."""
        return list(self.derivation_object.inputs)
