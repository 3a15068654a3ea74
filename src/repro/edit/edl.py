"""Edit decision lists: the "video edit" derivation of Table 1.

"Editing video involves the selection and ordering of sequences that are
combined to produce a new video object. The list of start and stop times
of these selections is called an edit list. Edit lists are derivation
objects, while edited video sequences are derived objects." (§4.2)

An :class:`EditDecisionList` is a sequence of :class:`EditDecision`
``(source, in, out)`` selections over one or more source video objects.
It is tiny — benchmark E8 measures "many orders of magnitude smaller than
a video object" directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core import stream_ops
from repro.core.derivation import (
    Derivation,
    DerivationCategory,
    derivation_registry,
)
from repro.core.media_object import MediaObject, StreamMediaObject
from repro.core.media_types import MediaKind
from repro.errors import DerivationError, StreamError


@dataclass(frozen=True, slots=True)
class EditDecision:
    """One selection: ticks ``[in_tick, out_tick)`` of ``source_index``."""

    source_index: int
    in_tick: int
    out_tick: int

    def __post_init__(self) -> None:
        if self.source_index < 0:
            raise DerivationError("source_index must be non-negative")
        if not 0 <= self.in_tick < self.out_tick:
            raise DerivationError(
                f"need 0 <= in < out, got [{self.in_tick}, {self.out_tick})"
            )

    @property
    def length(self) -> int:
        return self.out_tick - self.in_tick


class EditDecisionList:
    """An ordered list of edit decisions (the derivation object's P_D)."""

    def __init__(self, decisions: Sequence[EditDecision] = ()):
        self.decisions: list[EditDecision] = list(decisions)

    def select(self, source_index: int, in_tick: int,
               out_tick: int) -> "EditDecisionList":
        self.decisions.append(EditDecision(source_index, in_tick, out_tick))
        return self

    def __len__(self) -> int:
        return len(self.decisions)

    def __iter__(self):
        return iter(self.decisions)

    def total_ticks(self) -> int:
        return sum(d.length for d in self.decisions)

    def as_params(self) -> list[tuple[int, int, int]]:
        """Serializable parameter form for the derivation object."""
        return [(d.source_index, d.in_tick, d.out_tick) for d in self.decisions]

    @classmethod
    def from_params(cls, params: Sequence[tuple[int, int, int]]) -> "EditDecisionList":
        return cls([EditDecision(*entry) for entry in params])

    def __repr__(self) -> str:
        return f"EditDecisionList({len(self.decisions)} decisions, {self.total_ticks()} ticks)"


def apply_edl(sources: Sequence[MediaObject],
              edl: EditDecisionList) -> "StreamMediaObject":
    """Materialize an edit: select and concatenate the chosen ranges.

    Each source is read once, for the hull of its decisions
    (:meth:`~repro.core.media_object.MediaObject.stream_range`): a
    BLOB-backed source decodes only the frames the edit can use, and a
    derived source referenced by several decisions is expanded once.
    """
    if not sources:
        raise DerivationError("an edit needs at least one source")
    hulls: dict[int, tuple[int, int]] = {}
    for decision in edl:
        index = decision.source_index
        if index >= len(sources):
            raise DerivationError(
                f"edit references source {index}, only {len(sources)} given"
            )
        lo, hi = hulls.get(index, (decision.in_tick, decision.out_tick))
        hulls[index] = (min(lo, decision.in_tick), max(hi, decision.out_tick))
    windows = {}
    for index, (lo, hi) in hulls.items():
        try:
            windows[index] = sources[index].stream_range(lo, hi)
        except StreamError as exc:
            raise DerivationError(f"edit selection: {exc}") from exc
    pieces = [
        stream_ops.select_range(windows[decision.source_index],
                                decision.in_tick, decision.out_tick)
        for decision in edl
    ]
    edited = stream_ops.concat(*pieces)
    first = sources[0]
    system = edited.time_system
    descriptor = first.descriptor.with_updates(
        duration=system.to_continuous(edited.span_ticks),
    )
    return StreamMediaObject(first.media_type, descriptor, edited,
                             name=f"{first.name}-edit")


def _expand_video_edit(inputs, params):
    edl = EditDecisionList.from_params(params["edit_list"])
    return apply_edl(inputs, edl)


def _describe_video_edit(inputs, params):
    edl = EditDecisionList.from_params(params["edit_list"])
    first = inputs[0]
    system = first.media_type.time_system
    descriptor = first.descriptor.with_updates(
        duration=system.to_continuous(edl.total_ticks()),
    )
    return first.media_type, descriptor


VIDEO_EDIT = derivation_registry.register(Derivation(
    name="video-edit",
    category=DerivationCategory.CHANGE_OF_TIMING,
    input_kinds=(MediaKind.VIDEO,),
    result_kind=MediaKind.VIDEO,
    expand=_expand_video_edit,
    describe=_describe_video_edit,
    variadic=True,
    required_params=("edit_list",),
    doc="Table 1: video -> video via an edit decision list.",
))
