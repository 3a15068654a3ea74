"""A high-level non-destructive editor over derivations.

The paper argues editing should manipulate "references to structures
within the data" rather than the data (§1.2), and that "sequences of
derivations can be changed and reused, this is useful in multimedia
authoring environments" (§4.2). :class:`MediaEditor` is that authoring
surface: every operation creates a *derived* media object; nothing is
expanded until the user asks, and the whole derivation chain is
registered in a provenance graph.
"""

from __future__ import annotations

from repro.core.derivation import derivation_registry
from repro.core.media_object import DerivedMediaObject, MediaObject
from repro.core.provenance import ProvenanceGraph
from repro.edit.edl import EditDecisionList
from repro.errors import DerivationError


class MediaEditor:
    """Builds derivation chains; expansion is explicit and separate."""

    def __init__(self) -> None:
        self.provenance = ProvenanceGraph()

    def _derive(self, derivation_name: str, inputs: list[MediaObject],
                params: dict, name: str | None) -> DerivedMediaObject:
        derivation = derivation_registry.get(derivation_name)
        derived = derivation(inputs, params, name=name)
        self.provenance.register(derived)
        return derived

    # -- video -------------------------------------------------------------------

    def cut(self, video: MediaObject, in_tick: int, out_tick: int,
            name: str | None = None) -> DerivedMediaObject:
        """Select ``[in_tick, out_tick)`` of a video (a one-decision EDL)."""
        edl = EditDecisionList().select(0, in_tick, out_tick)
        return self._derive("video-edit", [video],
                            {"edit_list": edl.as_params()}, name)

    def edit(self, sources: list[MediaObject], edl: EditDecisionList,
             name: str | None = None) -> DerivedMediaObject:
        """Apply a multi-source edit decision list."""
        return self._derive("video-edit", list(sources),
                            {"edit_list": edl.as_params()}, name)

    def concat(self, *videos: MediaObject,
               name: str | None = None) -> DerivedMediaObject:
        """Concatenate whole videos (an EDL selecting each fully)."""
        if not videos:
            raise DerivationError("concat needs at least one video")
        edl = EditDecisionList()
        for index, video in enumerate(videos):
            end = video.media_type.time_system.to_discrete(
                video.descriptor["duration"]
            )
            edl.select(index, 0, end)
        return self._derive("video-edit", list(videos),
                            {"edit_list": edl.as_params()}, name)

    def transition(self, a: MediaObject, b: MediaObject, duration_ticks: int,
                   kind: str = "fade", a_start: int = 0, b_start: int = 0,
                   name: str | None = None) -> DerivedMediaObject:
        """A fade/wipe/iris between two videos (Table 1's video transition).

        The result has one frame per tick; frame ``i`` mixes the source
        frames at positions ``a_start + i`` and ``b_start + i`` (for
        unit-duration sources starting at tick 0, position = tick).
        """
        return self._derive("video-transition", [a, b], {
            "duration_ticks": duration_ticks, "kind": kind,
            "a_start": a_start, "b_start": b_start,
        }, name)

    def chroma_key(self, foreground: MediaObject, background: MediaObject,
                   key_color: tuple[int, int, int] = (0, 255, 0),
                   tolerance: float = 60.0,
                   name: str | None = None) -> DerivedMediaObject:
        return self._derive("chroma-key", [foreground, background], {
            "key_color": key_color, "tolerance": tolerance,
        }, name)

    def reverse(self, video: MediaObject,
                name: str | None = None) -> DerivedMediaObject:
        """Reverse playback order (§2.1: cheap for intra-coded video)."""
        return self._derive("video-reverse", [video], {}, name)

    # -- audio -------------------------------------------------------------------

    def normalize(self, audio: MediaObject, start: int | None = None,
                  end: int | None = None, target_peak: float = 0.98,
                  name: str | None = None) -> DerivedMediaObject:
        params: dict = {"target_peak": target_peak}
        if start is not None:
            params["start"] = start
        if end is not None:
            params["end"] = end
        return self._derive("audio-normalization", [audio], params, name)

    # -- music / animation ----------------------------------------------------------

    def synthesize(self, music: MediaObject, sample_rate: int = 44100,
                   instrument: str = "piano",
                   name: str | None = None) -> DerivedMediaObject:
        return self._derive("midi-synthesis", [music], {
            "sample_rate": sample_rate, "instrument": instrument,
        }, name)

    def render(self, animation: MediaObject, frame_count: int | None = None,
               name: str | None = None) -> DerivedMediaObject:
        params: dict = {}
        if frame_count is not None:
            params["frame_count"] = frame_count
        return self._derive("animation-render", [animation], params, name)

    # -- generic timing -----------------------------------------------------------

    def translate(self, obj: MediaObject, offset_ticks: int,
                  name: str | None = None) -> DerivedMediaObject:
        return self._derive("temporal-translate", [obj],
                            {"offset_ticks": offset_ticks}, name)

    def scale(self, obj: MediaObject, factor,
              name: str | None = None) -> DerivedMediaObject:
        return self._derive("temporal-scale", [obj], {"factor": factor}, name)

    # -- inspection ------------------------------------------------------------------

    def steps(self, obj: MediaObject) -> list[str]:
        """The production steps leading to ``obj`` (§4.2 provenance)."""
        return self.provenance.derivation_steps(obj)

    def total_derivation_bytes(self, obj: MediaObject) -> int:
        """Stored size of the whole derivation chain behind ``obj``."""
        total = 0
        for node in [*self.provenance.lineage(obj), obj]:
            if isinstance(node, DerivedMediaObject):
                total += node.derivation_object.storage_size()
        return total
