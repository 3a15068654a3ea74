"""Video transitions: fades, wipes, dissolves, chroma keying.

"In video editing, instead of directly concatenating two video objects
often an intermediate video effect is used, as for example, a fade or
wipe. These transitions produce video frames that consist of data
stemming from both video objects ... The parameters for this kind of
derivation specify the type of transition, its duration and the start
time in both video objects." (§4.2)

Chroma keying ("of one video sequence over another ... the content of
the first video sequence is partially replaced with that of the second")
is the two-input content-changing example of §4.2.

In the paper these run on dedicated DVE hardware in real time; here they
are numpy pixel arithmetic, and the resource model
(:mod:`repro.engine.resources`) decides whether expansion is real-time
feasible.
"""

from __future__ import annotations

import numpy as np

from repro.core.derivation import (
    Derivation,
    DerivationCategory,
    derivation_registry,
)
from repro.core.media_types import MediaKind
from repro.errors import DerivationError, StreamError

TRANSITION_KINDS = ("fade", "wipe-left", "wipe-right", "wipe-down", "iris")


def fade_frames(a: np.ndarray, b: np.ndarray, progress: float) -> np.ndarray:
    """Cross-fade: ``(1 - progress) * a + progress * b``."""
    _check_pair(a, b)
    mixed = a.astype(np.float32) * (1.0 - progress) + b.astype(np.float32) * progress
    return np.clip(np.rint(mixed), 0, 255).astype(np.uint8)


#: A dissolve is a cross-fade under another name (kept for EDL parity).
dissolve_frames = fade_frames


def wipe_frames(a: np.ndarray, b: np.ndarray, progress: float,
                direction: str = "left") -> np.ndarray:
    """Wipe: ``b`` replaces ``a`` behind a moving edge.

    "one scene ends and its image is gradually wiped away to reveal the
    following scene" (§2.2).
    """
    _check_pair(a, b)
    height, width = a.shape[:2]
    out = a.copy()
    if direction == "left":
        edge = int(round(width * progress))
        out[:, :edge] = b[:, :edge]
    elif direction == "right":
        edge = int(round(width * (1.0 - progress)))
        out[:, edge:] = b[:, edge:]
    elif direction == "down":
        edge = int(round(height * progress))
        out[:edge, :] = b[:edge, :]
    else:
        raise DerivationError(f"unknown wipe direction {direction!r}")
    return out


def iris_frames(a: np.ndarray, b: np.ndarray, progress: float) -> np.ndarray:
    """Iris: ``b`` grows from the center in an expanding circle."""
    _check_pair(a, b)
    height, width = a.shape[:2]
    yy, xx = np.mgrid[0:height, 0:width]
    cy, cx = height / 2.0, width / 2.0
    radius = progress * np.hypot(cy, cx)
    mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius
    out = a.copy()
    out[mask] = b[mask]
    return out


def chroma_key(foreground: np.ndarray, background: np.ndarray,
               key_color: tuple[int, int, int] = (0, 255, 0),
               tolerance: float = 60.0) -> np.ndarray:
    """Replace pixels near ``key_color`` in the foreground with background."""
    _check_pair(foreground, background)
    distance = np.linalg.norm(
        foreground.astype(np.float32) - np.array(key_color, dtype=np.float32),
        axis=-1,
    )
    mask = distance <= tolerance
    out = foreground.copy()
    out[mask] = background[mask]
    return out


def transition_frame(kind: str, a: np.ndarray, b: np.ndarray,
                     progress: float) -> np.ndarray:
    """Dispatch one transition frame by kind name."""
    if kind == "fade":
        return fade_frames(a, b, progress)
    if kind.startswith("wipe-"):
        return wipe_frames(a, b, progress, kind.split("-", 1)[1])
    if kind == "iris":
        return iris_frames(a, b, progress)
    raise DerivationError(
        f"unknown transition {kind!r}; known: {TRANSITION_KINDS}"
    )


def _expand_video_transition(inputs, params):
    a_obj, b_obj = inputs
    kind = params.get("kind", "fade")
    duration = params["duration_ticks"]
    a_start = params.get("a_start", 0)
    b_start = params.get("b_start", 0)
    if duration <= 0:
        raise DerivationError("transition duration must be positive")

    # Frame i mixes the elements at positions a_start + i and
    # b_start + i; only those two windows are read.
    try:
        a_window = a_obj.stream_range(a_start, a_start + duration,
                                      elements=True)
        b_window = b_obj.stream_range(b_start, b_start + duration,
                                      elements=True)
    except StreamError as exc:
        raise DerivationError(
            f"transition needs {duration} frames from a@{a_start} and "
            f"b@{b_start}: {exc}"
        ) from exc
    frames = []
    for i, (a_tuple, b_tuple) in enumerate(zip(a_window, b_window)):
        progress = i / max(duration - 1, 1)
        frames.append(transition_frame(kind, a_tuple.element.payload,
                                       b_tuple.element.payload, progress))

    from repro.media.objects import video_object

    return video_object(
        frames,
        f"{a_obj.name}-{kind}-{b_obj.name}",
        media_type_name=a_obj.media_type.name,
        quality_factor=a_obj.descriptor.get("quality_factor",
                                            "production quality"),
    )


def _describe_video_transition(inputs, params):
    a_obj = inputs[0]
    duration = params["duration_ticks"]
    system = a_obj.media_type.time_system
    descriptor = a_obj.descriptor.with_updates(
        duration=system.to_continuous(duration),
    )
    return a_obj.media_type, descriptor


VIDEO_TRANSITION = derivation_registry.register(Derivation(
    name="video-transition",
    category=DerivationCategory.CHANGE_OF_CONTENT,
    input_kinds=(MediaKind.VIDEO, MediaKind.VIDEO),
    result_kind=MediaKind.VIDEO,
    expand=_expand_video_transition,
    describe=_describe_video_transition,
    required_params=("duration_ticks",),
    optional_params=("kind", "a_start", "b_start"),
    doc="Table 1: (video, video) -> video; fades, wipes, iris.",
))


def _expand_chroma_key(inputs, params):
    fg_obj, bg_obj = inputs
    key_color = tuple(params.get("key_color", (0, 255, 0)))
    tolerance = params.get("tolerance", 60.0)
    fg = fg_obj.stream().tuples
    bg = bg_obj.stream().tuples
    count = min(len(fg), len(bg))
    frames = [
        chroma_key(fg[i].element.payload, bg[i].element.payload,
                   key_color, tolerance)
        for i in range(count)
    ]
    from repro.media.objects import video_object

    return video_object(
        frames, f"{fg_obj.name}-keyed",
        media_type_name=fg_obj.media_type.name,
        quality_factor=fg_obj.descriptor.get("quality_factor",
                                             "production quality"),
    )


def _describe_chroma_key(inputs, params):
    fg_obj, bg_obj = inputs
    duration = min(
        fg_obj.descriptor.get("duration", 0),
        bg_obj.descriptor.get("duration", 0),
    )
    descriptor = fg_obj.descriptor.with_updates(duration=duration)
    return fg_obj.media_type, descriptor


CHROMA_KEY = derivation_registry.register(Derivation(
    name="chroma-key",
    category=DerivationCategory.CHANGE_OF_CONTENT,
    input_kinds=(MediaKind.VIDEO, MediaKind.VIDEO),
    result_kind=MediaKind.VIDEO,
    expand=_expand_chroma_key,
    describe=_describe_chroma_key,
    optional_params=("key_color", "tolerance"),
    doc="§4.2: chroma keying of one video sequence over another.",
))


def _check_pair(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DerivationError(
            f"transition frames must match: {a.shape} vs {b.shape}"
        )
