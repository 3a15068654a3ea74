"""Tests for video transitions and chroma keying."""

import numpy as np
import pytest

from repro.core.derivation import derivation_registry
from repro.edit import MediaEditor
from repro.edit.transitions import (
    chroma_key,
    fade_frames,
    iris_frames,
    transition_frame,
    wipe_frames,
)
from repro.errors import DerivationError
from repro.media import frames
from repro.media.objects import video_object


@pytest.fixture
def black():
    return np.zeros((24, 32, 3), dtype=np.uint8)


@pytest.fixture
def white():
    return np.full((24, 32, 3), 255, dtype=np.uint8)


class TestFade:
    def test_endpoints(self, black, white):
        assert np.array_equal(fade_frames(black, white, 0.0), black)
        assert np.array_equal(fade_frames(black, white, 1.0), white)

    def test_midpoint(self, black, white):
        mid = fade_frames(black, white, 0.5)
        assert np.all(mid == 128)

    def test_shape_mismatch(self, black):
        with pytest.raises(DerivationError):
            fade_frames(black, np.zeros((8, 8, 3), dtype=np.uint8), 0.5)


class TestWipe:
    def test_left_wipe_reveals_from_left(self, black, white):
        half = wipe_frames(black, white, 0.5, "left")
        assert np.all(half[:, :16] == 255)
        assert np.all(half[:, 16:] == 0)

    def test_right_wipe(self, black, white):
        half = wipe_frames(black, white, 0.5, "right")
        assert np.all(half[:, 16:] == 255)
        assert np.all(half[:, :16] == 0)

    def test_down_wipe(self, black, white):
        half = wipe_frames(black, white, 0.5, "down")
        assert np.all(half[:12] == 255)
        assert np.all(half[12:] == 0)

    def test_complete_wipe(self, black, white):
        assert np.array_equal(wipe_frames(black, white, 1.0, "left"), white)

    def test_unknown_direction(self, black, white):
        with pytest.raises(DerivationError):
            wipe_frames(black, white, 0.5, "diagonal")


class TestIris:
    def test_grows_from_center(self, black, white):
        small = iris_frames(black, white, 0.2)
        assert tuple(small[12, 16]) == (255, 255, 255)  # center revealed
        assert tuple(small[0, 0]) == (0, 0, 0)          # corner not yet

    def test_complete(self, black, white):
        assert np.array_equal(iris_frames(black, white, 1.0), white)


class TestDispatch:
    def test_kinds(self, black, white):
        for kind in ("fade", "wipe-left", "wipe-right", "wipe-down", "iris"):
            result = transition_frame(kind, black, white, 0.5)
            assert result.shape == black.shape

    def test_unknown_kind(self, black, white):
        with pytest.raises(DerivationError, match="unknown transition"):
            transition_frame("melt", black, white, 0.5)


class TestChromaKey:
    def test_key_color_replaced(self):
        fg = np.zeros((8, 8, 3), dtype=np.uint8)
        fg[:4] = (0, 255, 0)  # green screen top half
        bg = np.full((8, 8, 3), 200, dtype=np.uint8)
        keyed = chroma_key(fg, bg, key_color=(0, 255, 0), tolerance=30)
        assert np.all(keyed[:4] == 200)
        assert np.all(keyed[4:] == 0)

    def test_tolerance(self):
        fg = np.full((4, 4, 3), (10, 245, 10), dtype=np.uint8)
        bg = np.full((4, 4, 3), 99, dtype=np.uint8)
        tight = chroma_key(fg, bg, key_color=(0, 255, 0), tolerance=5)
        loose = chroma_key(fg, bg, key_color=(0, 255, 0), tolerance=50)
        assert np.all(tight == (10, 245, 10))
        assert np.all(loose == 99)


class TestTransitionDerivation:
    @pytest.fixture
    def sources(self):
        a = video_object(frames.scene(32, 24, 12, "orbit"), "a")
        b = video_object(frames.scene(32, 24, 12, "cut"), "b")
        return a, b

    def test_fade_derivation(self, sources):
        a, b = sources
        derivation = derivation_registry.get("video-transition")
        derived = derivation([a, b], {
            "duration_ticks": 6, "kind": "fade", "a_start": 6, "b_start": 0,
        })
        expanded = derived.expand()
        assert len(expanded.stream()) == 6
        # First transition frame is (nearly) pure a, last pure b.
        first = expanded.stream().tuples[0].element.payload
        assert np.array_equal(first, a.stream().tuples[6].element.payload)

    def test_duration_must_fit_sources(self, sources):
        a, b = sources
        derivation = derivation_registry.get("video-transition")
        derived = derivation([a, b], {
            "duration_ticks": 10, "a_start": 6, "b_start": 0,
        })
        with pytest.raises(DerivationError, match="exceeds"):
            derived.expand()

    def test_positive_duration_required(self, sources):
        a, b = sources
        derivation = derivation_registry.get("video-transition")
        derived = derivation([a, b], {"duration_ticks": 0})
        with pytest.raises(DerivationError):
            derived.expand()

    def test_chroma_key_derivation(self, sources):
        a, b = sources
        derivation = derivation_registry.get("chroma-key")
        derived = derivation([a, b], {"tolerance": 10.0})
        expanded = derived.expand()
        assert len(expanded.stream()) == 12


class TestTransitionBounds:
    """The bound check counts source elements, as the frame indexing
    does, so re-timed sources fail with a typed error, not IndexError."""

    @pytest.fixture
    def clips(self):
        a = video_object(frames.scene(16, 16, 10, "orbit", seed=1), "a")
        b = video_object(frames.scene(16, 16, 10, "pan", seed=2), "b")
        return a, b

    def test_time_scaled_source_rejected(self, clips):
        a, b = clips
        editor = MediaEditor()
        fade = editor.transition(editor.scale(a, 2), b, 5, a_start=8)
        with pytest.raises(DerivationError, match="exceeds"):
            fade.stream()

    def test_translated_source_rejected(self, clips):
        a, b = clips
        editor = MediaEditor()
        fade = editor.transition(a, editor.translate(b, 3), 4, b_start=9)
        with pytest.raises(DerivationError, match="exceeds"):
            fade.stream()

    def test_frames_taken_by_position(self, clips):
        a, b = clips
        editor = MediaEditor()
        moved = editor.translate(b, 3)
        fade = editor.transition(a, moved, 4, b_start=6).stream()
        last = fade.tuples[-1].element.payload
        assert np.array_equal(last, b.stream().tuples[9].element.payload)

    def test_negative_start_rejected(self, clips):
        a, b = clips
        derivation = derivation_registry.get("video-transition")
        derived = derivation([a, b], {"duration_ticks": 2, "a_start": -1})
        with pytest.raises(DerivationError):
            derived.expand()
