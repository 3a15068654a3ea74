"""Tests for edit decision lists (the 'video edit' derivation)."""

import numpy as np
import pytest

from repro.core.derivation import derivation_registry
from repro.core.rational import Rational
from repro.edit.edl import EditDecision, EditDecisionList, apply_edl
from repro.errors import DerivationError
from repro.media import frames
from repro.media.objects import video_object


@pytest.fixture
def source_a():
    return video_object(frames.scene(32, 24, 20, "orbit"), "a")


@pytest.fixture
def source_b():
    return video_object(frames.scene(32, 24, 20, "cut"), "b")


class TestEditDecision:
    def test_length(self):
        assert EditDecision(0, 5, 12).length == 7

    def test_validation(self):
        with pytest.raises(DerivationError):
            EditDecision(-1, 0, 10)
        with pytest.raises(DerivationError):
            EditDecision(0, 10, 10)
        with pytest.raises(DerivationError):
            EditDecision(0, 10, 5)


class TestEditDecisionList:
    def test_fluent_select(self):
        edl = EditDecisionList().select(0, 0, 10).select(1, 5, 15)
        assert len(edl) == 2
        assert edl.total_ticks() == 20

    def test_params_roundtrip(self):
        edl = EditDecisionList().select(0, 0, 10).select(1, 5, 15)
        restored = EditDecisionList.from_params(edl.as_params())
        assert restored.as_params() == edl.as_params()


class TestApplyEdl:
    def test_single_source_cut(self, source_a):
        edl = EditDecisionList().select(0, 5, 15)
        edited = apply_edl([source_a], edl)
        stream = edited.stream()
        assert len(stream) == 10
        assert stream.start == 0
        assert edited.descriptor["duration"] == Rational(10, 25)

    def test_multi_source_assembly(self, source_a, source_b):
        edl = (EditDecisionList()
               .select(0, 0, 5)
               .select(1, 10, 15)
               .select(0, 15, 20))
        edited = apply_edl([source_a, source_b], edl)
        assert len(edited.stream()) == 15
        assert edited.stream().is_continuous()

    def test_reordering_allowed(self, source_a):
        """Cutting and reordering — the paper's editing semantics."""
        edl = EditDecisionList().select(0, 10, 20).select(0, 0, 10)
        edited = apply_edl([source_a], edl)
        original = source_a.stream()
        assert edited.stream().tuples[0].element.payload is \
            original.tuples[10].element.payload

    def test_repeated_material(self, source_a):
        edl = EditDecisionList().select(0, 0, 5).select(0, 0, 5)
        assert len(apply_edl([source_a], edl).stream()) == 10

    def test_each_source_read_once_for_its_hull(self, source_a):
        """A derived source used by two decisions is expanded once, and
        the edit equals selecting each decision from the full stream."""
        from repro.edit import MediaEditor
        from repro.obs import Observability

        obs = Observability()
        reversed_a = MediaEditor().reverse(source_a)
        reversed_a.instrument(obs)
        edl = EditDecisionList().select(0, 12, 16).select(0, 2, 5)
        edited = apply_edl([reversed_a], edl).stream()
        assert obs.metrics.counter("core.derivation.expansions").total() == 1
        full = reversed_a.stream()
        expected = (*full.tuples[12:16], *full.tuples[2:5])
        assert len(edited) == len(expected)
        for got, want in zip(edited, expected):
            assert np.array_equal(got.element.payload, want.element.payload)

    def test_selection_beyond_source_rejected(self, source_a):
        edl = EditDecisionList().select(0, 15, 30)
        with pytest.raises(DerivationError, match="exceeds"):
            apply_edl([source_a], edl)

    def test_unknown_source_rejected(self, source_a):
        edl = EditDecisionList().select(3, 0, 5)
        with pytest.raises(DerivationError, match="references source"):
            apply_edl([source_a], edl)

    def test_no_sources_rejected(self):
        with pytest.raises(DerivationError):
            apply_edl([], EditDecisionList())


class TestVideoEditDerivation:
    def test_non_destructive(self, source_a):
        """The edit is a derivation object; the source never changes."""
        derivation = derivation_registry.get("video-edit")
        derived = derivation([source_a], {"edit_list": [(0, 2, 8)]})
        assert derived.is_derived
        assert len(source_a.stream()) == 20
        assert len(derived.stream()) == 6

    def test_descriptor_duration_without_expansion(self, source_a):
        derivation = derivation_registry.get("video-edit")
        derived = derivation([source_a], {"edit_list": [(0, 0, 10)]})
        # describe() computed the duration cheaply.
        assert derived.descriptor["duration"] == Rational(10, 25)
        assert not derived.is_materialized

    def test_edit_list_orders_of_magnitude_smaller(self, source_a):
        """§4.2: 'a video edit list is likely many orders of magnitude
        smaller than a video object.'"""
        derivation = derivation_registry.get("video-edit")
        derived = derivation([source_a], {"edit_list": [(0, 0, 20)]})
        edl_bytes = derived.derivation_object.storage_size()
        video_bytes = source_a.stream().total_size()
        assert video_bytes / edl_bytes > 100
