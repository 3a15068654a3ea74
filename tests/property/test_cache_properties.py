"""Property-based tests on the cache layer.

Two invariants carry the whole design:

* **Transparency** — a pool-backed :class:`PageStore` is observationally
  identical to a bare one under any interleaving of allocate / free /
  write / read operations. The cache may change *how many* pager reads
  happen, never *what bytes* come back or *which errors* are raised.
* **Determinism** — the pool's eviction order, hit counts and final
  contents are a pure function of the operation sequence, so two
  identical runs agree exactly (the obs determinism contract depends
  on this). The same holds for the derivation cache's ageing
  admission policy.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blob.pages import MemoryPager, PageStore
from repro.cache import BufferPool, DerivationCache
from repro.core.derivation import Derivation, DerivationCategory
from repro.core.elements import MediaElement
from repro.core.media_object import StreamMediaObject
from repro.core.media_types import MediaKind, media_type_registry
from repro.core.streams import TimedStream
from repro.engine.player import CostModel
from repro.errors import BlobError


PAGE_SIZE = 16

#: One storage operation: (kind, argument). Page numbers and free
#: targets are drawn small so interleavings collide with the free list
#: and with out-of-range pages often.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.just(0)),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("write"),
                  st.tuples(st.integers(min_value=0, max_value=7),
                            st.binary(min_size=0, max_size=PAGE_SIZE))),
        st.tuples(st.just("read"), st.integers(min_value=0, max_value=7)),
    ),
    min_size=1, max_size=40,
)


def run(store: PageStore, ops) -> list:
    """Apply ``ops``, recording every observable outcome (bytes read,
    allocation results, error types) in order."""
    trace: list = []
    for kind, arg in ops:
        try:
            if kind == "allocate":
                trace.append(("allocated", store.allocate()))
            elif kind == "free":
                store.free(arg)
                trace.append(("freed", arg))
            elif kind == "write":
                page, data = arg
                store.write(page, data)
                trace.append(("wrote", page, len(data)))
            else:
                trace.append(("read", arg, store.read(arg)))
        except BlobError as exc:
            trace.append(("error", kind, type(exc).__name__))
    return trace


class TestPoolTransparency:
    @given(ops=operations,
           capacity=st.integers(min_value=1, max_value=8),
           checksums=st.booleans())
    @settings(max_examples=60)
    def test_pooled_store_observationally_identical(self, ops, capacity,
                                                    checksums):
        bare = PageStore(MemoryPager(page_size=PAGE_SIZE),
                         checksums=checksums)
        pooled = PageStore(MemoryPager(page_size=PAGE_SIZE),
                           checksums=checksums,
                           buffer_pool=BufferPool(capacity))
        assert run(bare, ops) == run(pooled, ops)

    @given(ops=operations, capacity=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60)
    def test_pool_never_overflows_or_serves_stale(self, ops, capacity):
        pool = BufferPool(capacity)
        store = PageStore(MemoryPager(page_size=PAGE_SIZE),
                          checksums=True, buffer_pool=pool)
        run(store, ops)
        assert len(pool) <= capacity
        # Every resident page mirrors the pager exactly (no staleness).
        for page_no in pool.pages():
            assert pool.get(page_no) == store.pager.read_page(page_no)


class TestPoolDeterminism:
    @given(ops=operations, capacity=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60)
    def test_same_sequence_same_pool_state(self, ops, capacity):
        """Eviction order, counters and contents replay identically."""

        def final_state():
            pool = BufferPool(capacity)
            store = PageStore(MemoryPager(page_size=PAGE_SIZE),
                              buffer_pool=pool)
            run(store, ops)
            return (pool.pages(), pool.stats(),
                    [pool.get(p) for p in pool.pages()])

        assert final_state() == final_state()


VIDEO = media_type_registry.get("pal-video")


def _clip(size: int) -> StreamMediaObject:
    stream = TimedStream.from_elements(
        VIDEO, [MediaElement(payload=0, size=size)]
    )
    descriptor = VIDEO.make_media_descriptor(
        frame_rate=25, frame_width=8, frame_height=8, frame_depth=24,
        color_model="RGB",
    )
    return StreamMediaObject(VIDEO, descriptor, stream)


def _derived(input_bytes: int, expanded: StreamMediaObject):
    derivation = Derivation(
        name="prop", category=DerivationCategory.CHANGE_OF_CONTENT,
        input_kinds=(MediaKind.VIDEO,), result_kind=MediaKind.VIDEO,
        expand=lambda objs, params: expanded,
        describe=lambda objs, params: (objs[0].media_type,
                                       objs[0].descriptor),
    )
    return derivation([_clip(input_bytes)])


#: Derived objects as (input bytes, expanded bytes). Sizes close to
#: the budget force evictions; densities differ by small factors, so
#: the age discount decides admissions.
shapes = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1500),
              st.integers(min_value=200, max_value=600)),
    min_size=2, max_size=5,
)
cache_ops = st.lists(
    st.tuples(st.sampled_from(["get", "put"]),
              st.integers(min_value=0, max_value=5)),
    min_size=1, max_size=40,
)


class TestDerivationCacheAgeing:
    @given(shapes=shapes, ops=cache_ops,
           budget=st.integers(min_value=400, max_value=1500))
    @settings(max_examples=80, deadline=None)
    def test_budget_determinism_and_just_used_protection(
            self, shapes, ops, budget):
        model = CostModel(bandwidth=1000, seek_time=0.01)
        objects = [(_derived(inputs, _clip(size)), _clip(size))
                   for inputs, size in shapes]
        probe = DerivationCache(cost_model=model)
        density = [probe.benefit_seconds(derived, size) / size
                   for (derived, _), (_, size) in zip(objects, shapes)]

        def run():
            cache = DerivationCache(budget_bytes=budget, cost_model=model)
            just_used = None  # index of the entry the last call used
            for kind, index in ops:
                index %= len(objects)
                derived, expanded = objects[index]
                if kind == "get":
                    hit = cache.get(derived) is not None
                    just_used = index if hit else None
                    continue
                admitted = cache.put(derived, expanded)
                if just_used is not None and \
                        density[just_used] > density[index]:
                    assert objects[just_used][0] in cache
                just_used = index if admitted else None
                assert cache.occupancy_bytes <= cache.budget_bytes
            return cache.manifest(), cache.keys()

        assert run() == run()
