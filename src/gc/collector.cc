#include "gc/collector.h"

#include <algorithm>
#include <cmath>

#include "support/logging.h"

namespace beehive::gc {

using vm::Heap;
using vm::ObjHeader;
using vm::ObjKind;
using vm::Ref;
using vm::Space;
using vm::Value;

SemiSpaceCollector::SemiSpaceCollector(Heap &heap, GcCostModel model)
    : heap_(heap), model_(model)
{
}

void
SemiSpaceCollector::addValueRoots(ValueRootProvider p)
{
    value_roots_.push_back(std::move(p));
}

void
SemiSpaceCollector::addRefRoots(RefRootProvider p)
{
    ref_roots_.push_back(std::move(p));
}

Ref
SemiSpaceCollector::evacuate(Ref ref)
{
    if (ref == vm::kNullRef || vm::isRemote(ref))
        return ref;
    if (vm::refSpace(ref) != from_space_)
        return ref; // closure space or already in to-space
    ObjHeader &hdr = heap_.header(ref);
    if (hdr.forward != vm::kNullRef)
        return hdr.forward;
    Ref copy = heap_.cloneObject(ref, to_space_);
    bh_assert(copy != vm::kNullRef,
              "to-space exhausted during GC (live set too large)");
    hdr.forward = copy;
    ++cycle_.objects_copied;
    cycle_.bytes_copied += hdr.size;
    return copy;
}

void
SemiSpaceCollector::processValue(Value &v)
{
    if (!v.isRef() || v.asRef() == vm::kNullRef ||
        vm::isRemote(v.asRef())) {
        return;
    }
    Ref moved = evacuate(v.asRef());
    if (moved != v.asRef())
        v = Value::ofRef(moved);
}

GcCycleStats
SemiSpaceCollector::collect()
{
    cycle_ = GcCycleStats{};
    from_space_ = heap_.allocSpaceId();
    to_space_ = heap_.otherAllocSpaceId();
    Space &from = heap_.space(from_space_);
    Space &to = heap_.space(to_space_);
    bh_assert(to.used() == Space::firstOffset(),
              "to-space not empty before GC");
    uint64_t from_used = from.used();

    // Phase 1: value roots (frames, statics).
    for (auto &provider : value_roots_) {
        provider([&](Value &v) {
            ++cycle_.roots_visited;
            processValue(v);
        });
    }

    // Phase 2: ref roots (mapping tables). Shared objects are kept
    // alive and the table entries are updated when objects move.
    for (auto &provider : ref_roots_) {
        provider([&](Ref &r) {
            ++cycle_.roots_visited;
            if (r != vm::kNullRef && !vm::isRemote(r))
                r = evacuate(r);
        });
    }

    // Phase 3: dirty cards of the closure space. Only closure-space
    // objects overlapping a dirty card can reference the allocation
    // space (the heap's write barrier guarantees it). Clear the
    // marks first; stores performed during the scan re-mark cards
    // that still hold cross-space references after fixup.
    std::vector<bool> was_dirty(heap_.cards().cardCount());
    for (std::size_t c = 0; c < was_dirty.size(); ++c)
        was_dirty[c] = heap_.cards().isDirty(c);
    heap_.cards().clearAll();

    heap_.forEachClosureObject([&](Ref obj) {
        const ObjHeader &hdr = heap_.header(obj);
        if (hdr.kind == ObjKind::Bytes)
            return;
        uint64_t begin = vm::refOffset(obj);
        uint64_t end = begin + hdr.size;
        std::size_t first_card = begin / vm::CardTable::kCardBytes;
        std::size_t last_card = (end - 1) / vm::CardTable::kCardBytes;
        bool any_dirty = false;
        for (std::size_t c = first_card; c <= last_card; ++c) {
            if (c < was_dirty.size() && was_dirty[c]) {
                any_dirty = true;
                ++cycle_.cards_scanned;
            }
        }
        if (!any_dirty)
            return;
        for (uint32_t i = 0; i < hdr.count; ++i) {
            Value v = heap_.field(obj, i);
            if (!v.isRef() || v.asRef() == vm::kNullRef ||
                vm::isRemote(v.asRef())) {
                continue;
            }
            Ref moved = evacuate(v.asRef());
            // setFieldRaw re-marks the card if still cross-space.
            heap_.setFieldRaw(obj, i, Value::ofRef(moved));
        }
    });

    // Phase 4: Cheney scan of to-space.
    uint64_t scan = Space::firstOffset();
    while (scan < to.used()) {
        Ref obj = vm::makeRef(to_space_, scan);
        ObjHeader &hdr = heap_.header(obj);
        if (hdr.kind != ObjKind::Bytes) {
            for (uint32_t i = 0; i < hdr.count; ++i) {
                Value v = heap_.field(obj, i);
                if (v.isRef() && v.asRef() != vm::kNullRef &&
                    !vm::isRemote(v.asRef())) {
                    Ref moved = evacuate(v.asRef());
                    if (moved != v.asRef())
                        heap_.setFieldRaw(obj, i, Value::ofRef(moved));
                }
            }
        }
        scan += hdr.size;
    }

    // Phase 5: reclaim from-space and flip.
    from.reset();
    heap_.flipAllocSpace();

    cycle_.bytes_freed =
        from_used - Space::firstOffset() >= cycle_.bytes_copied
            ? from_used - Space::firstOffset() - cycle_.bytes_copied
            : 0;

    double pause_ns =
        model_.base_ns +
        model_.per_copied_byte_ns *
            static_cast<double>(cycle_.bytes_copied) +
        model_.per_card_ns * static_cast<double>(cycle_.cards_scanned) +
        model_.per_root_ns * static_cast<double>(cycle_.roots_visited);
    cycle_.pause = sim::SimTime::nsec(static_cast<int64_t>(pause_ns));

    ++totals_.collections;
    totals_.objects_copied += cycle_.objects_copied;
    totals_.bytes_copied += cycle_.bytes_copied;
    totals_.pause_ms.add(cycle_.pause.toMillis());
    if (observer_)
        observer_(cycle_);
    return cycle_;
}

double
SemiSpaceCollector::medianPauseMs() const
{
    // Shared stats implementation (nearest-rank, sim/stats.h).
    return totals_.pause_ms.median();
}

} // namespace beehive::gc
