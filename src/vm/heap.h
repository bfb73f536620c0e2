/**
 * @file
 * The HiveVM object heap.
 *
 * Each endpoint VM owns a Heap with three arena spaces mirroring the
 * paper's Section 4.4 layout:
 *
 *   - the *closure space* (id 0) holds the copied initial closure
 *     plus any objects later fetched from remote endpoints; it is
 *     never collected while the instance lives;
 *   - two *allocation semispaces* (ids 1 and 2) serve normal object
 *     allocation and are collected by a copying collector (src/gc).
 *
 * A 512-byte card table covers the closure space so the collector
 * only scans cards known to contain closure->allocation references.
 *
 * Objects are laid out in the arenas as a fixed header followed by
 * either tagged value slots (plain objects, arrays) or raw bytes
 * (strings/blobs). All addressing goes through Ref (see value.h).
 *
 * An allocation space may also hold *holes*: the bytes of an object
 * that was dead on arrival (reservePlain()/reserveArray(), used by
 * the interpreter when a New/NewArr result is popped at once). A hole
 * is accounted and bump-allocated like a real object but never
 * written, not even its header. So the allocation spaces must only
 * be reached through refs, never walked linearly: only the closure
 * space has a walker (forEachClosureObject()), and the collector's
 * Cheney scan walks only the to-space it filled itself. Under
 * AddressSanitizer every arena byte that no live allocation wrote (a
 * hole, a reset semispace, the tail past the bump pointer) is
 * poisoned, so a stray read traps.
 */

#ifndef BEEHIVE_VM_HEAP_H
#define BEEHIVE_VM_HEAP_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/logging.h"
#include "vm/program.h"
#include "vm/value.h"

namespace beehive::vm {

/** Physical shape of a heap object. */
enum class ObjKind : uint8_t { Plain = 0, Array, Bytes };

/** Object flag bits. */
enum ObjFlags : uint8_t
{
    kFlagShared = 1 << 0,  //!< present in a server mapping table
    kFlagPacked = 1 << 1,  //!< native state marshalled (Packageable)
    kFlagDirtySync = 1 << 2, //!< on the endpoint's dirty-object list
};

/** Header preceding every heap object. */
struct ObjHeader
{
    uint32_t klass = 0;
    ObjKind kind = ObjKind::Plain;
    uint8_t flags = 0;
    /** Last monitor owner: endpoint id + 1; 0 = never locked. */
    uint16_t lock_owner = 0;
    /** Field count / array length / byte length. */
    uint32_t count = 0;
    /** Total object size in bytes including this header (8-aligned). */
    uint32_t size = 0;
    /** Forwarding address during GC; kNullRef when not forwarded. */
    Ref forward = kNullRef;
};

static_assert(sizeof(ObjHeader) == 24, "header layout drifted");

/**
 * One contiguous arena. Offsets start at 8 so 0 stays null.
 *
 * The backing memory is a private anonymous mapping of its own,
 * never initialized: the OS commits a page only when the bump
 * pointer first reaches it, so an arena costs what its objects
 * touch, not its capacity. (Memory from malloc would not guarantee
 * that: a large block can be carved from chunks an earlier,
 * destroyed heap already committed.) In turn no code may read arena
 * bytes that an allocation did not write (after reset() a semispace
 * still holds the previous cycle's objects).
 */
class Space
{
  public:
    Space(uint8_t id, std::size_t capacity);
    ~Space();

    /**
     * Bump-allocate @p bytes (8-aligned).
     * @return Arena offset, or 0 when the space is exhausted.
     */
    uint64_t alloc(uint32_t bytes);

    /**
     * Bump-allocate a hole of @p bytes that nothing will ever read
     * (see the file comment); it stays poisoned under
     * AddressSanitizer.
     * @return Arena offset, or 0 when the space is exhausted.
     */
    uint64_t allocHole(uint32_t bytes);

    uint8_t *
    at(uint64_t offset)
    {
        bh_assert(offset >= firstOffset() && offset < capacity_,
                  "offset %llu out of space %u",
                  static_cast<unsigned long long>(offset), id_);
        return mem_.get() + offset;
    }
    const uint8_t *
    at(uint64_t offset) const
    {
        return const_cast<Space *>(this)->at(offset);
    }

    uint8_t id() const { return id_; }
    std::size_t used() const { return top_; }
    std::size_t capacity() const { return capacity_; }

    /** Offset where iteration of allocated objects begins. */
    static constexpr uint64_t firstOffset() { return 8; }

    /** Reset the bump pointer (collection of a semispace); under
     * AddressSanitizer this also poisons the stale objects. */
    void reset();

  private:
    /** Under AddressSanitizer, extend the poison to at least
     * kRedzone bytes past the bump pointer (see heap.cc). */
    void guardTail();

    uint8_t id_;
    std::size_t capacity_;
    struct Unmap
    {
        std::size_t bytes;
        void operator()(uint8_t *p) const;
    };
    std::unique_ptr<uint8_t, Unmap> mem_;
    std::size_t top_;
    /** Under AddressSanitizer, every byte of [0, poisoned_) that no
     * live allocation wrote is poisoned. */
    std::size_t poisoned_ = 0;
};

/** Dirty-card tracking over the closure space (512-byte cards). */
class CardTable
{
  public:
    static constexpr std::size_t kCardBytes = 512;

    explicit CardTable(std::size_t space_capacity);

    /** Mark the card covering byte @p offset dirty. */
    void mark(uint64_t offset);

    bool isDirty(std::size_t card) const;
    std::size_t cardCount() const { return dirty_.size(); }
    std::size_t dirtyCount() const;

    /** Byte range covered by card @p card. */
    std::pair<uint64_t, uint64_t> cardRange(std::size_t card) const;

    /** Clear all dirty marks (after a GC cycle scanned them). */
    void clearAll();

  private:
    std::vector<bool> dirty_;
};

/** Allocation/GC statistics for Section 5.6 reporting. */
struct HeapStats
{
    uint64_t objects_allocated = 0;
    uint64_t bytes_allocated = 0;
    std::size_t peak_used = 0;
};

/**
 * The per-endpoint object heap.
 *
 * The heap itself is policy-free: collection lives in src/gc, write
 * observation (dirty-object lists for sync, Section 4.2) is a hook
 * installed by the BeeHive runtime.
 */
class Heap
{
  public:
    static constexpr uint8_t kClosureSpaceId = 0;
    static constexpr uint8_t kAllocAId = 1;
    static constexpr uint8_t kAllocBId = 2;

    /** Observer invoked after every reference-field store. */
    using WriteObserver = std::function<void(Ref obj)>;

    /**
     * @param program Program supplying klass metadata.
     * @param closure_capacity Closure space size in bytes.
     * @param alloc_capacity Size of EACH allocation semispace.
     */
    Heap(const Program &program, std::size_t closure_capacity,
         std::size_t alloc_capacity);

    /** @name Allocation */
    /// @{
    /** Allocate a plain object of @p klass (fields nil-initialised). */
    Ref allocPlain(KlassId klass, bool in_closure = false);

    /** Allocate an array of @p len tagged slots. */
    Ref allocArray(KlassId klass, uint32_t len, bool in_closure = false);

    /** Allocate a byte object holding a copy of @p data. */
    Ref allocBytes(KlassId klass, std::string_view data,
                   bool in_closure = false);

    /**
     * Dead-on-arrival allocation of a plain object of @p klass or an
     * array of @p len slots in the current allocation space: the bump
     * pointer and HeapStats move exactly as allocPlain()/allocArray()
     * would move them, but no byte of the object is written. Only for
     * an object no ref will ever point to; it leaves a hole (see the
     * file comment).
     *
     * @return false when the space is exhausted (nothing changes).
     */
    bool reservePlain(KlassId klass);
    bool reserveArray(uint32_t len);
    /// @}

    /** @name Object access
     * The accessors the interpreter runs on every field and header
     * touch are defined inline below. */
    /// @{
    ObjHeader &header(Ref r);
    const ObjHeader &header(Ref r) const
    {
        return const_cast<Heap *>(this)->header(r);
    }

    Value field(Ref obj, uint32_t idx) const;
    /** Store a field; fires the write observer and card marking. */
    void setField(Ref obj, uint32_t idx, Value v);

    /** Array element accessors (same slot layout as fields). */
    Value elem(Ref arr, uint32_t idx) const { return field(arr, idx); }
    void setElem(Ref arr, uint32_t idx, Value v) { setField(arr, idx, v); }

    std::string_view bytes(Ref r) const;
    uint32_t count(Ref r) const;
    /// @}

    /** @name GC interface */
    /// @{
    Space &space(uint8_t id);
    const Space &space(uint8_t id) const
    {
        return const_cast<Heap *>(this)->space(id);
    }

    /** Id of the semispace currently serving allocations. */
    uint8_t allocSpaceId() const { return alloc_space_; }
    uint8_t otherAllocSpaceId() const
    {
        return alloc_space_ == kAllocAId ? kAllocBId : kAllocAId;
    }
    /** Swap from-/to-space after a copying collection. */
    void flipAllocSpace();

    CardTable &cards() { return cards_; }
    const CardTable &cards() const { return cards_; }

    /** True when an allocation of @p bytes would fail. */
    bool allocWouldFail(uint32_t slots) const;

    /** Raw allocation in a specific space (collector use). */
    Ref rawAlloc(uint8_t space_id, uint32_t total_bytes);

    /**
     * Shallow-copy a whole object (header + payload) into another
     * space. Field values are copied verbatim; the caller fixes
     * references. Used by the copying collector and by closure
     * construction.
     *
     * @return The clone's address, or kNullRef on exhaustion.
     */
    Ref cloneObject(Ref src, uint8_t dst_space);

    /**
     * Copy an object that lives in ANOTHER heap into one of this
     * heap's spaces (closure installation, sync promotion). Field
     * values are copied verbatim; the caller translates references.
     */
    Ref cloneFrom(const Heap &src_heap, Ref src, uint8_t dst_space);

    /**
     * Store a field without firing the write observer (collector
     * use); card marking still happens.
     */
    void setFieldRaw(Ref obj, uint32_t idx, Value v);
    /// @}

    void setWriteObserver(WriteObserver obs) { observer_ = std::move(obs); }

    const Program &program() const { return program_; }
    const HeapStats &stats() const { return stats_; }

    /** Bytes currently in use across closure + active semispace. */
    std::size_t usedBytes() const;

    /**
     * Walk all closure-space objects in allocation order. There is
     * no walker for the allocation spaces: they can hold headerless
     * holes.
     */
    void forEachClosureObject(const std::function<void(Ref)> &fn);

    /** Deep human-readable dump of one object (debugging). */
    std::string describe(Ref r) const;

  private:
    Ref allocObject(uint8_t space_id, KlassId klass, ObjKind kind,
                    uint32_t count, uint32_t payload_bytes);
    bool reserveHole(uint32_t payload_bytes);
    /** Count one allocated object of @p total bytes in stats_. */
    void countAllocation(uint32_t total);

    Value *
    slots(Ref r)
    {
        return reinterpret_cast<Value *>(
            space(refSpace(r)).at(refOffset(r)) + sizeof(ObjHeader));
    }
    const Value *
    slots(Ref r) const
    {
        return const_cast<Heap *>(this)->slots(r);
    }
    [[noreturn]] void badSpace(uint8_t id) const;

    const Program &program_;
    Space closure_;
    Space alloc_a_;
    Space alloc_b_;
    uint8_t alloc_space_ = kAllocAId;
    CardTable cards_;
    WriteObserver observer_;
    HeapStats stats_;
};

inline Space &
Heap::space(uint8_t id)
{
    switch (id) {
      case kClosureSpaceId: return closure_;
      case kAllocAId: return alloc_a_;
      case kAllocBId: return alloc_b_;
    }
    badSpace(id);
}

inline ObjHeader &
Heap::header(Ref r)
{
    bh_assert(r != kNullRef, "null deref");
    bh_assert(!isRemote(r), "header() on remote ref");
    return *reinterpret_cast<ObjHeader *>(
        space(refSpace(r)).at(refOffset(r)));
}

inline Value
Heap::field(Ref obj, uint32_t idx) const
{
    const ObjHeader &hdr = header(obj);
    bh_assert(hdr.kind != ObjKind::Bytes, "field access on bytes");
    bh_assert(idx < hdr.count, "field index %u out of %u in %s", idx,
              hdr.count, program_.klass(hdr.klass).name.c_str());
    return slots(obj)[idx];
}

inline void
Heap::setFieldRaw(Ref obj, uint32_t idx, Value v)
{
    ObjHeader &hdr = header(obj);
    bh_assert(hdr.kind != ObjKind::Bytes, "field store on bytes");
    bh_assert(idx < hdr.count, "field index %u out of %u", idx,
              hdr.count);
    slots(obj)[idx] = v;
    // Card marking: a closure-space object now (possibly) references
    // an allocation-space object; the collector must treat this card
    // as a root region.
    if (refSpace(obj) == kClosureSpaceId && v.isRef() &&
        v.asRef() != kNullRef && !isRemote(v.asRef()) &&
        refSpace(v.asRef()) != kClosureSpaceId) {
        cards_.mark(refOffset(obj));
    }
}

inline void
Heap::setField(Ref obj, uint32_t idx, Value v)
{
    setFieldRaw(obj, idx, v);
    if (observer_)
        observer_(obj);
}

inline uint32_t
Heap::count(Ref r) const
{
    return header(r).count;
}

} // namespace beehive::vm

#endif // BEEHIVE_VM_HEAP_H
