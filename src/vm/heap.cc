#include "vm/heap.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "support/logging.h"
#include "support/strutil.h"

namespace beehive::vm {

namespace {

constexpr uint32_t
alignUp(uint32_t bytes)
{
    return (bytes + 7u) & ~7u;
}

/** @name Arena guards: under AddressSanitizer every arena byte no
 * live allocation wrote (a dead-on-arrival hole, a reset semispace's
 * stale objects, the tail past the bump pointer) is poisoned, so a
 * read of it traps; no-ops otherwise. */
/// @{
inline void
poison([[maybe_unused]] uint8_t *p, [[maybe_unused]] std::size_t n)
{
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(p, n);
#endif
}

inline void
unpoison([[maybe_unused]] uint8_t *p, [[maybe_unused]] std::size_t n)
{
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}
/// @}

/** How far past the bump pointer an arena is at least kept poisoned
 * under AddressSanitizer. The poison grows with the bump pointer, so
 * its shadow costs what the arena touches, not its capacity. Each
 * arena maps this much slack past its end, so an overrun of the last
 * object traps as well. */
constexpr std::size_t kRedzone = std::size_t{64} << 10;

uint8_t *
mapArena(std::size_t bytes)
{
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
        fatal("cannot map a %zu-byte heap space", bytes);
    return static_cast<uint8_t *>(p);
}

} // namespace

void
Space::Unmap::operator()(uint8_t *p) const
{
    munmap(p, bytes);
}

Space::Space(uint8_t id, std::size_t capacity)
    : id_(id), capacity_(capacity),
      mem_(mapArena(capacity + kRedzone), Unmap{capacity + kRedzone}),
      top_(firstOffset())
{
    bh_assert(capacity > firstOffset(), "space too small");
    guardTail();
}

Space::~Space()
{
    // The poisoned shadow must not outlive the mapping.
    unpoison(mem_.get(), poisoned_);
}

uint64_t
Space::allocHole(uint32_t bytes)
{
    bytes = alignUp(bytes);
    if (top_ + bytes > capacity_)
        return 0;
    uint64_t offset = top_;
    top_ += bytes;
    guardTail();
    return offset;
}

uint64_t
Space::alloc(uint32_t bytes)
{
    uint64_t offset = allocHole(bytes);
    if (offset != 0)
        unpoison(mem_.get() + offset, alignUp(bytes));
    return offset;
}

void
Space::reset()
{
    poison(mem_.get(), top_);
    top_ = firstOffset();
}

void
Space::guardTail()
{
#if defined(__SANITIZE_ADDRESS__)
    if (top_ + kRedzone <= poisoned_)
        return;
    std::size_t end = std::min(capacity_ + kRedzone, top_ + 2 * kRedzone);
    poison(mem_.get() + poisoned_, end - poisoned_);
    poisoned_ = end;
#endif
}

CardTable::CardTable(std::size_t space_capacity)
    : dirty_((space_capacity + kCardBytes - 1) / kCardBytes, false)
{
}

void
CardTable::mark(uint64_t offset)
{
    std::size_t card = offset / kCardBytes;
    bh_assert(card < dirty_.size(), "card out of range");
    dirty_[card] = true;
}

bool
CardTable::isDirty(std::size_t card) const
{
    bh_assert(card < dirty_.size(), "card out of range");
    return dirty_[card];
}

std::size_t
CardTable::dirtyCount() const
{
    return static_cast<std::size_t>(
        std::count(dirty_.begin(), dirty_.end(), true));
}

std::pair<uint64_t, uint64_t>
CardTable::cardRange(std::size_t card) const
{
    return {card * kCardBytes, (card + 1) * kCardBytes};
}

void
CardTable::clearAll()
{
    std::fill(dirty_.begin(), dirty_.end(), false);
}

Heap::Heap(const Program &program, std::size_t closure_capacity,
           std::size_t alloc_capacity)
    : program_(program),
      closure_(kClosureSpaceId, closure_capacity),
      alloc_a_(kAllocAId, alloc_capacity),
      alloc_b_(kAllocBId, alloc_capacity),
      cards_(closure_capacity)
{
}

void
Heap::badSpace(uint8_t id) const
{
    panic("bad space id %u", id);
}

void
Heap::flipAllocSpace()
{
    alloc_space_ = otherAllocSpaceId();
}

Ref
Heap::rawAlloc(uint8_t space_id, uint32_t total_bytes)
{
    uint64_t offset = space(space_id).alloc(total_bytes);
    if (offset == 0)
        return kNullRef;
    return makeRef(space_id, offset);
}

Ref
Heap::allocObject(uint8_t space_id, KlassId klass, ObjKind kind,
                  uint32_t count, uint32_t payload_bytes)
{
    uint32_t total =
        alignUp(static_cast<uint32_t>(sizeof(ObjHeader)) + payload_bytes);
    Ref ref = rawAlloc(space_id, total);
    if (ref == kNullRef)
        return kNullRef;
    auto *hdr = new (space(space_id).at(refOffset(ref))) ObjHeader();
    hdr->klass = klass;
    hdr->kind = kind;
    hdr->count = count;
    hdr->size = total;
    // The arena is not zeroed: this fill is what hides the stale
    // bytes of a reset semispace or a recycled block.
    if (kind != ObjKind::Bytes) {
        Value *s = slots(ref);
        for (uint32_t i = 0; i < count; ++i)
            s[i] = Value::nil();
    }
    countAllocation(total);
    return ref;
}

bool
Heap::reserveHole(uint32_t payload_bytes)
{
    uint32_t total =
        alignUp(static_cast<uint32_t>(sizeof(ObjHeader)) + payload_bytes);
    if (space(alloc_space_).allocHole(total) == 0)
        return false;
    countAllocation(total);
    return true;
}

void
Heap::countAllocation(uint32_t total)
{
    ++stats_.objects_allocated;
    stats_.bytes_allocated += total;
    stats_.peak_used = std::max(stats_.peak_used, usedBytes());
}

Ref
Heap::allocPlain(KlassId klass, bool in_closure)
{
    uint32_t nfields = program_.fieldCount(klass);
    return allocObject(in_closure ? kClosureSpaceId : alloc_space_,
                       klass, ObjKind::Plain, nfields,
                       nfields * sizeof(Value));
}

Ref
Heap::allocArray(KlassId klass, uint32_t len, bool in_closure)
{
    return allocObject(in_closure ? kClosureSpaceId : alloc_space_,
                       klass, ObjKind::Array, len, len * sizeof(Value));
}

bool
Heap::reservePlain(KlassId klass)
{
    return reserveHole(program_.fieldCount(klass) * sizeof(Value));
}

bool
Heap::reserveArray(uint32_t len)
{
    return reserveHole(len * sizeof(Value));
}

Ref
Heap::allocBytes(KlassId klass, std::string_view data, bool in_closure)
{
    Ref ref = allocObject(in_closure ? kClosureSpaceId : alloc_space_,
                          klass, ObjKind::Bytes,
                          static_cast<uint32_t>(data.size()),
                          static_cast<uint32_t>(data.size()));
    if (ref == kNullRef)
        return kNullRef;
    std::memcpy(space(refSpace(ref)).at(refOffset(ref)) +
                    sizeof(ObjHeader),
                data.data(), data.size());
    return ref;
}

Ref
Heap::cloneObject(Ref src, uint8_t dst_space)
{
    return cloneFrom(*this, src, dst_space);
}

Ref
Heap::cloneFrom(const Heap &src_heap, Ref src, uint8_t dst_space)
{
    const ObjHeader &hdr = src_heap.header(src);
    Ref dst = rawAlloc(dst_space, hdr.size);
    if (dst == kNullRef)
        return kNullRef;
    std::memcpy(space(dst_space).at(refOffset(dst)),
                src_heap.space(refSpace(src)).at(refOffset(src)),
                hdr.size);
    header(dst).forward = kNullRef;
    countAllocation(hdr.size);
    return dst;
}

std::string_view
Heap::bytes(Ref r) const
{
    const ObjHeader &hdr = header(r);
    bh_assert(hdr.kind == ObjKind::Bytes, "bytes() on non-bytes");
    return std::string_view(
        reinterpret_cast<const char *>(
            space(refSpace(r)).at(refOffset(r)) + sizeof(ObjHeader)),
        hdr.count);
}

bool
Heap::allocWouldFail(uint32_t slots_needed) const
{
    const Space &s = space(alloc_space_);
    std::size_t need = sizeof(ObjHeader) + slots_needed * sizeof(Value);
    return s.used() + need > s.capacity();
}

std::size_t
Heap::usedBytes() const
{
    return closure_.used() + space(alloc_space_).used();
}

void
Heap::forEachClosureObject(const std::function<void(Ref)> &fn)
{
    uint64_t offset = Space::firstOffset();
    while (offset < closure_.used()) {
        Ref ref = makeRef(kClosureSpaceId, offset);
        const ObjHeader &hdr = header(ref);
        bh_assert(hdr.size >= sizeof(ObjHeader), "corrupt heap walk");
        fn(ref);
        offset += hdr.size;
    }
}

std::string
Heap::describe(Ref r) const
{
    if (r == kNullRef)
        return "null";
    if (isRemote(r))
        return strprintf("remote(%llx)",
                         static_cast<unsigned long long>(stripRemote(r)));
    const ObjHeader &hdr = header(r);
    const char *kind = hdr.kind == ObjKind::Plain
                           ? "obj"
                           : hdr.kind == ObjKind::Array ? "arr" : "bytes";
    return strprintf("%s %s#%u@%llx", kind,
                     program_.klass(hdr.klass).name.c_str(), hdr.count,
                     static_cast<unsigned long long>(r));
}

} // namespace beehive::vm
