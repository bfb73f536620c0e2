/**
 * @file
 * Unit and property tests for the two-space copying collector.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <unistd.h>
#include <vector>

#include "gc/collector.h"
#include "vm/heap.h"
#include "vm/program.h"
#include "vm/value.h"

namespace beehive::gc {
namespace {

using vm::Heap;
using vm::KlassId;
using vm::Program;
using vm::Ref;
using vm::Value;

class GcTest : public ::testing::Test
{
  protected:
    GcTest()
    {
        vm::Klass node;
        node.name = "Node";
        node.fields = {"next", "payload"};
        node_k = program.addKlass(node);

        vm::Klass blob;
        blob.name = "Blob";
        blob_k = program.addKlass(blob);

        heap = std::make_unique<Heap>(program, 1 << 20, 1 << 20);
        collector = std::make_unique<SemiSpaceCollector>(*heap);
    }

    /** Build a singly linked list of @p n nodes in the alloc space. */
    Ref
    makeList(int n)
    {
        Ref head = vm::kNullRef;
        for (int i = 0; i < n; ++i) {
            Ref node = heap->allocPlain(node_k);
            EXPECT_NE(node, vm::kNullRef);
            heap->setField(node, 0, Value::ofRef(head));
            heap->setField(node, 1, Value::ofInt(i));
            head = node;
        }
        return head;
    }

    /** Sum the payloads of a list (checks copy integrity). */
    int64_t
    sumList(Ref head)
    {
        int64_t sum = 0;
        while (head != vm::kNullRef) {
            sum += heap->field(head, 1).asInt();
            head = heap->field(head, 0).asRef();
        }
        return sum;
    }

    Program program;
    KlassId node_k, blob_k;
    std::unique_ptr<Heap> heap;
    std::unique_ptr<SemiSpaceCollector> collector;
};

TEST_F(GcTest, UnreachableObjectsAreFreed)
{
    makeList(100); // garbage: no roots registered
    std::size_t used_before = heap->space(heap->allocSpaceId()).used();
    EXPECT_GT(used_before, vm::Space::firstOffset());
    GcCycleStats stats = collector->collect();
    EXPECT_EQ(stats.objects_copied, 0u);
    EXPECT_GT(stats.bytes_freed, 0u);
    EXPECT_EQ(heap->space(heap->allocSpaceId()).used(),
              vm::Space::firstOffset());
}

TEST_F(GcTest, RootedObjectsSurviveWithContentsIntact)
{
    Value root = Value::ofRef(makeList(50));
    collector->addValueRoots([&](const auto &visit) { visit(root); });
    int64_t before = sumList(root.asRef());

    GcCycleStats stats = collector->collect();
    EXPECT_EQ(stats.objects_copied, 50u);
    // Root was updated to the new location.
    EXPECT_EQ(vm::refSpace(root.asRef()), heap->allocSpaceId());
    EXPECT_EQ(sumList(root.asRef()), before);
}

TEST_F(GcTest, SharedSubgraphCopiedOnce)
{
    Ref shared = heap->allocPlain(node_k);
    heap->setField(shared, 1, Value::ofInt(7));
    Ref a = heap->allocPlain(node_k);
    Ref b = heap->allocPlain(node_k);
    heap->setField(a, 0, Value::ofRef(shared));
    heap->setField(b, 0, Value::ofRef(shared));

    Value ra = Value::ofRef(a), rb = Value::ofRef(b);
    collector->addValueRoots([&](const auto &visit) {
        visit(ra);
        visit(rb);
    });
    GcCycleStats stats = collector->collect();
    EXPECT_EQ(stats.objects_copied, 3u);
    // Both parents point to the same copy.
    EXPECT_EQ(heap->field(ra.asRef(), 0).asRef(),
              heap->field(rb.asRef(), 0).asRef());
    EXPECT_EQ(
        heap->field(heap->field(ra.asRef(), 0).asRef(), 1).asInt(), 7);
}

TEST_F(GcTest, CyclesAreHandled)
{
    Ref a = heap->allocPlain(node_k);
    Ref b = heap->allocPlain(node_k);
    heap->setField(a, 0, Value::ofRef(b));
    heap->setField(b, 0, Value::ofRef(a));
    heap->setField(a, 1, Value::ofInt(1));
    heap->setField(b, 1, Value::ofInt(2));

    Value root = Value::ofRef(a);
    collector->addValueRoots([&](const auto &visit) { visit(root); });
    GcCycleStats stats = collector->collect();
    EXPECT_EQ(stats.objects_copied, 2u);
    Ref na = root.asRef();
    Ref nb = heap->field(na, 0).asRef();
    EXPECT_EQ(heap->field(nb, 0).asRef(), na);
    EXPECT_EQ(heap->field(na, 1).asInt(), 1);
    EXPECT_EQ(heap->field(nb, 1).asInt(), 2);
}

TEST_F(GcTest, ClosureSpaceObjectsAreNeverCollectedOrMoved)
{
    Ref closure_obj = heap->allocPlain(node_k, /*in_closure=*/true);
    heap->setField(closure_obj, 1, Value::ofInt(42));
    std::size_t closure_used = heap->space(Heap::kClosureSpaceId).used();

    makeList(10); // garbage
    collector->collect();
    EXPECT_EQ(heap->space(Heap::kClosureSpaceId).used(), closure_used);
    EXPECT_EQ(heap->field(closure_obj, 1).asInt(), 42);
}

TEST_F(GcTest, DirtyCardKeepsYoungObjectAliveAndFixesPointer)
{
    Ref closure_obj = heap->allocPlain(node_k, true);
    Ref young = heap->allocPlain(node_k);
    heap->setField(young, 1, Value::ofInt(99));
    heap->setField(closure_obj, 0, Value::ofRef(young)); // marks card

    GcCycleStats stats = collector->collect();
    EXPECT_EQ(stats.objects_copied, 1u);
    EXPECT_GE(stats.cards_scanned, 1u);
    Ref moved = heap->field(closure_obj, 0).asRef();
    EXPECT_EQ(vm::refSpace(moved), heap->allocSpaceId());
    EXPECT_EQ(heap->field(moved, 1).asInt(), 99);
}

TEST_F(GcTest, CardStaysDirtyAcrossCollectionsWhileCrossRefExists)
{
    Ref closure_obj = heap->allocPlain(node_k, true);
    Ref young = heap->allocPlain(node_k);
    heap->setField(closure_obj, 0, Value::ofRef(young));

    collector->collect();
    EXPECT_GE(heap->cards().dirtyCount(), 1u);
    // Second GC still finds the young object via the re-marked card.
    GcCycleStats stats2 = collector->collect();
    EXPECT_EQ(stats2.objects_copied, 1u);

    // Break the reference: after the next GC the card is clean.
    heap->setField(closure_obj, 0, Value::nil());
    collector->collect();
    EXPECT_EQ(heap->cards().dirtyCount(), 0u);
}

TEST_F(GcTest, CleanClosureCardsAreNotScanned)
{
    // Lots of closure objects with no cross-space refs.
    for (int i = 0; i < 200; ++i)
        heap->allocPlain(node_k, true);
    GcCycleStats stats = collector->collect();
    EXPECT_EQ(stats.cards_scanned, 0u);
}

TEST_F(GcTest, RefRootProviderKeepsMappingTableTargetsAlive)
{
    // Model a server mapping table holding shared objects.
    std::vector<Ref> table{makeList(3)};
    collector->addRefRoots([&](const auto &visit) {
        for (Ref &r : table)
            visit(r);
    });
    GcCycleStats stats = collector->collect();
    EXPECT_EQ(stats.objects_copied, 3u);
    // Table entry updated to the moved address.
    EXPECT_EQ(vm::refSpace(table[0]), heap->allocSpaceId());
    EXPECT_EQ(sumList(table[0]), 0 + 1 + 2);
}

TEST_F(GcTest, RemoteRefsAreLeftUntouched)
{
    Ref obj = heap->allocPlain(node_k);
    Ref remote = vm::markRemote(vm::makeRef(1, 0x1000));
    heap->setField(obj, 0, Value::ofRef(remote));
    Value root = Value::ofRef(obj);
    collector->addValueRoots([&](const auto &visit) { visit(root); });
    collector->collect();
    EXPECT_EQ(heap->field(root.asRef(), 0).asRef(), remote);
}

TEST_F(GcTest, BytesObjectsSurviveCopy)
{
    Ref blob = heap->allocBytes(blob_k, "precious-payload");
    Ref holder = heap->allocPlain(node_k);
    heap->setField(holder, 0, Value::ofRef(blob));
    Value root = Value::ofRef(holder);
    collector->addValueRoots([&](const auto &visit) { visit(root); });
    collector->collect();
    Ref moved = heap->field(root.asRef(), 0).asRef();
    EXPECT_EQ(heap->bytes(moved), "precious-payload");
}

TEST_F(GcTest, AllocationSucceedsAfterCollection)
{
    Heap small(program, 1 << 16, 1 << 14); // 16 KB semispaces
    SemiSpaceCollector gc(small);
    // Fill the space with garbage until exhaustion, collect, repeat.
    int total_allocated = 0;
    for (int round = 0; round < 5; ++round) {
        while (small.allocPlain(node_k) != vm::kNullRef)
            ++total_allocated;
        GcCycleStats stats = gc.collect();
        EXPECT_GT(stats.bytes_freed, 0u);
    }
    EXPECT_GT(total_allocated, 1000);
}

TEST_F(GcTest, RecycledSemispaceReadsOnlyWhatAllocationsWrote)
{
    // Arena memory is never zeroed: a semispace reset by a collection
    // still holds the last cycle's bytes. Fill both semispaces with
    // non-nil ints, refs and bytes, collect each away, then allocate
    // over the reused memory of the first one.
    Heap small(program, 1 << 16, 1 << 14);
    SemiSpaceCollector gc(small);
    const uint8_t reused = small.allocSpaceId();
    const std::string stale(40, '\xa5');
    std::size_t stale_top = 0;
    for (int round = 0; round < 2; ++round) {
        Ref prev = vm::kNullRef;
        for (int i = 0;; ++i) {
            Ref r = i % 3 == 0   ? small.allocPlain(node_k)
                    : i % 3 == 1 ? small.allocArray(node_k, 1 + i % 7)
                                 : small.allocBytes(blob_k, stale);
            if (r == vm::kNullRef)
                break;
            if (i % 3 == 2)
                continue;
            for (uint32_t f = 0; f < small.count(r); ++f) {
                small.setField(r, f,
                               f % 2 == 0 && prev != vm::kNullRef
                                   ? Value::ofRef(prev)
                                   : Value::ofInt(-1 - i));
            }
            prev = r;
        }
        if (round == 0)
            stale_top = small.space(reused).used();
        gc.collect();
    }
    ASSERT_EQ(small.allocSpaceId(), reused);
    ASSERT_EQ(small.space(reused).used(), vm::Space::firstOffset());

    // Every slot of a fresh object reads nil and every byte object
    // reads back exactly what was written, in all the reused memory.
    std::vector<Ref> slotted;
    std::vector<std::pair<Ref, std::string>> blobs;
    for (int i = 0;; ++i) {
        Ref r;
        if (i % 3 == 2) {
            std::string data(static_cast<std::size_t>(i % 23),
                             static_cast<char>('a' + i % 26));
            r = small.allocBytes(blob_k, data);
            if (r != vm::kNullRef)
                blobs.emplace_back(r, data);
        } else {
            r = i % 3 == 0
                    ? small.allocPlain(node_k)
                    : small.allocArray(node_k,
                                       static_cast<uint32_t>(i % 11));
            if (r != vm::kNullRef)
                slotted.push_back(r);
        }
        if (r == vm::kNullRef)
            break;
    }
    // The new objects cover all of the memory the first fill wrote.
    ASSERT_GE(small.space(reused).used() + 256, stale_top);
    ASSERT_GT(slotted.size(), 100u);
    for (Ref r : slotted) {
        EXPECT_EQ(small.header(r).forward, vm::kNullRef);
        for (uint32_t f = 0; f < small.count(r); ++f) {
            Value v = small.field(r, f);
            EXPECT_TRUE(v.isNil());
            EXPECT_EQ(v.bits, 0u);
        }
    }
    for (const auto &[r, data] : blobs)
        EXPECT_EQ(small.bytes(r), data);
}

/** Resident set size of this process in bytes, or -1 without /proc. */
long long
residentBytes()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return -1;
    long long size = 0, resident = -1;
    if (std::fscanf(f, "%lld %lld", &size, &resident) != 2)
        resident = -1;
    std::fclose(f);
    return resident < 0 ? -1 : resident * sysconf(_SC_PAGESIZE);
}

TEST_F(GcTest, ArenaPagesAreCommittedOnFirstTouch)
{
    if (residentBytes() < 0)
        GTEST_SKIP() << "/proc/self/statm is not available";
    constexpr std::size_t kSemispace = std::size_t{256} << 20;
    constexpr long long kLimit = 32LL << 20;
    long long before = residentBytes();
    Heap big(program, 1 << 20, kSemispace);
    EXPECT_LT(residentBytes() - before, kLimit)
        << "constructing 2 x 256 MB semispaces committed their pages";
    for (int i = 0; i < 1000; ++i)
        ASSERT_NE(big.allocPlain(node_k), vm::kNullRef);
    EXPECT_LT(residentBytes() - before, kLimit);
    EXPECT_EQ(big.space(big.allocSpaceId()).capacity(), kSemispace);
}

TEST_F(GcTest, PauseModelScalesWithCopiedBytes)
{
    Value small_root = Value::ofRef(makeList(5));
    collector->addValueRoots(
        [&](const auto &visit) { visit(small_root); });
    GcCycleStats small_stats = collector->collect();

    Heap heap2(program, 1 << 20, 1 << 20);
    SemiSpaceCollector gc2(heap2);
    Ref head = vm::kNullRef;
    for (int i = 0; i < 5000; ++i) {
        Ref node = heap2.allocPlain(node_k);
        heap2.setField(node, 0, Value::ofRef(head));
        head = node;
    }
    Value big_root = Value::ofRef(head);
    gc2.addValueRoots([&](const auto &visit) { visit(big_root); });
    GcCycleStats big_stats = gc2.collect();

    EXPECT_GT(big_stats.pause, small_stats.pause);
    // Pauses stay in the low-millisecond regime the paper reports.
    EXPECT_LT(big_stats.pause.toMillis(), 10.0);
}

TEST_F(GcTest, TotalsAndMedianPauseAccumulate)
{
    EXPECT_TRUE(std::isnan(collector->medianPauseMs()));
    makeList(10);
    collector->collect();
    makeList(10);
    collector->collect();
    EXPECT_EQ(collector->totals().collections, 2u);
    EXPECT_FALSE(std::isnan(collector->medianPauseMs()));
}

/**
 * Property: after GC, a randomly shaped object graph reachable from
 * a root is isomorphic to what was built (checked via payload walk),
 * for various graph sizes.
 */
class GcGraphProperty : public ::testing::TestWithParam<int>
{};

TEST_P(GcGraphProperty, ReachableGraphSurvivesExactly)
{
    Program program;
    vm::Klass node;
    node.name = "Node";
    node.fields = {"a", "b", "val"};
    KlassId node_k = program.addKlass(node);
    Heap heap(program, 1 << 20, 1 << 20);
    SemiSpaceCollector gc(heap);

    const int n = GetParam();
    std::vector<Ref> nodes;
    for (int i = 0; i < n; ++i) {
        Ref r = heap.allocPlain(node_k);
        heap.setField(r, 2, Value::ofInt(i));
        nodes.push_back(r);
    }
    // Deterministic pseudo-random edges.
    for (int i = 0; i < n; ++i) {
        heap.setField(nodes[i], 0, Value::ofRef(nodes[(i * 7 + 3) % n]));
        heap.setField(nodes[i], 1,
                      Value::ofRef(nodes[(i * 13 + 1) % n]));
    }
    // Garbage interleaved.
    for (int i = 0; i < n; ++i)
        heap.allocPlain(node_k);

    Value root = Value::ofRef(nodes[0]);
    gc.addValueRoots([&](const auto &visit) { visit(root); });
    GcCycleStats stats = gc.collect();
    EXPECT_LE(stats.objects_copied, static_cast<uint64_t>(n));

    // Walk the copied graph: values and topology must match.
    std::set<Ref> visited;
    std::function<void(Ref, int)> check = [&](Ref r, int expect_val) {
        if (visited.count(r))
            return;
        visited.insert(r);
        EXPECT_EQ(heap.field(r, 2).asInt(), expect_val);
        int i = expect_val;
        check(heap.field(r, 0).asRef(), (i * 7 + 3) % n);
        check(heap.field(r, 1).asRef(), (i * 13 + 1) % n);
    };
    check(root.asRef(), 0);
    EXPECT_EQ(visited.size(), stats.objects_copied);
}

INSTANTIATE_TEST_SUITE_P(GraphSizes, GcGraphProperty,
                         ::testing::Values(1, 2, 5, 17, 100, 500));

} // namespace
} // namespace beehive::gc
