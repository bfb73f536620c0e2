/**
 * @file
 * Unit tests for the HiveVM managed runtime: program metadata, heap,
 * code builder, and the steppable interpreter.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "gc/collector.h"
#include "vm/code_builder.h"
#include "vm/context.h"
#include "vm/heap.h"
#include "vm/interpreter.h"
#include "vm/natives.h"
#include "vm/profiler.h"
#include "vm/program.h"
#include "vm/value.h"

namespace beehive::vm {
namespace {

/** Fixture wiring a Program + registry + heap + context together. */
class VmTest : public ::testing::Test
{
  protected:
    VmTest()
    {
        Klass obj;
        obj.name = "Object";
        object_k = program.addKlass(obj);

        Klass bytes;
        bytes.name = "Bytes";
        bytes_k = program.addKlass(bytes);

        Klass arr;
        arr.name = "Array";
        array_k = program.addKlass(arr);

        Klass point;
        point.name = "Point";
        point.fields = {"x", "y"};
        point_k = program.addKlass(point);

        Klass counter;
        counter.name = "Counter";
        counter.fields = {"value"};
        counter.statics = {"instances"};
        counter_k = program.addKlass(counter);
    }

    /** Create a context after all klasses/methods are defined. */
    VmContext &
    makeContext(VmConfig config = {})
    {
        config.bytes_klass = bytes_k;
        config.array_klass = array_k;
        heap = std::make_unique<Heap>(program, 1 << 20, 1 << 20);
        ctx = std::make_unique<VmContext>(program, natives, *heap,
                                          config);
        ctx->loadAll();
        return *ctx;
    }

    /** Run a started interpreter to completion, resolving nothing. */
    Value
    runToCompletion(Interpreter &interp)
    {
        while (true) {
            Suspend s = interp.run();
            switch (s.kind) {
              case Suspend::Kind::Done:
                return s.result;
              case Suspend::Kind::Quantum:
                continue;
              default:
                ADD_FAILURE() << "unexpected suspend kind "
                              << static_cast<int>(s.kind);
                return Value::nil();
            }
        }
    }

    Value
    callMethod(MethodId m, std::vector<Value> args = {})
    {
        Interpreter interp(*ctx);
        interp.start(m, std::move(args));
        return runToCompletion(interp);
    }

    Program program;
    NativeRegistry natives;
    std::unique_ptr<Heap> heap;
    std::unique_ptr<VmContext> ctx;
    KlassId object_k, bytes_k, array_k, point_k, counter_k;
};

// ---------------------------------------------------------------------
// Program metadata
// ---------------------------------------------------------------------

TEST_F(VmTest, KlassLookupByName)
{
    EXPECT_EQ(program.findKlass("Point"), point_k);
    EXPECT_EQ(program.findKlass("Nope"), kNoKlass);
    EXPECT_EQ(program.klass(point_k).fields.size(), 2u);
}

TEST_F(VmTest, MethodLookupByQualifiedName)
{
    CodeBuilder b(program, point_k, "norm", 1);
    b.pushI(0).ret();
    MethodId id = b.build();
    EXPECT_EQ(program.findMethod("Point.norm"), id);
    EXPECT_EQ(program.findMethod("Point.nothere"), kNoMethod);
    EXPECT_EQ(program.method(id).owner, point_k);
}

TEST_F(VmTest, FieldCountIncludesInheritedFields)
{
    Klass sub;
    sub.name = "Point3";
    sub.super = point_k;
    sub.fields = {"z"};
    KlassId sub_k = program.addKlass(sub);
    EXPECT_EQ(program.fieldCount(sub_k), 3u);
    EXPECT_EQ(program.fieldCount(point_k), 2u);
}

TEST_F(VmTest, VirtualResolutionWalksSuperChain)
{
    CodeBuilder base(program, point_k, "describe", 1);
    base.pushI(1).ret();
    MethodId base_m = base.build();

    Klass sub;
    sub.name = "FancyPoint";
    sub.super = point_k;
    KlassId sub_k = program.addKlass(sub);

    NameId name = program.internName("describe");
    EXPECT_EQ(program.resolveVirtual(sub_k, name), base_m);

    CodeBuilder over(program, sub_k, "describe", 1);
    over.pushI(2).ret();
    MethodId over_m = over.build();
    EXPECT_EQ(program.resolveVirtual(sub_k, name), over_m);
    EXPECT_EQ(program.resolveVirtual(point_k, name), base_m);
}

TEST_F(VmTest, AnnotationQueries)
{
    CodeBuilder b(program, point_k, "handler", 0);
    b.annotate("RequestMapping").pushI(0).ret();
    MethodId id = b.build();
    EXPECT_TRUE(program.method(id).hasAnnotation("RequestMapping"));
    EXPECT_FALSE(program.method(id).hasAnnotation("Autowired"));
    auto found = program.methodsWithAnnotation("RequestMapping");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0], id);
}

TEST_F(VmTest, StringInterningDeduplicates)
{
    uint32_t a = program.internString("hello");
    uint32_t b = program.internString("hello");
    uint32_t c = program.internString("world");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(program.stringAt(c), "world");
}

// ---------------------------------------------------------------------
// Reference encoding
// ---------------------------------------------------------------------

TEST(RefEncoding, RoundTripsSpaceAndOffset)
{
    Ref r = makeRef(2, 0x12345);
    EXPECT_EQ(refSpace(r), 2);
    EXPECT_EQ(refOffset(r), 0x12345u);
    EXPECT_FALSE(isRemote(r));
}

TEST(RefEncoding, RemoteBitIsMsb)
{
    Ref r = makeRef(1, 64);
    Ref remote = markRemote(r);
    EXPECT_TRUE(isRemote(remote));
    EXPECT_EQ(stripRemote(remote), r);
    EXPECT_EQ(refSpace(remote), 1);
    EXPECT_EQ(refOffset(remote), 64u);
}

TEST(ValueTest, TaggedAccessorsRoundTrip)
{
    EXPECT_EQ(Value::ofInt(-7).asInt(), -7);
    EXPECT_DOUBLE_EQ(Value::ofFloat(2.5).asFloat(), 2.5);
    EXPECT_EQ(Value::ofRef(makeRef(1, 8)).asRef(), makeRef(1, 8));
    EXPECT_TRUE(Value::nil().isNil());
}

TEST(ValueTest, Truthiness)
{
    EXPECT_FALSE(Value::nil().truthy());
    EXPECT_FALSE(Value::ofInt(0).truthy());
    EXPECT_TRUE(Value::ofInt(1).truthy());
    EXPECT_FALSE(Value::ofFloat(0.0).truthy());
    EXPECT_TRUE(Value::ofFloat(0.5).truthy());
    EXPECT_FALSE(Value::ofRef(kNullRef).truthy());
    EXPECT_TRUE(Value::ofRef(makeRef(1, 8)).truthy());
}

// ---------------------------------------------------------------------
// Heap
// ---------------------------------------------------------------------

TEST_F(VmTest, AllocPlainInitialisesFieldsToNil)
{
    makeContext();
    Ref r = heap->allocPlain(point_k);
    ASSERT_NE(r, kNullRef);
    EXPECT_EQ(heap->header(r).count, 2u);
    EXPECT_TRUE(heap->field(r, 0).isNil());
    EXPECT_TRUE(heap->field(r, 1).isNil());
}

TEST_F(VmTest, FieldStoreAndLoad)
{
    makeContext();
    Ref r = heap->allocPlain(point_k);
    heap->setField(r, 0, Value::ofInt(11));
    heap->setField(r, 1, Value::ofFloat(0.5));
    EXPECT_EQ(heap->field(r, 0).asInt(), 11);
    EXPECT_DOUBLE_EQ(heap->field(r, 1).asFloat(), 0.5);
}

TEST_F(VmTest, ArraysHoldTaggedSlots)
{
    makeContext();
    Ref arr = heap->allocArray(array_k, 5);
    EXPECT_EQ(heap->count(arr), 5u);
    heap->setElem(arr, 4, Value::ofInt(99));
    EXPECT_EQ(heap->elem(arr, 4).asInt(), 99);
    EXPECT_TRUE(heap->elem(arr, 0).isNil());
}

TEST_F(VmTest, BytesObjectsStorePayload)
{
    makeContext();
    Ref b = heap->allocBytes(bytes_k, "beehive");
    EXPECT_EQ(heap->bytes(b), "beehive");
    EXPECT_EQ(heap->count(b), 7u);
}

TEST_F(VmTest, ClosureSpaceAllocationsLandInSpaceZero)
{
    makeContext();
    Ref c = heap->allocPlain(point_k, /*in_closure=*/true);
    Ref a = heap->allocPlain(point_k, /*in_closure=*/false);
    EXPECT_EQ(refSpace(c), Heap::kClosureSpaceId);
    EXPECT_EQ(refSpace(a), heap->allocSpaceId());
}

TEST_F(VmTest, AllocationFailsGracefullyWhenSpaceExhausted)
{
    makeContext();
    Heap tiny(program, 4096, 256);
    Ref first = tiny.allocPlain(point_k);
    EXPECT_NE(first, kNullRef);
    // Exhaust the 256-byte semispace.
    Ref r = first;
    int allocated = 1;
    while ((r = tiny.allocPlain(point_k)) != kNullRef)
        ++allocated;
    EXPECT_GE(allocated, 1);
    EXPECT_EQ(r, kNullRef);
}

TEST_F(VmTest, CardMarkedOnClosureToAllocStore)
{
    makeContext();
    Ref closure_obj = heap->allocPlain(point_k, true);
    Ref young = heap->allocPlain(point_k, false);
    EXPECT_EQ(heap->cards().dirtyCount(), 0u);
    heap->setField(closure_obj, 0, Value::ofRef(young));
    EXPECT_EQ(heap->cards().dirtyCount(), 1u);
}

TEST_F(VmTest, CardNotMarkedForClosureInternalStores)
{
    makeContext();
    Ref a = heap->allocPlain(point_k, true);
    Ref b = heap->allocPlain(point_k, true);
    heap->setField(a, 0, Value::ofRef(b));
    heap->setField(a, 1, Value::ofInt(3));
    EXPECT_EQ(heap->cards().dirtyCount(), 0u);
}

TEST_F(VmTest, WriteObserverFiresOnEveryStore)
{
    makeContext();
    int fires = 0;
    heap->setWriteObserver([&](Ref) { ++fires; });
    Ref r = heap->allocPlain(point_k);
    heap->setField(r, 0, Value::ofInt(1));
    heap->setField(r, 1, Value::ofInt(2));
    EXPECT_EQ(fires, 2);
}

TEST_F(VmTest, ForEachObjectWalksAllocationOrder)
{
    // Only the closure space is walkable: an allocation space may
    // hold the headerless holes of dead-on-arrival objects.
    makeContext();
    Ref a = heap->allocPlain(point_k, true);
    Ref b = heap->allocArray(array_k, 3, true);
    Ref c = heap->allocBytes(bytes_k, "xy", true);
    std::vector<Ref> seen;
    heap->forEachClosureObject([&](Ref r) { seen.push_back(r); });
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], a);
    EXPECT_EQ(seen[1], b);
    EXPECT_EQ(seen[2], c);
}

TEST_F(VmTest, HeapStatsTrackAllocations)
{
    makeContext();
    heap->allocPlain(point_k);
    heap->allocBytes(bytes_k, "0123456789");
    EXPECT_EQ(heap->stats().objects_allocated, 2u);
    EXPECT_GT(heap->stats().bytes_allocated, 0u);
    EXPECT_GE(heap->stats().peak_used, heap->usedBytes() - 16);
}

// ---------------------------------------------------------------------
// Interpreter: arithmetic and control flow
// ---------------------------------------------------------------------

TEST_F(VmTest, ArithmeticOnInts)
{
    CodeBuilder b(program, object_k, "calc", 0);
    // (7 + 3) * 2 - 5 = 15
    b.pushI(7).pushI(3).add().pushI(2).mul().pushI(5).sub().ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m).asInt(), 15);
}

TEST_F(VmTest, DivModSemantics)
{
    CodeBuilder b(program, object_k, "divmod", 2);
    b.load(0).load(1).div().load(0).load(1).mod().add().ret();
    MethodId m = b.build();
    makeContext();
    // 17/5 + 17%5 = 3 + 2 = 5
    EXPECT_EQ(callMethod(m, {Value::ofInt(17), Value::ofInt(5)}).asInt(),
              5);
    // Division by zero yields 0 by definition.
    EXPECT_EQ(callMethod(m, {Value::ofInt(17), Value::ofInt(0)}).asInt(),
              0);
}

TEST_F(VmTest, FloatPromotion)
{
    CodeBuilder b(program, object_k, "favg", 0);
    b.pushI(1).pushF(2.0).add().pushF(2.0).div().ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_DOUBLE_EQ(callMethod(m).asFloat(), 1.5);
}

TEST_F(VmTest, ComparisonsAndLogic)
{
    CodeBuilder b(program, object_k, "logic", 0);
    // (3 < 5) && !(2 >= 4)  -> 1
    b.pushI(3).pushI(5).cmpLt()
     .pushI(2).pushI(4).cmpGe().logNot()
     .logAnd().ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m).asInt(), 1);
}

TEST_F(VmTest, LoopComputesSum)
{
    // sum 1..n via a loop.
    CodeBuilder b(program, object_k, "sum", 1);
    b.locals(1);
    auto loop = b.newLabel(), done = b.newLabel();
    b.pushI(0).store(1)
     .bind(loop)
     .load(0).pushI(0).cmpLe().jnz(done)
     .load(1).load(0).add().store(1)
     .load(0).pushI(1).sub().store(0)
     .jmp(loop)
     .bind(done)
     .load(1).ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m, {Value::ofInt(100)}).asInt(), 5050);
}

TEST_F(VmTest, StackManipulationOps)
{
    CodeBuilder b(program, object_k, "stackops", 0);
    // push 1,2; swap -> 2,1; dup -> 2,1,1; add -> 2,2; sub -> 0
    b.pushI(1).pushI(2).swap().dup().add().sub().ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m).asInt(), 0);
}

// ---------------------------------------------------------------------
// Interpreter: objects, fields, arrays, statics
// ---------------------------------------------------------------------

TEST_F(VmTest, ObjectCreateSetGet)
{
    CodeBuilder b(program, object_k, "mkpoint", 0);
    b.locals(1);
    b.newObj(point_k).store(0)
     .load(0).pushI(4).putField(0)
     .load(0).pushI(38).putField(1)
     .load(0).getField(0)
     .load(0).getField(1)
     .add().ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m).asInt(), 42);
}

TEST_F(VmTest, ArrayFillAndSum)
{
    CodeBuilder b(program, object_k, "arrsum", 1);
    b.locals(3); // arr, i, acc
    auto fill = b.newLabel(), fdone = b.newLabel();
    auto sum = b.newLabel(), sdone = b.newLabel();
    b.load(0).newArr(array_k).store(1)
     .pushI(0).store(2);
    // locals: 0=n,1=arr,2=i,3=acc
    b.bind(fill)
     .load(2).load(0).cmpGe().jnz(fdone)
     .load(1).load(2).load(2).astore() // arr[i] = i
     .load(2).pushI(1).add().store(2)
     .jmp(fill)
     .bind(fdone)
     .pushI(0).store(2).pushI(0).store(3)
     .bind(sum)
     .load(2).load(0).cmpGe().jnz(sdone)
     .load(3).load(1).load(2).aload().add().store(3)
     .load(2).pushI(1).add().store(2)
     .jmp(sum)
     .bind(sdone)
     .load(3).ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m, {Value::ofInt(10)}).asInt(), 45);
}

TEST_F(VmTest, ArrLenAndBytesLen)
{
    CodeBuilder b(program, object_k, "lens", 0);
    b.pushI(7).newArr(array_k).arrLen()
     .pushStr("abcde").bytesLen().add().ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m).asInt(), 12);
}

TEST_F(VmTest, StaticsPersistAcrossInvocations)
{
    CodeBuilder b(program, counter_k, "bump", 0);
    b.getStatic(counter_k, 0).pushI(1).add()
     .dup().putStatic(counter_k, 0).ret();
    MethodId m = b.build();
    makeContext();
    ctx->setStatic(counter_k, 0, Value::ofInt(0));
    EXPECT_EQ(callMethod(m).asInt(), 1);
    EXPECT_EQ(callMethod(m).asInt(), 2);
    EXPECT_EQ(ctx->getStatic(counter_k, 0).asInt(), 2);
}

// ---------------------------------------------------------------------
// Interpreter: calls
// ---------------------------------------------------------------------

TEST_F(VmTest, StaticCallPassesArgsAndReturns)
{
    CodeBuilder callee(program, object_k, "mul3", 1);
    callee.load(0).pushI(3).mul().ret();
    MethodId mul3 = callee.build();

    CodeBuilder caller(program, object_k, "callsite", 1);
    caller.load(0).call(mul3).pushI(1).add().ret();
    MethodId m = caller.build();
    makeContext();
    EXPECT_EQ(callMethod(m, {Value::ofInt(5)}).asInt(), 16);
}

TEST_F(VmTest, RecursionWorks)
{
    // fib(n)
    CodeBuilder b(program, object_k, "fib", 1);
    auto base = b.newLabel();
    b.load(0).pushI(2).cmpLt().jnz(base)
     .load(0).pushI(1).sub().callSelf()
     .load(0).pushI(2).sub().callSelf()
     .add().ret()
     .bind(base)
     .load(0).ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m, {Value::ofInt(10)}).asInt(), 55);
}

TEST_F(VmTest, VirtualDispatchSelectsOverride)
{
    CodeBuilder base(program, point_k, "tag", 1);
    base.pushI(100).ret();
    base.build();

    Klass sub;
    sub.name = "SubPoint";
    sub.super = point_k;
    KlassId sub_k = program.addKlass(sub);
    CodeBuilder over(program, sub_k, "tag", 1);
    over.pushI(200).ret();
    over.build();

    CodeBuilder driver(program, object_k, "dispatch", 0);
    driver.newObj(sub_k).callVirt("tag", 1)
          .newObj(point_k).callVirt("tag", 1)
          .add().ret();
    MethodId m = driver.build();
    makeContext();
    EXPECT_EQ(callMethod(m).asInt(), 300);
}

TEST_F(VmTest, DeepInterceptorChainExecutes)
{
    // Model a Spring-style chain: each interceptor wraps the next.
    MethodId inner;
    {
        CodeBuilder b(program, object_k, "business", 1);
        b.load(0).pushI(2).mul().ret();
        inner = b.build();
    }
    MethodId current = inner;
    for (int i = 0; i < 20; ++i) {
        CodeBuilder b(program, object_k,
                      "intercept" + std::to_string(i), 1);
        b.load(0).call(current).ret();
        current = b.build();
    }
    makeContext();
    EXPECT_EQ(callMethod(current, {Value::ofInt(21)}).asInt(), 42);
    // 20 interceptors + business method + ... frames all returned.
}

// ---------------------------------------------------------------------
// Interpreter: natives
// ---------------------------------------------------------------------

TEST_F(VmTest, NativeRunsLocallyAndReturns)
{
    uint32_t nid = natives.add(
        "Math.abs", NativeCategory::PureOnHeap,
        [](VmContext &, std::span<const Value> args) {
            NativeResult r;
            r.ret = Value::ofInt(std::abs(args[0].asInt()));
            r.cost_ns = 10;
            return r;
        });
    Method native;
    native.name = "abs";
    native.num_args = 1;
    native.is_native = true;
    native.native_id = nid;
    native.native_category = NativeCategory::PureOnHeap;
    MethodId abs_m = program.addMethod(object_k, native);

    CodeBuilder b(program, object_k, "useabs", 0);
    b.pushI(-5).call(abs_m).ret();
    MethodId m = b.build();
    makeContext();
    EXPECT_EQ(callMethod(m).asInt(), 5);
    EXPECT_EQ(ctx->nativeCount(NativeCategory::PureOnHeap), 1u);
}

TEST_F(VmTest, NativeExternalSuspendsAndResumes)
{
    uint32_t nid = natives.add(
        "Socket.read0", NativeCategory::Network,
        [](VmContext &, std::span<const Value> args) {
            NativeResult r;
            r.external = std::any(args[0].asInt());
            return r;
        });
    Method native;
    native.name = "read0";
    native.num_args = 1;
    native.is_native = true;
    native.native_id = nid;
    MethodId read_m = program.addMethod(object_k, native);

    CodeBuilder b(program, object_k, "io", 0);
    b.pushI(7).call(read_m).pushI(1).add().ret();
    MethodId m = b.build();
    makeContext();

    Interpreter interp(*ctx);
    interp.start(m, {});
    Suspend s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::External);
    EXPECT_EQ(std::any_cast<int64_t>(s.external), 7);
    // Driver completes the "I/O" and doubles the payload.
    interp.resumeExternal(Value::ofInt(14));
    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    EXPECT_EQ(s.result.asInt(), 15);
}

TEST_F(VmTest, NativeFallbackSuspendsAndRetries)
{
    uint32_t nid = natives.add(
        "Method.invoke0", NativeCategory::HiddenState,
        [](VmContext &, std::span<const Value> args) {
            NativeResult r;
            r.ret = Value::ofInt(args[0].asInt() * 10);
            return r;
        });
    Method native;
    native.name = "invoke0";
    native.num_args = 1;
    native.is_native = true;
    native.native_id = nid;
    MethodId m_native = program.addMethod(object_k, native);

    CodeBuilder b(program, object_k, "reflect", 0);
    b.pushI(4).call(m_native).ret();
    MethodId m = b.build();
    makeContext();
    // Policy: all hidden-state natives fall back on this endpoint.
    ctx->setNativePolicy(
        [](const NativeMethod &n, std::span<const Value>) {
            return n.category == NativeCategory::HiddenState
                       ? NativeDisposition::Fallback
                       : NativeDisposition::RunLocal;
        });

    Interpreter interp(*ctx);
    interp.start(m, {});
    Suspend s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::NativeFallback);
    EXPECT_EQ(s.native_id, nid);
    // Driver performs the server round trip, then forces local run.
    ctx->forceNextNativeLocal();
    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    EXPECT_EQ(s.result.asInt(), 40);
}

// ---------------------------------------------------------------------
// Interpreter: faults and suspensions
// ---------------------------------------------------------------------

TEST_F(VmTest, ClassFaultOnUnloadedKlassAndRetry)
{
    CodeBuilder b(program, object_k, "mk", 0);
    b.newObj(point_k).getField(0).ret();
    MethodId m = b.build();
    makeContext();

    // Fresh context with only Object loaded.
    VmConfig cfg;
    cfg.bytes_klass = bytes_k;
    Heap heap2(program, 1 << 20, 1 << 20);
    VmContext faas(program, natives, heap2, cfg);
    faas.loadKlass(object_k);

    Interpreter interp(faas);
    interp.start(m, {});
    Suspend s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::ClassFault);
    EXPECT_EQ(s.klass, point_k);
    // Driver fetches the class file and installs it.
    faas.loadKlass(point_k);
    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    EXPECT_TRUE(s.result.isNil());
}

TEST_F(VmTest, QuantumSuspendAndCostAccounting)
{
    CodeBuilder b(program, object_k, "heavy", 0);
    b.compute(1000000).compute(1000000).pushI(1).ret();
    MethodId m = b.build();
    VmConfig cfg;
    cfg.quantum_ns = 500000; // 0.5 ms
    cfg.jit_threshold = 0;   // no warmup for exact cost math
    makeContext(cfg);

    Interpreter interp(*ctx);
    interp.start(m, {});
    double total = 0.0;
    int quanta = 0;
    while (true) {
        Suspend s = interp.run();
        total += interp.consumeCost();
        if (s.kind == Suspend::Kind::Done)
            break;
        ASSERT_EQ(s.kind, Suspend::Kind::Quantum);
        ++quanta;
    }
    EXPECT_GE(quanta, 2);
    EXPECT_NEAR(total, 2000000.0, 50000.0);
}

TEST_F(VmTest, HeapFullSuspendOnAllocation)
{
    CodeBuilder b(program, object_k, "churn", 0);
    auto loop = b.newLabel();
    b.bind(loop).newObj(point_k).popv().jmp(loop);
    MethodId m = b.build();
    makeContext();

    Heap tiny(program, 4096, 2048);
    VmConfig cfg;
    cfg.bytes_klass = bytes_k;
    VmContext small(program, natives, tiny, cfg);
    small.loadAll();
    Interpreter interp(small);
    interp.start(m, {});
    while (true) {
        Suspend s = interp.run();
        if (s.kind == Suspend::Kind::HeapFull)
            break;
        ASSERT_EQ(s.kind, Suspend::Kind::Quantum);
    }
    SUCCEED();
}

// ---------------------------------------------------------------------
// Dead-on-arrival allocations
// ---------------------------------------------------------------------

/** Everything a run of an allocating method leaves for comparison. */
struct AllocRun
{
    Value result;
    KlassId result_klass = kNoKlass;
    Value result_field;
    HeapStats heap;
    std::size_t used = 0;
    InterpStats interp;
    double cost = 0.0;
    std::vector<gc::GcCycleStats> cycles;
    /** Quantum suspensions between an allocation and its Pop. */
    int suspended_at_pop = 0;
};

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * Loop @p n times over the two dead-on-arrival idioms of the apps
 * (`pushI(128) newArr popv`, `newObj popv`) next to one live
 * allocation kept in a local; return the last live Point, whose
 * field 0 holds the last index.
 */
MethodId
buildChurn(Program &program, KlassId owner, KlassId array_k,
           KlassId point_k)
{
    CodeBuilder b(program, owner, "churnDead", 1);
    b.locals(2); // 0 = n, 1 = i, 2 = live point
    auto loop = b.newLabel(), done = b.newLabel();
    b.pushI(0).store(1)
     .bind(loop)
     .load(1).load(0).cmpGe().jnz(done)
     .pushI(128).newArr(array_k).popv()
     .newObj(point_k).popv()
     .newObj(point_k).store(2)
     .load(2).load(1).putField(0)
     .load(1).pushI(1).add().store(1)
     .jmp(loop)
     .bind(done)
     .load(2).ret();
    return b.build();
}

TEST_F(VmTest, DeadOnArrivalAllocationsKeepEveryAccount)
{
    MethodId m = buildChurn(program, object_k, array_k, point_k);

    // Run on a fresh 64 KB-semispace heap, collecting on every
    // HeapFull and once at the end. consumeCost() is taken only at
    // the end, so runs that charge the same doubles in the same
    // order report the same bits whatever their quanta.
    auto run = [&](double quantum_ns) {
        VmConfig cfg;
        cfg.quantum_ns = quantum_ns;
        cfg.bytes_klass = bytes_k;
        cfg.array_klass = array_k;
        Heap h(program, 1 << 16, 1 << 16);
        VmContext c(program, natives, h, cfg);
        c.loadAll();
        Interpreter interp(c);
        gc::SemiSpaceCollector gc(h);
        AllocRun out;
        gc.addValueRoots([&](const auto &visit) {
            interp.forEachRoot(visit);
            visit(out.result);
        });
        interp.start(m, {Value::ofInt(300)});
        while (true) {
            Suspend s = interp.run();
            if (s.kind == Suspend::Kind::Done) {
                out.result = s.result;
                break;
            }
            if (s.kind == Suspend::Kind::HeapFull) {
                out.cycles.push_back(gc.collect());
                continue;
            }
            EXPECT_EQ(s.kind, Suspend::Kind::Quantum);
            if (s.kind != Suspend::Kind::Quantum)
                break;
            // Suspended between an allocation and its Pop: the
            // object must be real, since a collection could run now.
            std::vector<Frame> frames = interp.snapshotFrames();
            const Frame &top = frames.back();
            if (program.method(top.method).code[top.pc].op == Op::Pop &&
                top.pc > 0) {
                Op prev = program.method(top.method).code[top.pc - 1].op;
                if (prev == Op::New || prev == Op::NewArr) {
                    EXPECT_TRUE(top.stack.back().isRef());
                    ++out.suspended_at_pop;
                }
            }
        }
        out.cost = interp.consumeCost();
        out.heap = h.stats();
        out.used = h.usedBytes();
        out.interp = interp.stats();
        out.cycles.push_back(gc.collect());
        if (out.result.isRef()) {
            out.result_klass = h.header(out.result.asRef()).klass;
            out.result_field = h.field(out.result.asRef(), 0);
        }
        return out;
    };

    // No quantum ever fires: every `newArr popv` and `newObj popv` is
    // elided. At 1e-3 ns every instruction ends a quantum, so every
    // object is materialised.
    const AllocRun elided = run(1e15);
    const AllocRun full = run(1e-3);

    for (const AllocRun *r : {&elided, &full}) {
        ASSERT_TRUE(r->result.isRef());
        EXPECT_EQ(r->result_klass, point_k);
        EXPECT_EQ(r->result_field, Value::ofInt(299));
    }
    EXPECT_GE(full.interp.instructions, 300u * 17);
    // Every dead idiom was cut by a quantum in the materialised run.
    EXPECT_EQ(elided.suspended_at_pop, 0);
    EXPECT_EQ(full.suspended_at_pop, 2 * 300);
    EXPECT_EQ(elided.heap.objects_allocated, full.heap.objects_allocated);
    EXPECT_GE(elided.heap.objects_allocated, 900u); // + GC copies
    EXPECT_EQ(elided.heap.bytes_allocated, full.heap.bytes_allocated);
    EXPECT_EQ(elided.heap.peak_used, full.heap.peak_used);
    EXPECT_EQ(elided.used, full.used);
    EXPECT_EQ(elided.interp.instructions, full.interp.instructions);
    EXPECT_EQ(elided.interp.calls, full.interp.calls);
    EXPECT_EQ(elided.interp.native_calls, full.interp.native_calls);
    EXPECT_TRUE(sameBits(elided.cost, full.cost))
        << elided.cost << " vs " << full.cost;
    // A 64 KB semispace holds ~58 iterations: several collections,
    // each copying the one live Point.
    ASSERT_GE(full.cycles.size(), 4u);
    ASSERT_EQ(elided.cycles.size(), full.cycles.size());
    for (std::size_t i = 0; i < full.cycles.size(); ++i) {
        const gc::GcCycleStats &a = elided.cycles[i];
        const gc::GcCycleStats &b = full.cycles[i];
        EXPECT_EQ(a.objects_copied, b.objects_copied) << "cycle " << i;
        EXPECT_EQ(a.objects_copied, 1u) << "cycle " << i;
        EXPECT_EQ(a.bytes_copied, b.bytes_copied) << "cycle " << i;
        EXPECT_EQ(a.roots_visited, b.roots_visited) << "cycle " << i;
        EXPECT_EQ(a.cards_scanned, b.cards_scanned) << "cycle " << i;
        EXPECT_EQ(a.bytes_freed, b.bytes_freed) << "cycle " << i;
        EXPECT_EQ(a.pause.ns(), b.pause.ns()) << "cycle " << i;
    }
}

TEST_F(VmTest, QuantumAfterNewArrMaterialisesTheArray)
{
    // The array is popped by the next instruction, but the quantum
    // expires in between: the suspended frame holds a real array,
    // which must be nil-filled and survive a collection as a root.
    CodeBuilder b(program, object_k, "scanBuffer", 0);
    b.pushI(128).newArr(array_k).popv().pushI(7).ret();
    MethodId m = b.build();
    VmConfig cfg;
    cfg.quantum_ns = 1e-3;
    makeContext(cfg);
    Interpreter interp(*ctx);
    gc::SemiSpaceCollector gc(*heap);
    gc.addValueRoots(
        [&](const auto &visit) { interp.forEachRoot(visit); });
    interp.start(m, {});
    ASSERT_EQ(interp.run().kind, Suspend::Kind::Quantum); // PushI
    ASSERT_EQ(interp.run().kind, Suspend::Kind::Quantum); // NewArr

    auto topOfStack = [&] {
        std::vector<Frame> frames = interp.snapshotFrames();
        EXPECT_EQ(frames.size(), 1u);
        EXPECT_EQ(frames.back().pc, 2u);
        EXPECT_EQ(frames.back().stack.size(), 1u);
        return frames.back().stack.empty() ? Value::nil()
                                           : frames.back().stack[0];
    };
    auto expectNilArray = [&](Ref arr) {
        EXPECT_EQ(heap->header(arr).klass, array_k);
        EXPECT_EQ(heap->header(arr).kind, ObjKind::Array);
        ASSERT_EQ(heap->count(arr), 128u);
        for (uint32_t i = 0; i < 128; ++i)
            EXPECT_TRUE(heap->elem(arr, i).isNil()) << i;
    };

    Value before = topOfStack();
    ASSERT_TRUE(before.isRef());
    expectNilArray(before.asRef());
    const uint8_t from = heap->allocSpaceId();
    EXPECT_EQ(refSpace(before.asRef()), from);

    gc::GcCycleStats st = gc.collect();
    EXPECT_EQ(st.objects_copied, 1u);
    EXPECT_EQ(st.bytes_copied, sizeof(ObjHeader) + 128 * sizeof(Value));
    Value after = topOfStack();
    ASSERT_TRUE(after.isRef());
    EXPECT_NE(refSpace(after.asRef()), from);
    expectNilArray(after.asRef());

    EXPECT_EQ(runToCompletion(interp).asInt(), 7);
}

TEST_F(VmTest, RemoteRefLoadFaultsAndMapResolves)
{
    CodeBuilder b(program, object_k, "touch", 1);
    b.load(0).getField(0).ret();
    MethodId m = b.build();
    makeContext();

    VmConfig cfg;
    cfg.bytes_klass = bytes_k;
    cfg.check_remote_refs = true;
    cfg.endpoint = 1;
    Heap faas_heap(program, 1 << 20, 1 << 20);
    VmContext faas(program, natives, faas_heap, cfg);
    faas.loadAll();

    // A closure object whose field 0 is a remote reference.
    Ref local = faas_heap.allocPlain(point_k, true);
    Ref remote_addr = markRemote(makeRef(1, 0x400));
    faas_heap.setField(local, 0, Value::ofRef(remote_addr));

    Interpreter interp(faas);
    interp.start(m, {Value::ofRef(local)});
    Suspend s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::ObjectFault);
    EXPECT_EQ(s.remote_ref, remote_addr);

    // Driver fetches the object into the closure space and maps it.
    Ref fetched = faas_heap.allocPlain(point_k, true);
    faas_heap.setField(fetched, 0, Value::ofInt(123));
    faas.mapRemote(remote_addr, fetched);

    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    // The loaded ref was rewritten; result is field 0 of the fetch.
    // (touch returns obj.field0 which is the remote object itself;
    // the Done result is the fetched ref.)
    EXPECT_EQ(s.result.asRef(), fetched);
    // The remote bit was reset in the containing field.
    EXPECT_EQ(faas_heap.field(local, 0).asRef(), fetched);
    EXPECT_EQ(interp.stats().remote_hits, 1u);
}

TEST_F(VmTest, RemoteRefInLocalSlotFaultsOnLoad)
{
    CodeBuilder b(program, object_k, "uselocal", 1);
    b.load(0).getField(1).ret();
    MethodId m = b.build();
    makeContext();

    VmConfig cfg;
    cfg.bytes_klass = bytes_k;
    cfg.check_remote_refs = true;
    Heap faas_heap(program, 1 << 20, 1 << 20);
    VmContext faas(program, natives, faas_heap, cfg);
    faas.loadAll();

    Ref remote_addr = markRemote(makeRef(1, 0x800));
    Interpreter interp(faas);
    interp.start(m, {Value::ofRef(remote_addr)});
    Suspend s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::ObjectFault);

    Ref fetched = faas_heap.allocPlain(point_k, true);
    faas_heap.setField(fetched, 1, Value::ofInt(7));
    faas.mapRemote(remote_addr, fetched);
    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    EXPECT_EQ(s.result.asInt(), 7);
}

TEST_F(VmTest, ServerSideSkipsRemoteChecks)
{
    // With check_remote_refs=false (server), loads do not inspect
    // the remote bit ("checks are only added on the FaaS side").
    CodeBuilder b(program, object_k, "carry", 1);
    b.load(0).ret();
    MethodId m = b.build();
    makeContext(); // default config: server

    Ref weird = markRemote(makeRef(1, 0x123));
    Value out = callMethod(m, {Value::ofRef(weird)});
    EXPECT_EQ(out.asRef(), weird);
}

// ---------------------------------------------------------------------
// Interpreter: monitors
// ---------------------------------------------------------------------

TEST_F(VmTest, MonitorEnterSetsOwner)
{
    CodeBuilder b(program, object_k, "locked", 1);
    b.load(0).monitorEnter()
     .load(0).getField(0)
     .load(0).monitorExit()
     .ret();
    MethodId m = b.build();
    VmConfig cfg;
    cfg.endpoint = 3;
    makeContext(cfg);
    Ref obj = heap->allocPlain(point_k);
    heap->setField(obj, 0, Value::ofInt(5));
    EXPECT_EQ(callMethod(m, {Value::ofRef(obj)}).asInt(), 5);
    EXPECT_EQ(heap->header(obj).lock_owner, 4); // endpoint 3 + 1
}

TEST_F(VmTest, MonitorAcquireSuspendsWhenPolicySaysRemote)
{
    CodeBuilder b(program, object_k, "sync", 1);
    b.load(0).monitorEnter().pushI(1).ret();
    MethodId m = b.build();
    makeContext();

    bool asked = false;
    ctx->setMonitorPolicy([&](Ref) {
        if (asked)
            return false; // after the sync protocol ran
        asked = true;
        return true;
    });

    Ref obj = heap->allocPlain(point_k);
    Interpreter interp(*ctx);
    interp.start(m, {Value::ofRef(obj)});
    Suspend s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::MonitorAcquire);
    EXPECT_EQ(s.monitor_obj, Value::ofRef(obj).asRef());
    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
}

TEST_F(VmTest, MonitorReleaseHookFires)
{
    CodeBuilder b(program, object_k, "lockpair", 1);
    b.load(0).monitorEnter().load(0).monitorExit().pushI(0).ret();
    MethodId m = b.build();
    makeContext();
    int releases = 0;
    ctx->setMonitorReleaseHook([&](Ref) { ++releases; });
    Ref obj = heap->allocPlain(point_k);
    callMethod(m, {Value::ofRef(obj)});
    EXPECT_EQ(releases, 1);
}

TEST_F(VmTest, MonitorReentrantAcquisitionCompletes)
{
    // HiveVM monitors are unowned flags, not counters: nested
    // enter/exit on the same object must still balance and fire the
    // release hook once per exit.
    CodeBuilder b(program, object_k, "reentrant", 1);
    b.load(0).monitorEnter()
     .load(0).monitorEnter()
     .load(0).getField(0)
     .load(0).monitorExit()
     .load(0).monitorExit()
     .ret();
    MethodId m = b.build();
    makeContext();
    int releases = 0;
    ctx->setMonitorReleaseHook([&](Ref) { ++releases; });
    Ref obj = heap->allocPlain(point_k);
    heap->setField(obj, 0, Value::ofInt(11));
    EXPECT_EQ(callMethod(m, {Value::ofRef(obj)}).asInt(), 11);
    EXPECT_EQ(releases, 2);
    EXPECT_EQ(heap->header(obj).lock_owner, 1); // endpoint 0 + 1
}

TEST_F(VmTest, MonitorReleasesOnceAcrossRecoveryUnwind)
{
    // Failure recovery unwinds to a frame snapshot and re-executes
    // the critical section. The re-run takes the monitor again, and
    // exactly one release reaches the hook: the one of the granted
    // (surviving) execution.
    CodeBuilder b(program, object_k, "cs", 1);
    b.load(0).monitorEnter()
     .load(0).pushI(1).putField(0)
     .load(0).monitorExit()
     .pushI(7).ret();
    MethodId m = b.build();
    makeContext();

    int asked = 0;
    // Policy: enters run locally, exits demand the sync protocol.
    ctx->setMonitorPolicy([&](Ref) { return (++asked % 2) == 0; });
    int releases = 0;
    ctx->setMonitorReleaseHook([&](Ref) { ++releases; });

    Ref obj = heap->allocPlain(point_k);
    Interpreter interp(*ctx);
    interp.start(m, {Value::ofRef(obj)});
    std::vector<Frame> entry = interp.snapshotFrames();

    Suspend s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::MonitorRelease);
    EXPECT_EQ(releases, 0); // suspended exit released nothing

    // The instance dies mid-exit: unwind and re-execute.
    interp.restoreFrames(entry);
    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::MonitorRelease);
    interp.grantRelease();
    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    EXPECT_EQ(s.result.asInt(), 7);
    EXPECT_EQ(releases, 1);
    EXPECT_EQ(asked, 4); // enter/exit per execution
}

TEST_F(VmTest, MonitorOpsOnNullDie)
{
    CodeBuilder b(program, object_k, "null_lock", 1);
    b.load(0).monitorEnter().pushI(0).ret();
    MethodId m = b.build();
    makeContext();
    // A nil value is not a reference; a null reference is a null
    // dereference. Both are fatal before any monitor state changes.
    EXPECT_DEATH(callMethod(m, {Value::nil()}),
                 "expected a reference");
    EXPECT_DEATH(callMethod(m, {Value::ofRef(kNullRef)}),
                 "null dereference");
}

TEST_F(VmTest, MethodWithMoreArgsThanLocalsDies)
{
    // Hand-built, so the verifier never sees it: its arguments would
    // overrun the locals window into the operand stack.
    Method bad;
    bad.name = "bad_window";
    bad.num_args = 2;
    bad.num_locals = 1;
    bad.code = {{Op::PushI, 0, 0}, {Op::Ret, 0, 0}};
    MethodId m = program.addMethod(object_k, bad);
    makeContext();
    EXPECT_DEATH(callMethod(m, {Value::ofInt(1), Value::ofInt(2)}),
                 "assertion failed: m.num_args <= m.num_locals "
                 "bad_window: num_args 2 > num_locals 1");
}

TEST_F(VmTest, VolatileAccessPlainSemanticsWithoutPolicy)
{
    CodeBuilder b(program, object_k, "vol_rw", 1);
    b.load(0).pushI(9).putVolatile(0)
     .load(0).getVolatile(0).ret();
    MethodId m = b.build();
    makeContext();
    Ref obj = heap->allocPlain(point_k);
    EXPECT_EQ(callMethod(m, {Value::ofRef(obj)}).asInt(), 9);
    EXPECT_EQ(heap->field(obj, 0).asInt(), 9);
}

TEST_F(VmTest, VolatileAccessSuspendsWhenPolicyDemandsSync)
{
    CodeBuilder b(program, object_k, "vol_read", 1);
    b.load(0).getVolatile(1).ret();
    MethodId m = b.build();
    makeContext();

    int asked = 0;
    ctx->setMonitorPolicy([&](Ref) { return ++asked == 1; });
    Ref obj = heap->allocPlain(point_k);
    heap->setField(obj, 1, Value::ofInt(17));

    Interpreter interp(*ctx);
    interp.start(m, {Value::ofRef(obj)});
    Suspend s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::VolatileSync);
    EXPECT_EQ(s.monitor_obj, obj);
    EXPECT_FALSE(s.volatile_write);
    // Driver performs the data sync and grants the access.
    interp.grantVolatile(obj);
    s = interp.run();
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    EXPECT_EQ(s.result.asInt(), 17);
}

TEST_F(VmTest, VolatileWriteFiresReleaseHook)
{
    CodeBuilder b(program, object_k, "vol_write", 1);
    b.load(0).pushI(5).putVolatile(0).pushI(0).ret();
    MethodId m = b.build();
    makeContext();
    int releases = 0;
    ctx->setMonitorReleaseHook([&](Ref) { ++releases; });
    Ref obj = heap->allocPlain(point_k);
    callMethod(m, {Value::ofRef(obj)});
    EXPECT_EQ(releases, 1);
    EXPECT_EQ(heap->field(obj, 0).asInt(), 5);
}

// ---------------------------------------------------------------------
// Interpreter: snapshots (failure recovery substrate)
// ---------------------------------------------------------------------

TEST_F(VmTest, SnapshotRestoreReExecutesFromSamePoint)
{
    CodeBuilder b(program, object_k, "longcalc", 1);
    b.locals(1);
    auto loop = b.newLabel(), done = b.newLabel();
    b.pushI(0).store(1)
     .bind(loop)
     .load(0).pushI(0).cmpLe().jnz(done)
     .load(1).load(0).add().store(1)
     .load(0).pushI(1).sub().store(0)
     .compute(200000) // force quantum suspensions mid-loop
     .jmp(loop)
     .bind(done)
     .load(1).ret();
    MethodId m = b.build();
    VmConfig cfg;
    cfg.quantum_ns = 100000;
    makeContext(cfg);

    Interpreter interp(*ctx);
    interp.start(m, {Value::ofInt(50)});
    // Run a few quanta, snapshot mid-flight.
    for (int i = 0; i < 5; ++i)
        ASSERT_EQ(interp.run().kind, Suspend::Kind::Quantum);
    auto snap = interp.snapshotFrames();

    // Finish the original.
    Value v1 = runToCompletion(interp);

    // Restore into a fresh interpreter: same result.
    Interpreter clone(*ctx);
    clone.restoreFrames(snap);
    Value v2 = runToCompletion(clone);
    EXPECT_EQ(v1.asInt(), 1275);
    EXPECT_EQ(v2.asInt(), 1275);
}

// ---------------------------------------------------------------------
// Warmup model
// ---------------------------------------------------------------------

TEST_F(VmTest, WarmupMultiplierDecaysAfterThreshold)
{
    CodeBuilder b(program, object_k, "warm", 0);
    b.compute(1000).pushI(0).ret();
    MethodId m = b.build();
    VmConfig cfg;
    cfg.jit_threshold = 3;
    cfg.cold_multiplier = 10.0;
    makeContext(cfg);

    Interpreter interp(*ctx);
    double costs[6];
    for (int i = 0; i < 6; ++i) {
        interp.start(m, {});
        runToCompletion(interp);
        costs[i] = interp.consumeCost();
    }
    // First three invocations are ~10x the later ones.
    EXPECT_GT(costs[0], costs[5] * 5.0);
    EXPECT_NEAR(costs[0], costs[1], costs[0] * 0.01);
    EXPECT_NEAR(costs[4], costs[5], costs[5] * 0.01);
    EXPECT_EQ(ctx->invocations(m), 6u);
}

// ---------------------------------------------------------------------
// Recording (profiling substrate)
// ---------------------------------------------------------------------

TEST_F(VmTest, RecordingCapturesKlassAndStaticUse)
{
    CodeBuilder b(program, counter_k, "record_me", 0);
    b.newObj(point_k).popv()
     .getStatic(counter_k, 0).popv()
     .pushI(0).ret();
    MethodId m = b.build();
    makeContext();

    Interpreter interp(*ctx);
    interp.enableRecording(true);
    interp.start(m, {});
    runToCompletion(interp);

    EXPECT_TRUE(interp.recordedKlasses().count(point_k));
    EXPECT_TRUE(interp.recordedKlasses().count(counter_k));
    EXPECT_TRUE(interp.recordedStatics().count({counter_k, 0}));

    interp.clearRecording();
    EXPECT_TRUE(interp.recordedKlasses().empty());
}

// ---------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------

TEST_F(VmTest, ProfilerFiltersCandidatesByAnnotation)
{
    CodeBuilder a(program, object_k, "annotated", 0);
    a.annotate("RequestMapping").pushI(0).ret();
    MethodId am = a.build();
    CodeBuilder p(program, object_k, "plain", 0);
    p.pushI(0).ret();
    MethodId pm = p.build();

    Profiler prof(program);
    prof.addCandidateAnnotation("RequestMapping");
    EXPECT_TRUE(prof.isCandidate(am));
    EXPECT_FALSE(prof.isCandidate(pm));
}

TEST_F(VmTest, ProfilerSelectsByHeuristics)
{
    CodeBuilder hot(program, object_k, "hot", 0);
    hot.annotate("RequestMapping").pushI(0).ret();
    MethodId hot_m = hot.build();
    CodeBuilder cheap(program, object_k, "cheap", 0);
    cheap.annotate("RequestMapping").pushI(0).ret();
    MethodId cheap_m = cheap.build();
    CodeBuilder rare(program, object_k, "rare", 0);
    rare.annotate("RequestMapping").pushI(0).ret();
    MethodId rare_m = rare.build();

    Profiler prof(program);
    prof.addCandidateAnnotation("RequestMapping");
    // hot: 100 x 5ms. cheap: 10000 x 0.1ms (avg too short).
    // rare: 2 x 5ms (total too small).
    for (int i = 0; i < 100; ++i)
        prof.recordExecution(hot_m, 5e6, {}, {});
    for (int i = 0; i < 10000; ++i)
        prof.recordExecution(cheap_m, 1e5, {}, {});
    prof.recordExecution(rare_m, 5e6, {}, {});
    prof.recordExecution(rare_m, 5e6, {}, {});

    auto roots = prof.selectRoots(/*min_total=*/1e8, /*min_avg=*/1e6);
    ASSERT_EQ(roots.size(), 1u);
    EXPECT_EQ(roots[0], hot_m);

    const RootProfile *p = prof.profile(hot_m);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->invocations, 100u);
    EXPECT_DOUBLE_EQ(p->avgCostNs(), 5e6);
}

TEST_F(VmTest, SyncAwareSelectionRejectsChattyRoots)
{
    CodeBuilder calm(program, object_k, "calm", 0);
    calm.annotate("RequestMapping").pushI(0).ret();
    MethodId calm_m = calm.build();
    CodeBuilder chatty(program, object_k, "chatty", 0);
    chatty.annotate("RequestMapping").pushI(0).ret();
    MethodId chatty_m = chatty.build();

    Profiler prof(program);
    prof.addCandidateAnnotation("RequestMapping");
    for (int i = 0; i < 50; ++i) {
        prof.recordExecution(calm_m, 5e6, {}, {}, /*syncs=*/1);
        prof.recordExecution(chatty_m, 5e6, {}, {}, /*syncs=*/40);
    }
    // Both pass the basic heuristics...
    EXPECT_EQ(prof.selectRoots(1e8, 1e6).size(), 2u);
    // ...but the sync-aware policy (the paper's future-work
    // refinement) rejects the synchronization-heavy one.
    auto picked = prof.selectRootsSyncAware(1e8, 1e6,
                                            /*max_avg_syncs=*/10.0);
    ASSERT_EQ(picked.size(), 1u);
    EXPECT_EQ(picked[0], calm_m);
    EXPECT_DOUBLE_EQ(prof.profile(chatty_m)->avgSyncs(), 40.0);
}

TEST_F(VmTest, CandidateProfilingCountsMonitorEnters)
{
    // Handler (annotated) locks twice; the wrapper around it locks
    // once more OUTSIDE the candidate extent.
    CodeBuilder h(program, counter_k, "locker", 1);
    h.annotate("RequestMapping");
    h.load(0).monitorEnter().load(0).monitorExit()
     .load(0).monitorEnter().load(0).monitorExit()
     .pushI(0).ret();
    MethodId handler = h.build();
    CodeBuilder w(program, object_k, "locker_wrap", 1);
    w.load(0).monitorEnter().load(0).monitorExit()
     .load(0).call(handler).ret();
    MethodId wrapper = w.build();

    makeContext();
    Profiler prof(program);
    prof.addCandidateAnnotation("RequestMapping");
    ctx->setProfiler(&prof);

    Ref obj = heap->allocPlain(point_k);
    Interpreter interp(*ctx);
    interp.enableCandidateProfiling(true);
    interp.start(wrapper, {Value::ofRef(obj)});
    runToCompletion(interp);

    const RootProfile *p = prof.profile(handler);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->monitor_enters, 2u); // wrapper's lock excluded
}

TEST_F(VmTest, ProfilerMergesUsageSets)
{
    CodeBuilder c(program, object_k, "cand", 0);
    c.annotate("RequestMapping").pushI(0).ret();
    MethodId cm = c.build();

    Profiler prof(program);
    prof.addCandidateAnnotation("RequestMapping");
    prof.recordExecution(cm, 1e6, {point_k}, {{counter_k, 0}});
    prof.recordExecution(cm, 1e6, {counter_k}, {});
    const RootProfile *p = prof.profile(cm);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->klasses.size(), 2u);
    EXPECT_EQ(p->statics.size(), 1u);
}

// ---------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------

/** Property: sum(1..n) == n(n+1)/2 across a sweep of n. */
class SumProperty : public ::testing::TestWithParam<int64_t>
{};

TEST_P(SumProperty, LoopMatchesClosedForm)
{
    Program program;
    Klass obj;
    obj.name = "Object";
    KlassId object_k = program.addKlass(obj);
    CodeBuilder b(program, object_k, "sum", 1);
    b.locals(1);
    auto loop = b.newLabel(), done = b.newLabel();
    b.pushI(0).store(1)
     .bind(loop)
     .load(0).pushI(0).cmpLe().jnz(done)
     .load(1).load(0).add().store(1)
     .load(0).pushI(1).sub().store(0)
     .jmp(loop)
     .bind(done)
     .load(1).ret();
    MethodId m = b.build();

    NativeRegistry natives;
    Heap heap(program, 1 << 16, 1 << 16);
    VmContext ctx(program, natives, heap, VmConfig{});
    ctx.loadAll();
    Interpreter interp(ctx);
    interp.start(m, {Value::ofInt(GetParam())});
    Suspend s;
    do {
        s = interp.run();
    } while (s.kind == Suspend::Kind::Quantum);
    ASSERT_EQ(s.kind, Suspend::Kind::Done);
    int64_t n = GetParam();
    EXPECT_EQ(s.result.asInt(), n * (n + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SumProperty,
                         ::testing::Values(0, 1, 2, 7, 100, 999, 5000));

} // namespace
} // namespace beehive::vm
