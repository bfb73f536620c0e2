/**
 * @file
 * Randomized program fuzzing.
 *
 * A seeded generator emits random (but well-formed) bytecode that
 * mixes arithmetic, object allocation, field traffic, and object
 * graph rewiring. Two invariants are checked across many seeds:
 *
 *   1. Determinism: two fresh VMs produce identical results.
 *   2. GC transparency: a VM with a deliberately tiny allocation
 *      space -- forcing many copying collections mid-program --
 *      produces exactly the same result as one that never collects.
 *
 * A second generator emits *raw instruction streams* -- plausible
 * chunks spliced with outright garbage -- and uses the bytecode
 * verifier (strict typing) as a crash oracle:
 *
 *   3. Any program the verifier accepts runs in the interpreter
 *      without crashing (the interpreter's asserts abort the
 *      process, so a soundness hole fails the suite loudly).
 *      Rejected programs are never executed.
 *
 * A third family checks the interpreter's steppable contract:
 *
 *   5. Suspending at nearly every instruction and moving the frames
 *      into a fresh interpreter at each suspension (snapshotFrames()
 *      then restoreFrames()) changes nothing: same result, same
 *      summed InterpStats, a bit-identical total cost, and the same
 *      recorded klass/static/field-read sets, in the same order.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>

#include "apps/framework.h"
#include "fuzz_support.h"
#include "gc/collector.h"
#include "support/rng.h"
#include "vm/analysis.h"
#include "vm/code_builder.h"
#include "vm/context.h"
#include "vm/heap.h"
#include "vm/interpreter.h"
#include "vm/program.h"
#include "vm/verifier.h"

namespace beehive::vm {
namespace {

using fuzztest::generateProgram;

/** Run to completion on a heap of the given size; GC on demand. */
int64_t
execute(Program &program, MethodId entry, KlassId array_k,
        std::size_t alloc_bytes, uint64_t *gcs_out)
{
    NativeRegistry natives;
    Heap heap(program, 1 << 16, alloc_bytes);
    VmConfig cfg;
    cfg.array_klass = array_k;
    VmContext ctx(program, natives, heap, cfg);
    ctx.loadAll();
    gc::SemiSpaceCollector collector(heap);
    Interpreter interp(ctx);
    collector.addValueRoots(
        [&](const auto &visit) { interp.forEachRoot(visit); });

    interp.start(entry, {});
    while (true) {
        Suspend s = interp.run();
        switch (s.kind) {
          case Suspend::Kind::Done:
            if (gcs_out)
                *gcs_out = collector.totals().collections;
            return s.result.asInt();
          case Suspend::Kind::Quantum:
            continue;
          case Suspend::Kind::HeapFull:
            collector.collect();
            continue;
          default:
            ADD_FAILURE() << "unexpected suspension "
                          << static_cast<int>(s.kind);
            return INT64_MIN;
        }
    }
}

class FuzzProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzProperty, DeterministicAndGcTransparent)
{
    Program program;
    Klass obj;
    obj.name = "Object";
    KlassId object_k = program.addKlass(obj);
    Klass node;
    node.name = "Node";
    node.fields = {"next", "payload"};
    KlassId node_k = program.addKlass(node);

    MethodId entry =
        generateProgram(program, object_k, node_k, GetParam());

    // Plenty of heap: zero collections expected.
    uint64_t gcs_big = 0;
    int64_t big = execute(program, entry, object_k, 1 << 20,
                          &gcs_big);
    EXPECT_EQ(gcs_big, 0u);

    // Determinism.
    int64_t big2 = execute(program, entry, object_k, 1 << 20,
                           nullptr);
    EXPECT_EQ(big, big2);

    // Tiny heap: many collections, same answer.
    uint64_t gcs_small = 0;
    int64_t small = execute(program, entry, object_k, 2048,
                            &gcs_small);
    EXPECT_GT(gcs_small, 0u) << "seed " << GetParam();
    EXPECT_EQ(big, small) << "GC changed program behaviour, seed "
                          << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzProperty,
                         ::testing::Range<uint64_t>(1, 33));

TEST_P(FuzzProperty, StaticCaptureCoversDynamicReads)
{
    // 4. Capture soundness: every (klass, field) pair and every
    //    static the interpreter actually reads must be inside the
    //    static capture set the escape analysis computed for the
    //    entry -- otherwise closure slimming could prune data the
    //    offloaded execution needs (safe thanks to the missing-data
    //    fallback, but the analysis promises not to).
    Program program;
    Klass obj;
    obj.name = "Object";
    KlassId object_k = program.addKlass(obj);
    Klass node;
    node.name = "Node";
    node.fields = {"next", "payload"};
    KlassId node_k = program.addKlass(node);
    MethodId entry =
        generateProgram(program, object_k, node_k, GetParam());

    CaptureSet capture =
        ProgramAnalysis(program).captureForRoot(entry);

    NativeRegistry natives;
    Heap heap(program, 1 << 16, 1 << 20);
    VmConfig cfg;
    cfg.array_klass = object_k;
    VmContext ctx(program, natives, heap, cfg);
    ctx.loadAll();
    gc::SemiSpaceCollector collector(heap);
    Interpreter interp(ctx);
    collector.addValueRoots(
        [&](const auto &visit) { interp.forEachRoot(visit); });
    interp.enableRecording(true);

    interp.start(entry, {});
    while (true) {
        Suspend s = interp.run();
        if (s.kind == Suspend::Kind::Done)
            break;
        if (s.kind == Suspend::Kind::Quantum)
            continue;
        if (s.kind == Suspend::Kind::HeapFull) {
            collector.collect();
            continue;
        }
        FAIL() << "unexpected suspension "
               << static_cast<int>(s.kind);
    }

    for (const auto &[klass, index] : interp.recordedFieldReads())
        EXPECT_TRUE(capture.containsField(klass, index))
            << "dynamic read of klass " << klass << " field "
            << index << " outside the static capture, seed "
            << GetParam();
    if (!capture.all_fields) {
        for (const auto &s : interp.recordedStatics())
            EXPECT_TRUE(capture.statics.count(s))
                << "dynamic static access outside the capture, "
                << "seed " << GetParam();
    }
}

// -------------------------------------------------------------------
// Verifier as crash oracle over raw instruction streams.
// -------------------------------------------------------------------

constexpr uint16_t kStreamLocals = 4;

/**
 * Append a random instruction stream to @p code: mostly well-typed
 * chunks (each stack-neutral), occasionally raw garbage with wild
 * operands. @p node_k has 2 fields and 2 statics; @p str0 is a
 * valid string-pool index.
 */
void
emitRandomStream(Rng &rng, std::vector<Instr> &code, KlassId node_k,
                 uint32_t str0)
{
    auto ins = [&](Op op, int64_t a = 0, int64_t b = 0) {
        code.push_back(Instr{op, a, b});
    };

    const int chunks = static_cast<int>(rng.uniformInt(2, 10));
    for (int c = 0; c < chunks; ++c) {
        if (rng.chance(0.12)) {
            // Garbage: any opcode, wild operands. Most of these make
            // the verifier reject the whole program.
            int n = static_cast<int>(rng.uniformInt(1, 3));
            for (int i = 0; i < n; ++i)
                ins(static_cast<Op>(
                        rng.uniformInt(0, static_cast<int64_t>(
                                              Op::Compute))),
                    rng.uniformInt(-3, 40), rng.uniformInt(-2, 8));
            continue;
        }
        switch (rng.uniformInt(0, 9)) {
          case 0: // int into a local
            ins(Op::PushI, rng.uniformInt(-99, 99));
            ins(Op::Store, rng.uniformInt(0, kStreamLocals - 1));
            break;
          case 1: // arithmetic over locals of unknown kind
            ins(Op::Load, rng.uniformInt(0, kStreamLocals - 1));
            ins(Op::Load, rng.uniformInt(0, kStreamLocals - 1));
            ins(rng.chance(0.5) ? Op::Add
                                : (rng.chance(0.5) ? Op::Mul
                                                   : Op::Div));
            ins(Op::Store, rng.uniformInt(0, kStreamLocals - 1));
            break;
          case 2: // field round trip on a fresh object
            ins(Op::New, node_k);
            ins(Op::PushI, rng.uniformInt(0, 9));
            ins(Op::PutField, rng.uniformInt(0, 1));
            break;
          case 3: // field load
            ins(Op::New, node_k);
            ins(Op::GetField, rng.uniformInt(0, 1));
            ins(Op::Pop);
            break;
          case 4: { // array element access with provable bounds
            int64_t len = rng.uniformInt(1, 16);
            ins(Op::PushI, len);
            ins(Op::NewArr, node_k);
            ins(Op::PushI, rng.uniformInt(0, len - 1));
            ins(Op::ALoad);
            ins(Op::Pop);
            break;
          }
          case 5: // bytes + length
            ins(Op::NewBytes, str0);
            ins(Op::BytesLen);
            ins(Op::Store, rng.uniformInt(0, kStreamLocals - 1));
            break;
          case 6: // statics traffic
            ins(Op::PushI, rng.uniformInt(0, 99));
            ins(Op::PutStatic, node_k, rng.uniformInt(0, 1));
            ins(Op::GetStatic, node_k, rng.uniformInt(0, 1));
            ins(Op::Pop);
            break;
          case 7: // balanced monitor pair (depth-wise)
            ins(Op::New, node_k);
            ins(Op::MonitorEnter);
            ins(Op::New, node_k);
            ins(Op::MonitorExit);
            break;
          case 8: { // bounded countdown loop (backward jump, merge)
            int64_t s = rng.uniformInt(0, kStreamLocals - 1);
            ins(Op::PushI, rng.uniformInt(1, 5));
            ins(Op::Store, s);
            int64_t top = static_cast<int64_t>(code.size());
            ins(Op::Load, s);
            ins(Op::Jz, top + 6); // -> first instr after the Jmp
            ins(Op::Load, s);
            ins(Op::PushI, 1);
            ins(Op::Sub);
            ins(Op::Store, s);
            code.push_back(Instr{Op::Jmp, top, 0});
            break;
          }
          default: // modelled compute + stack shuffling
            ins(Op::PushI, rng.uniformInt(0, 5));
            ins(Op::Dup);
            ins(Op::Swap);
            ins(Op::Pop);
            ins(Op::Pop);
            ins(Op::Compute, rng.uniformInt(0, 200));
            break;
        }
    }

    if (rng.chance(0.85)) {
        ins(Op::PushI, 7);
        ins(Op::Ret);
    }
    // else: fall off the end -- a rejection the oracle must catch.
}

/**
 * Run an oracle-accepted program under a budget. Nontermination and
 * heap exhaustion are allowed (the oracle only promises "no crash"),
 * so the run is abandoned once the budget is spent.
 */
void
executeBudgeted(Program &program, MethodId entry, KlassId node_k)
{
    NativeRegistry natives;
    Heap heap(program, 1 << 16, 1 << 20);
    VmConfig cfg;
    cfg.quantum_ns = 2000.0; // ~1k instructions per quantum
    cfg.bytes_klass = node_k;
    cfg.array_klass = node_k;
    VmContext ctx(program, natives, heap, cfg);
    ctx.loadAll();
    gc::SemiSpaceCollector collector(heap);
    Interpreter interp(ctx);
    collector.addValueRoots(
        [&](const auto &visit) { interp.forEachRoot(visit); });

    interp.start(entry, {});
    int heap_fulls = 0;
    for (int budget = 0; budget < 64; ++budget) {
        Suspend s = interp.run();
        switch (s.kind) {
          case Suspend::Kind::Done:
            return;
          case Suspend::Kind::Quantum:
            continue;
          case Suspend::Kind::HeapFull:
            if (++heap_fulls > 8)
                return; // live set does not fit; not a crash
            collector.collect();
            continue;
          default:
            ADD_FAILURE() << "verified program suspended with "
                          << static_cast<int>(s.kind);
            return;
        }
    }
}

TEST(VerifierOracle, AcceptedStreamsExecuteWithoutCrashing)
{
    int accepted = 0;
    int rejected = 0;
    constexpr uint64_t kPrograms = 10000;

    for (uint64_t seed = 1; seed <= kPrograms; ++seed) {
        Rng rng(seed * 0x9E3779B97F4A7C15ull);
        Program program;
        Klass node;
        node.name = "Node";
        node.fields = {"next", "payload"};
        node.statics = {"a", "b"};
        KlassId node_k = program.addKlass(node);
        uint32_t str0 = program.internString("fuzz");

        Method m;
        m.name = "stream";
        m.num_locals = kStreamLocals;
        emitRandomStream(rng, m.code, node_k, str0);
        MethodId entry = program.addMethod(node_k, m);

        VerifyOptions options;
        options.strict_types = true;
        VerifyResult result =
            Verifier(program, options).verifyAll();
        if (!result.ok()) {
            ++rejected; // rejected programs are never executed
            continue;
        }
        ++accepted;
        executeBudgeted(program, entry, node_k);
    }

    // The oracle is only meaningful when both populations are big.
    EXPECT_GT(accepted, 1000) << "generator too hostile";
    EXPECT_GT(rejected, 1000) << "generator too tame";
}

// -------------------------------------------------------------------
// Steppable contract: suspend everywhere, migrate, same execution.
// -------------------------------------------------------------------

/** A fresh VM: a private heap, context and collector per run. */
struct FreshVm
{
    FreshVm(Program &program, NativeRegistry &natives,
            std::size_t alloc_bytes, VmConfig cfg)
        : heap(program, 1 << 16, alloc_bytes),
          ctx(program, natives, heap, cfg), collector(heap)
    {
        ctx.loadAll();
        collector.addValueRoots([this](const auto &visit) {
            if (live)
                live->forEachRoot(visit);
            ctx.forEachStatic(visit);
        });
    }

    Heap heap;
    VmContext ctx;
    gc::SemiSpaceCollector collector;
    Interpreter *live = nullptr; //!< the interpreter running now
};

/** What one execution produced, summed over its interpreters. */
struct SteppedRun
{
    Value result;
    InterpStats stats;
    /** Sum of consumeCost() taken after every run() call. */
    double cost = 0.0;
    uint64_t suspensions = 0;
    uint64_t collections = 0;
    std::set<KlassId> klasses;
    std::set<std::pair<KlassId, uint32_t>> statics;
    std::set<std::pair<KlassId, uint32_t>> field_reads;
};

void
addStats(InterpStats &to, const InterpStats &s)
{
    to.instructions += s.instructions;
    to.calls += s.calls;
    to.native_calls += s.native_calls;
    to.monitor_enters += s.monitor_enters;
    to.remote_hits += s.remote_hits;
    to.ic_hits += s.ic_hits;
    to.ic_misses += s.ic_misses;
}

/** Fold an interpreter's counters and recorded sets into @p out. */
void
absorb(SteppedRun &out, const Interpreter &interp)
{
    addStats(out.stats, interp.stats());
    out.klasses.insert(interp.recordedKlasses().begin(),
                       interp.recordedKlasses().end());
    out.statics.insert(interp.recordedStatics().begin(),
                       interp.recordedStatics().end());
    out.field_reads.insert(interp.recordedFieldReads().begin(),
                           interp.recordedFieldReads().end());
}

/**
 * Run @p entry to completion with recording on. With @p migrate,
 * every suspension snapshots the frames and restores them into a
 * new interpreter, which carries on from there.
 */
SteppedRun
runStepped(FreshVm &vm, MethodId entry, std::vector<Value> args,
           bool migrate)
{
    SteppedRun out;
    auto interp = std::make_unique<Interpreter>(vm.ctx);
    interp->enableRecording(true);
    vm.live = interp.get();
    interp->start(entry, std::move(args));
    while (true) {
        Suspend s = interp->run();
        out.cost += interp->consumeCost();
        if (s.kind == Suspend::Kind::Done) {
            out.result = s.result;
            break;
        }
        ++out.suspensions;
        if (s.kind == Suspend::Kind::HeapFull) {
            vm.collector.collect();
        } else if (s.kind != Suspend::Kind::Quantum) {
            ADD_FAILURE() << "unexpected suspension "
                          << static_cast<int>(s.kind);
            break;
        }
        if (migrate) {
            auto next = std::make_unique<Interpreter>(vm.ctx);
            next->restoreFrames(interp->snapshotFrames());
            next->enableRecording(true);
            absorb(out, *interp);
            interp = std::move(next);
            vm.live = interp.get();
        }
    }
    absorb(out, *interp);
    // The straight run's sets come from one interpreter: they are the
    // interpreter's own containers, compared below against the plain
    // std::set unions the migrated run built.
    vm.live = nullptr;
    out.collections = vm.collector.totals().collections;
    return out;
}

template <typename Set>
std::vector<typename Set::value_type>
inOrder(const Set &set)
{
    return {set.begin(), set.end()};
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * The contract, for one program: a straight run and a migrated run
 * at a tiny quantum agree exactly; a run at the default quantum
 * agrees on everything but the cost's rounding. Returns the straight
 * run.
 */
SteppedRun
expectSteppable(Program &program, NativeRegistry &natives,
                std::size_t alloc_bytes, VmConfig cfg, MethodId entry,
                const std::vector<Value> &args,
                const std::function<void(FreshVm &)> &setup,
                const std::string &what)
{
    VmConfig tiny = cfg;
    tiny.quantum_ns = 1e-3; // every instruction exhausts it
    FreshVm a(program, natives, alloc_bytes, tiny);
    FreshVm b(program, natives, alloc_bytes, tiny);
    FreshVm c(program, natives, alloc_bytes, cfg);
    if (setup) {
        setup(a);
        setup(b);
        setup(c);
    }
    SteppedRun straight = runStepped(a, entry, args, false);
    SteppedRun migrated = runStepped(b, entry, args, true);
    SteppedRun coarse = runStepped(c, entry, args, false);

    // Nearly every instruction suspended.
    EXPECT_EQ(straight.suspensions + 1, straight.stats.instructions)
        << what;
    EXPECT_EQ(migrated.suspensions, straight.suspensions) << what;

    for (const SteppedRun *r : {&migrated, &coarse}) {
        EXPECT_EQ(r->result, straight.result) << what;
        EXPECT_EQ(r->stats.instructions, straight.stats.instructions)
            << what;
        EXPECT_EQ(r->stats.calls, straight.stats.calls) << what;
        EXPECT_EQ(r->stats.native_calls, straight.stats.native_calls)
            << what;
        EXPECT_EQ(r->stats.monitor_enters,
                  straight.stats.monitor_enters) << what;
        EXPECT_EQ(r->stats.remote_hits, straight.stats.remote_hits)
            << what;
        EXPECT_EQ(r->stats.ic_hits, straight.stats.ic_hits) << what;
        EXPECT_EQ(r->stats.ic_misses, straight.stats.ic_misses)
            << what;
        EXPECT_EQ(r->collections, straight.collections) << what;
        EXPECT_EQ(inOrder(r->klasses), inOrder(straight.klasses))
            << what;
        EXPECT_EQ(inOrder(r->statics), inOrder(straight.statics))
            << what;
        EXPECT_EQ(inOrder(r->field_reads),
                  inOrder(straight.field_reads)) << what;
    }
    EXPECT_TRUE(sameBits(migrated.cost, straight.cost))
        << what << ": " << migrated.cost << " vs " << straight.cost;
    EXPECT_NEAR(coarse.cost, straight.cost, 1e-9 * straight.cost)
        << what;
    return straight;
}

TEST_P(FuzzProperty, SteppableAcrossSnapshotRestore)
{
    // A three-deep call chain around the fuzz body, with a native
    // reading its arguments from the operand stack, a virtual call
    // and statics, on a heap small enough to collect mid-run.
    Program program;
    Klass obj;
    obj.name = "Object";
    KlassId object_k = program.addKlass(obj);
    Klass node;
    node.name = "Node";
    node.fields = {"next", "payload"};
    node.statics = {"total"};
    KlassId node_k = program.addKlass(node);
    MethodId body =
        generateProgram(program, object_k, node_k, GetParam());

    NativeRegistry natives;
    uint32_t mix_n = natives.add(
        "Math.mix3", NativeCategory::PureOnHeap,
        [](VmContext &, std::span<const Value> args) {
            NativeResult r;
            r.ret = Value::ofInt(args[0].asInt() * 31 +
                                 args[1].asInt() * 7 + args[2].asInt());
            r.cost_ns = 12.5;
            return r;
        });
    Method native;
    native.name = "mix3";
    native.num_args = 3;
    native.is_native = true;
    native.native_id = mix_n;
    MethodId mix_m = program.addMethod(object_k, native);

    CodeBuilder weigh(program, node_k, "weigh", 2); // (this, x)
    weigh.load(0).getField(1).load(1).add().ret();
    weigh.build();

    CodeBuilder mid(program, object_k, "mid", 1); // (k)
    mid.locals(1);
    mid.call(body).store(1)
        .load(0).load(1).pushI(3).call(mix_m)
        .getStatic(node_k, 0).add().putStatic(node_k, 0)
        .newObj(node_k).store(0)
        .load(0).load(1).putField(1)
        .load(0).pushI(5).callVirt("weigh", 2)
        .getStatic(node_k, 0).add()
        .ret();
    MethodId mid_m = mid.build();

    CodeBuilder top(program, object_k, "top", 1); // (n)
    top.pushI(0).putStatic(node_k, 0)
        .load(0).call(mid_m)
        .load(0).pushI(1).add().call(mid_m)
        .add().pushI(100003).mod().ret();
    MethodId top_m = top.build();

    VmConfig cfg;
    cfg.array_klass = object_k;
    SteppedRun run = expectSteppable(
        program, natives, 4096, cfg, top_m,
        {Value::ofInt(static_cast<int64_t>(GetParam()))}, nullptr,
        "seed " + std::to_string(GetParam()));
    EXPECT_GT(run.collections, 0u);
    EXPECT_EQ(run.stats.native_calls, 2u);
    EXPECT_EQ(run.stats.ic_hits + run.stats.ic_misses, 2u);
}

TEST(Steppable, FrameworkHandlerAcrossSnapshotRestore)
{
    // An app handler as the framework builds one: the interceptor
    // chain (virtual calls through generated stubs), the native mix
    // (pure, hidden-state and stateless natives) and a config walk.
    Program program;
    NativeRegistry natives;
    apps::FrameworkOptions opts;
    opts.native_scale = 1000;
    opts.interceptor_depth = 3;
    opts.stub_variants = 4;
    opts.generated_klasses = 12;
    opts.config_objects = 30;
    opts.connection_pool = 2;
    apps::Framework fw(program, natives, opts);

    CodeBuilder h(program, fw.objectKlass(), "handler", 1);
    h.annotate("RequestMapping").locals(3);
    fw.emitNativeMix(h, 20000, 6000, 3000, 1);
    fw.emitConfigWalk(h, 20, 1);
    h.load(0).pushI(2).mul().ret();
    MethodId entry =
        fw.wrapWithInterceptors("stepapp", h.build());

    auto setup = [&](FreshVm &vm) {
        // The DataSource statics the native mix and config walk read.
        Ref method_obj = vm.heap.allocPlain(fw.methodKlass(), true);
        vm.ctx.setStatic(fw.dataSourceKlass(),
                         apps::Framework::kDsMethodObj,
                         Value::ofRef(method_obj));
        Ref head = kNullRef;
        for (int i = 0; i < 5; ++i) {
            Ref n = vm.heap.allocPlain(fw.configKlass(), true);
            vm.heap.setField(n, apps::Framework::kCfgNext,
                             Value::ofRef(head));
            vm.heap.setField(n, apps::Framework::kCfgValue,
                             Value::ofInt(i));
            head = n;
        }
        vm.ctx.setStatic(fw.dataSourceKlass(),
                         apps::Framework::kDsConfigRoot,
                         Value::ofRef(head));
    };
    VmConfig cfg;
    cfg.bytes_klass = fw.bytesKlass();
    cfg.array_klass = fw.arrayKlass();
    SteppedRun run = expectSteppable(program, natives, 1 << 20, cfg,
                                     entry, {Value::ofInt(21)}, setup,
                                     "framework handler");
    EXPECT_EQ(run.result.asInt(), 42);
    EXPECT_GT(run.stats.native_calls, 20u);
    EXPECT_GT(run.stats.ic_misses, 0u) << "no virtual call ran";
    EXPECT_GT(run.stats.calls, 4u);
    EXPECT_FALSE(run.statics.empty());
    EXPECT_FALSE(run.field_reads.empty());
}

} // namespace
} // namespace beehive::vm
