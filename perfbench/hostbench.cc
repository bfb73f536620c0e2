/**
 * @file
 * hostbench: host-time benchmark of the simulator.
 *
 * Runs one workload several times in one process on one thread and
 * prints one JSON record per repetition on stdout; perfbench/run.py
 * aggregates the records into medians and checks them. Each
 * repetition builds a fresh harness::Testbed, runs the profiling
 * phase (the set-up, timed on its own) and then drives the timed
 * phase: simulated clients against the server, sliced into
 * Simulation::runUntil calls of one simulated second, followed by a
 * drain until every issued request has completed. Between slices
 * and around each set-up a fixed kernel (CoreProbe) measures how
 * fast the core is running, so that run.py can scale host times by
 * it; between slices the resident set size is sampled too
 * (RssSampler).
 *
 * Everything is read from outside, through each module's public
 * API: no counter or span is added inside the simulator.
 *
 *   hostbench --workload burst-pybbs|steady-thumbnail|storm-pybbs
 *             --seed N [--seconds S]
 *             [--traced] [--short] [--spans-out FILE]
 *             [--sim-trace-out FILE]
 *
 * Without --traced every repetition runs with telemetry off (the
 * end-to-end run), after kSetups set-ups with no timed phase. With
 * --traced, untraced repetitions and traced
 * ones (BeeHiveConfig::telemetry on) alternate; the first traced one
 * also replays dispatch over its program, and the event-queue and
 * interpreter kernels run at the end. Host-time spans around each
 * call into a layer are kept in memory and written to --spans-out
 * (Chrome trace-event JSON) when the run ends.
 */

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/testbed.h"
#include "sim/event_queue.h"
#include "snapshot/store.h"
#include "support/logging.h"
#include "telemetry/critical_path.h"
#include "telemetry/export.h"
#include "vm/code_builder.h"
#include "vm/context.h"
#include "vm/interpreter.h"
#include "workload/clients.h"

using namespace beehive;
using namespace beehive::harness;
using sim::SimTime;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

// ---------------------------------------------------------------
// Host-time spans

/** One host-time interval around a call into a layer. */
struct HostSpan
{
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1; //!< index into the span list; -1 = top level
};

/**
 * In-memory host-time span recorder. Disabled recorders ignore
 * every call, so the untraced run takes the same code path at the
 * cost of a branch.
 */
class HostSpans
{
  public:
    explicit HostSpans(bool enabled) : enabled_(enabled) {}

    int
    begin(const char *name)
    {
        if (!enabled_)
            return -1;
        int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, nowUs(), 0.0, parent});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    end(int id)
    {
        if (!enabled_ || id < 0)
            return;
        bh_assert(!open_.empty() && open_.back() == id,
                  "host spans must nest");
        spans_[id].end_us = nowUs();
        open_.pop_back();
    }

    /** Spans that do not nest inside their parent, or are open. */
    uint64_t
    violations() const
    {
        uint64_t bad = open_.size();
        for (const HostSpan &s : spans_) {
            if (s.end_us < s.start_us)
                ++bad;
            else if (s.parent >= 0 &&
                     (s.start_us < spans_[s.parent].start_us ||
                      s.end_us > spans_[s.parent].end_us))
                ++bad;
        }
        return bad;
    }

    std::size_t size() const { return spans_.size(); }

    /** Chrome trace-event JSON (ui.perfetto.dev loads it). */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\": [\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const HostSpan &s = spans_[i];
            std::fprintf(f,
                         "{\"name\": \"%s\", \"ph\": \"X\", "
                         "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                         "\"dur\": %.3f, \"args\": {\"id\": %zu, "
                         "\"parent\": %d}}%s\n",
                         s.name.c_str(), s.start_us,
                         s.end_us - s.start_us, i, s.parent,
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(
                   Clock::now() - origin_)
            .count();
    }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<HostSpan> spans_;
    std::vector<int> open_;
};

/** RAII host span. */
class HostScope
{
  public:
    HostScope(HostSpans &spans, const char *name)
        : spans_(spans), id_(spans.begin(name))
    {}
    ~HostScope() { spans_.end(id_); }
    HostScope(const HostScope &) = delete;
    HostScope &operator=(const HostScope &) = delete;

  private:
    HostSpans &spans_;
    int id_;
};

// ---------------------------------------------------------------
// Core probe

/**
 * A fixed kernel timed between slices of the workload, to say how
 * fast the core ran meanwhile. On a shared VM other tenants' load
 * slows the core for stretches of a second to minutes: this kernel
 * by up to 1.8x, the simulator by up to 1.5x. run.py scales each
 * phase's host time by the probe's mean over that phase. The kernel
 * is eight independent multiply-xorshift chains that live in
 * registers, so it is bound by the core's issue rate and nothing the
 * simulator does to caches or memory changes its time.
 */
class CoreProbe
{
  public:
    /** Take a sample if the last one is kInterval old. */
    void
    maybeSample()
    {
        if (secondsSince(last_) >= kInterval)
            sample();
    }

    void
    sample()
    {
        Clock::time_point t0 = Clock::now();
        uint64_t x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        for (int i = 0; i < kIterations; ++i) {
            for (uint64_t &v : x) {
                v = v * 6364136223846793005ull + 1442695040888963407ull;
                v ^= v >> 29;
            }
        }
        uint64_t acc = 0;
        for (uint64_t v : x)
            acc ^= v;
        sink_ = acc;
        last_ = Clock::now();
        seconds_ += std::chrono::duration<double>(last_ - t0).count();
        ++samples_;
    }

    /** Mean ns per kernel iteration since reset(); 0 if no sample. */
    double
    nsPerIteration() const
    {
        return samples_ ? seconds_ * 1e9 / (samples_ * double(kIterations))
                        : 0.0;
    }

    /** Host seconds spent in the probe since reset(). */
    double seconds() const { return seconds_; }

    void
    reset()
    {
        seconds_ = 0.0;
        samples_ = 0;
    }

  private:
    static constexpr double kInterval = 0.025; // s between samples
    static constexpr int kIterations = 40000;  // about 0.3 ms
    Clock::time_point last_ = Clock::now();
    double seconds_ = 0.0;
    uint64_t samples_ = 0;
    volatile uint64_t sink_ = 0;
};

/**
 * Resident set size of this process, sampled between slices of the
 * timed phase from /proc/self/statm. Its own time is kept, so that
 * it can be taken out of the timed phase like the probe's.
 */
class RssSampler
{
  public:
    RssSampler() : fd_(open("/proc/self/statm", O_RDONLY | O_CLOEXEC)) {}
    ~RssSampler()
    {
        if (fd_ >= 0)
            close(fd_);
    }
    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    void
    sample()
    {
        Clock::time_point t0 = Clock::now();
        char buf[128];
        ssize_t n = fd_ >= 0 ? pread(fd_, buf, sizeof buf - 1, 0) : -1;
        if (n > 0) {
            buf[n] = '\0';
            unsigned long long size = 0, resident = 0;
            if (std::sscanf(buf, "%llu %llu", &size, &resident) == 2)
                mb_.push_back(static_cast<double>(resident) * kPageMb);
        }
        seconds_ += secondsSince(t0);
    }

    /** Nearest-rank percentile p of the samples since reset(), in
     * MB; 0 if none. */
    double
    percentileMb(double p) const
    {
        if (mb_.empty())
            return 0.0;
        std::vector<double> sorted = mb_;
        std::sort(sorted.begin(), sorted.end());
        auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
        return sorted[std::max<std::size_t>(rank, 1) - 1];
    }
    /** Host seconds spent sampling since reset(). */
    double seconds() const { return seconds_; }

    void
    reset()
    {
        mb_.clear();
        seconds_ = 0.0;
    }

  private:
    const double kPageMb =
        static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
    int fd_;
    std::vector<double> mb_;
    double seconds_ = 0.0;
};

// ---------------------------------------------------------------
// Workloads

enum class Kind { Burst, Steady, Storm };

struct Workload
{
    const char *name;
    Kind kind;
    AppKind app;
};

const Workload kWorkloads[] = {
    {"burst-pybbs", Kind::Burst, AppKind::Pybbs},
    {"steady-thumbnail", Kind::Steady, AppKind::Thumbnail},
    {"storm-pybbs", Kind::Storm, AppKind::Pybbs},
};

/** Simulated lengths of one repetition. */
struct Shape
{
    SimTime pre_burst;  //!< burst: window before the burst
    SimTime load;       //!< simulated load window (total)
    double rps = 0.0;   //!< steady: open-loop arrival rate
    int clients = 0;    //!< closed-loop clients (burst adds as many)
    double ratio = 0.0; //!< offload ratio (burst: at the burst)
};

Shape
shapeOf(Kind kind, bool short_mode)
{
    Shape s;
    switch (kind) {
      case Kind::Burst:
        s.pre_burst = SimTime::sec(short_mode ? 3 : 10);
        s.load = SimTime::sec(short_mode ? 10 : 30);
        s.clients = 8;
        s.ratio = 0.5;
        break;
      case Kind::Steady:
        // 0.85 x the calibrated 85 rps vanilla saturation.
        s.load = SimTime::sec(short_mode ? 20 : 600);
        s.rps = 0.85 * SaturationCalibration().thumbnail;
        break;
      case Kind::Storm:
        s.load = SimTime::sec(short_mode ? 800 : 4800);
        s.clients = 8;
        s.ratio = 0.5;
        break;
    }
    return s;
}

TestbedOptions
testbedOptions(const Workload &w, uint64_t seed, bool traced)
{
    TestbedOptions tb;
    tb.app = w.app;
    tb.faas = FaasFlavor::OpenWhisk;
    tb.seed = seed;
    tb.framework.native_scale = 400;
    tb.beehive.telemetry = traced;
    // Room for every span of the longest repetition, so critical
    // paths are complete for every request.
    tb.beehive.telemetry_span_capacity = 1u << 20;
    if (w.kind == Kind::Storm) {
        // fault_storm's recovery stack. Intensity 0.3, not 0.25:
        // at 0.25 about 1% of requests stack four 5 s blackholes,
        // so p99 flips between 15.1 s and 20.1 s from seed to seed;
        // at 0.3 both p50 and p99 sit well inside one mode each.
        tb.beehive.failure_recovery = true;
        tb.beehive.static_manifests = true;
        tb.beehive.offload_deadline = SimTime::sec(2);
        tb.beehive.offload_max_retries = 6;
        tb.beehive.retry_backoff_base = SimTime::msec(5);
        tb.beehive.breaker_threshold = 3;
        tb.beehive.graceful_degradation = true;
        tb.faas_keep_alive = SimTime::sec(5);
        tb.chaos = chaos::FaultPlan::storm(0.3);
        tb.chaos.blackhole = SimTime::sec(5);
    }
    return tb;
}

// ---------------------------------------------------------------
// One repetition

/** Named values, printed in insertion order. */
using Values = std::vector<std::pair<std::string, double>>;

struct RepResult
{
    double testbed_s = 0.0;
    double profiling_s = 0.0;
    double timed_s = 0.0;
    bool root_selected = false;
    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t samples = 0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double goodput_rps = 0.0;
    uint64_t events = 0;
    double cancel_ratio = 0.0; //!< cancelled / scheduled events
    double dispatch_ns = 0.0;  //!< when RepOptions::dispatch_kernel
    uint64_t minor_faults = 0;
    double user_s = 0.0;
    double sys_s = 0.0;
    /** 99th percentile of RSS over the slices of the timed phase. */
    double rss_p99_mb = 0.0;
    /** Core probe, ns per iteration, over the timed phase. */
    double probe_ns = 0.0;
    /** Layer counters (every repetition; deterministic per seed). */
    Values layers;
    /** Traced only: critical-path means and span checks. */
    Values telemetry;
};

struct Usage
{
    uint64_t minor_faults = 0;
    double user_s = 0.0;
    double sys_s = 0.0;
};

Usage
usageNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.minor_faults = static_cast<uint64_t>(ru.ru_minflt);
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    return u;
}

double
ratioOf(uint64_t num, uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

/** Read every layer counter from the modules' public accessors. */
Values
harvestLayers(Testbed &bed)
{
    Values v;
    auto put = [&v](const char *name, double x) {
        v.emplace_back(name, x);
    };
    const sim::EventQueue &q = bed.sim().queue();
    put("sim.events_dispatched", static_cast<double>(q.dispatched()));
    put("sim.events_scheduled", static_cast<double>(q.scheduled()));
    put("sim.events_cancelled", static_cast<double>(q.cancelled()));

    core::BeeHiveServer &server = bed.server();
    vm::VmContext &ctx = server.context();
    put("vm.ic_hit_rate",
        ratioOf(ctx.icHits(), ctx.icHits() + ctx.icMisses()));
    put("vm.heap_objects_allocated",
        static_cast<double>(server.heap().stats().objects_allocated));
    put("vm.heap_bytes_allocated",
        static_cast<double>(server.heap().stats().bytes_allocated));

    const gc::GcTotals &gc = server.collector().totals();
    put("gc.collections", static_cast<double>(gc.collections));
    put("gc.bytes_copied", static_cast<double>(gc.bytes_copied));
    put("gc.pause_p50_ms",
        gc.pause_ms.empty() ? 0.0 : gc.pause_ms.percentile(50.0));

    core::OffloadStats o;
    if (core::OffloadManager *mgr = bed.manager())
        o = mgr->stats();
    put("core.local", static_cast<double>(o.local));
    put("core.offloaded", static_cast<double>(o.offloaded));
    put("core.shadows", static_cast<double>(o.shadows));
    put("core.fallbacks_served",
        static_cast<double>(server.stats().fallbacks_served));
    put("core.retries", static_cast<double>(o.retries));
    put("core.deadline_expirations",
        static_cast<double>(o.deadline_expirations));
    put("core.local_fallbacks", static_cast<double>(o.local_fallbacks));
    put("core.recoveries", static_cast<double>(o.recoveries));
    put("core.breaker_ejections",
        static_cast<double>(o.breaker_ejections));
    put("core.degradations", static_cast<double>(o.degradations));

    cloud::FaasPlatform *faas = bed.platform();
    put("cloud.cold_boots",
        faas ? static_cast<double>(faas->coldBoots()) : 0.0);
    put("cloud.warm_boots",
        faas ? static_cast<double>(faas->warmBoots()) : 0.0);
    put("cloud.restore_boots",
        faas ? static_cast<double>(faas->restoreBoots()) : 0.0);
    put("cloud.instances",
        faas ? static_cast<double>(faas->totalInstances()) : 0.0);

    const proxy::ConnectionProxy::Stats &p = bed.proxy().stats();
    put("proxy.requests_routed", static_cast<double>(p.requests_routed));
    put("proxy.offload_requests",
        static_cast<double>(p.offload_requests));
    put("proxy.shadow_writes", static_cast<double>(p.shadow_writes));
    put("proxy.read_retries", static_cast<double>(p.read_retries));
    put("proxy.dup_writes_suppressed",
        static_cast<double>(p.dup_writes_suppressed));
    put("db.resets", static_cast<double>(bed.store().resets()));

    const snapshot::SnapshotStore *snaps = server.snapshots();
    put("snapshot.manifests_synthesized",
        snaps ? static_cast<double>(snaps->manifestsSynthesized()) : 0.0);
    put("snapshot.restores_planned",
        snaps ? static_cast<double>(snaps->restoresPlanned()) : 0.0);
    put("snapshot.evictions",
        snaps ? static_cast<double>(snaps->evictions()) : 0.0);
    put("snapshot.corruptions",
        snaps ? static_cast<double>(snaps->corruptions()) : 0.0);

    chaos::ChaosStats c;
    if (chaos::ChaosEngine *engine = bed.chaosEngine())
        c = engine->stats();
    put("chaos.total", static_cast<double>(c.total()));
    put("chaos.net_drops", static_cast<double>(c.net_drops));
    put("chaos.db_resets", static_cast<double>(c.db_resets));
    put("chaos.boot_crashes", static_cast<double>(c.boot_crashes));
    put("chaos.restore_crashes", static_cast<double>(c.restore_crashes));
    put("chaos.invoke_crashes", static_cast<double>(c.invoke_crashes));
    put("chaos.throttles", static_cast<double>(c.throttles));
    return v;
}

/** Critical-path means and span checks of a traced repetition. */
Values
harvestTelemetry(const telemetry::Tracer &t)
{
    Values v;
    telemetry::PhaseAggregate agg = telemetry::aggregateBreakdown(t);
    static const std::pair<const char *, telemetry::Phase> kPhases[] = {
        {"cp.queue_ms", telemetry::Phase::Queue},
        {"cp.exec_ms", telemetry::Phase::Exec},
        {"cp.offload_ms", telemetry::Phase::Offload},
        {"cp.boot_ms", telemetry::Phase::Boot},
        {"cp.fetch_ms", telemetry::Phase::Fetch},
        {"cp.native_ms", telemetry::Phase::Native},
        {"cp.sync_ms", telemetry::Phase::Sync},
        {"cp.db_ms", telemetry::Phase::Db},
        {"cp.gc_ms", telemetry::Phase::Gc},
        {"cp.net_ms", telemetry::Phase::Net},
    };
    for (const auto &[name, phase] : kPhases) {
        const sim::SampleSet &s =
            agg.phase_ms[static_cast<std::size_t>(phase)];
        v.emplace_back(name, s.empty() ? 0.0 : s.mean());
    }
    v.emplace_back("telemetry.span_violations",
                   static_cast<double>(telemetry::validateSpans(t).size()));
    // Every request's critical path must sum to its latency: the
    // aggregate holds one sample per request in every phase set.
    uint64_t mismatched = 0;
    for (std::size_t i = 0; i < agg.total_ms.count(); ++i) {
        double sum = 0.0;
        for (const sim::SampleSet &s : agg.phase_ms)
            sum += s.samples()[i];
        double total = agg.total_ms.samples()[i];
        if (std::abs(sum - total) > 1e-6 * std::max(1.0, total))
            ++mismatched;
    }
    v.emplace_back("telemetry.paths_analyzed",
                   static_cast<double>(agg.requests));
    v.emplace_back("telemetry.path_sum_mismatches",
                   static_cast<double>(mismatched));
    v.emplace_back("telemetry.spans_recorded",
                   static_cast<double>(t.spansRecorded()));
    v.emplace_back("telemetry.spans_dropped",
                   static_cast<double>(t.spansDropped()));
    return v;
}

// ---------------------------------------------------------------
// Layer replay kernels (traced runs only)

/**
 * Event-queue replay: batches of schedules, a share of them
 * cancelled at @p cancel_ratio, drained with runOne.
 */
double
queueNsPerOp(double cancel_ratio, uint64_t target_ops)
{
    sim::EventQueue q;
    constexpr uint64_t kBatch = 1024;
    uint64_t fired = 0, ops = 0;
    int64_t now = 0;
    std::vector<sim::EventId> ids;
    ids.reserve(kBatch);
    uint64_t cancels = static_cast<uint64_t>(
        std::lround(cancel_ratio * static_cast<double>(kBatch)));
    Clock::time_point t0 = Clock::now();
    while (ops < target_ops) {
        ids.clear();
        for (uint64_t i = 0; i < kBatch; ++i) {
            // Spread deadlines so the heap does real ordering work.
            int64_t at = now + static_cast<int64_t>((i * 7919) % kBatch);
            ids.push_back(q.schedule(SimTime::nsec(at),
                                     [&fired] { ++fired; }));
            ++ops;
        }
        for (uint64_t i = 0; i < cancels && i < kBatch; ++i) {
            q.cancel(ids[(i * 4099) % kBatch]);
            ++ops;
        }
        while (!q.empty()) {
            q.runOne();
            ++ops;
        }
        now += static_cast<int64_t>(kBatch);
    }
    double ns = secondsSince(t0) * 1e9;
    bh_assert(fired > 0, "event replay fired nothing");
    return ns / static_cast<double>(ops);
}

/**
 * Interpreter kernel: a CallVirt-heavy loop built with CodeBuilder,
 * run on a fresh VmContext. Returns host ns per interpreted
 * instruction (InterpStats::instructions).
 */
double
interpNsPerInstr(uint64_t iterations)
{
    vm::Program program;
    vm::Klass base;
    base.name = "Base";
    vm::KlassId base_k = program.addKlass(base);
    vm::Klass derived;
    derived.name = "Derived";
    derived.super = base_k;
    vm::KlassId derived_k = program.addKlass(derived);
    {
        vm::CodeBuilder tick(program, base_k, "tick", 2);
        tick.load(1).pushI(1).add().ret();
        tick.build();
    }
    {
        vm::CodeBuilder tick(program, derived_k, "tick", 2);
        tick.load(1).pushI(3).add().ret();
        tick.build();
    }
    vm::CodeBuilder main(program, base_k, "main", 1);
    main.locals(2);
    auto loop = main.newLabel(), done = main.newLabel();
    main.newObj(derived_k)
        .store(1)
        .pushI(0)
        .store(2)
        .bind(loop)
        .load(0)
        .pushI(0)
        .cmpLe()
        .jnz(done)
        .load(1)
        .load(2)
        .callVirt("tick", 2)
        .store(2)
        .load(0)
        .pushI(1)
        .sub()
        .store(0)
        .jmp(loop)
        .bind(done)
        .load(2)
        .ret();
    vm::MethodId main_m = main.build();

    vm::NativeRegistry natives;
    vm::Heap heap(program, 1 << 20, 1 << 20);
    vm::VmConfig config;
    config.jit_threshold = 0;
    vm::VmContext ctx(program, natives, heap, config);
    ctx.loadAll();
    program.freeze();

    vm::Interpreter interp(ctx);
    interp.start(main_m,
                 {vm::Value::ofInt(static_cast<int64_t>(iterations))});
    Clock::time_point t0 = Clock::now();
    while (true) {
        vm::Suspend s = interp.run();
        if (s.kind == vm::Suspend::Kind::Done)
            break;
        bh_assert(s.kind == vm::Suspend::Kind::Quantum,
                  "unexpected suspend in interpreter kernel");
    }
    double ns = secondsSince(t0) * 1e9;
    uint64_t instr = interp.stats().instructions;
    return ns / static_cast<double>(instr ? instr : 1);
}

/** Program::resolveVirtual over the installed app's resolvable
 * (klass, name) pairs; host ns per dispatch. */
double
dispatchNs(const vm::Program &program, uint64_t target)
{
    std::vector<std::pair<vm::KlassId, vm::NameId>> pairs;
    for (vm::KlassId k = 0; k < program.klassCount(); ++k) {
        for (vm::NameId n = 0; n < program.nameCount(); ++n) {
            if (program.resolveVirtualUncached(k, n) != vm::kNoMethod)
                pairs.push_back({k, n});
        }
    }
    if (pairs.empty())
        return 0.0;
    program.freeze();
    uint64_t rounds = (target + pairs.size() - 1) / pairs.size();
    volatile uint64_t sink = 0;
    uint64_t acc = 0;
    Clock::time_point t0 = Clock::now();
    for (uint64_t round = 0; round < rounds; ++round) {
        for (const auto &[k, n] : pairs)
            acc += program.resolveVirtual(k, n);
    }
    sink = acc;
    (void)sink;
    return secondsSince(t0) * 1e9 /
           static_cast<double>(rounds * pairs.size());
}

/** Run @p bed's simulation to @p until in one-second slices,
 * sampling the core probe between them. */
void
runSliced(Testbed &bed, SimTime until, HostSpans &spans, CoreProbe &probe,
          RssSampler &rss)
{
    while (bed.sim().now() < until) {
        SimTime next = std::min(until, bed.sim().now() + SimTime::sec(1));
        {
            HostScope slice(spans, "sim.runUntil");
            bed.sim().runUntil(next);
        }
        probe.maybeSample();
        rss.sample();
    }
}

/** Set up one testbed: construction plus the profiling phase. */
std::unique_ptr<Testbed>
setUp(const Workload &w, uint64_t seed, bool traced, HostSpans &spans,
      RepResult &r)
{
    HostScope setup(spans, "setup");
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<Testbed> bed;
    {
        HostScope s(spans, "harness.Testbed");
        bed = std::make_unique<Testbed>(testbedOptions(w, seed, traced));
    }
    r.testbed_s = secondsSince(t0);
    Clock::time_point t1 = Clock::now();
    {
        HostScope s(spans, "harness.runProfilingPhase");
        r.root_selected = bed->runProfilingPhase();
    }
    r.profiling_s = secondsSince(t1);
    return bed;
}

/** What one repetition does besides the workload itself. */
struct RepOptions
{
    bool traced = false;
    bool short_mode = false;
    /** Replay dispatch over the installed program afterwards. */
    bool dispatch_kernel = false;
    /** Traced: write the sim-time Chrome trace here (empty = no). */
    std::string sim_trace_out;
};

/** One repetition: set up, then the timed phase, then harvest. */
RepResult
runRep(const Workload &w, uint64_t seed, const RepOptions &opts,
       HostSpans &spans, CoreProbe &probe, RssSampler &rss)
{
    RepResult r;
    Usage u0 = usageNow();
    std::unique_ptr<Testbed> bed =
        setUp(w, seed, opts.traced, spans, r);
    Testbed &b = *bed;
    Shape shape = shapeOf(w.kind, opts.short_mode);

    workload::Recorder recorder;
    workload::RequestSink raw = b.sink();
    uint64_t issued = 0;
    workload::RequestSink counted =
        [&issued, raw](int64_t id, std::function<void()> done) {
            ++issued;
            raw(id, std::move(done));
        };
    workload::ClosedLoopClients clients(b.sim(), counted, recorder);
    workload::OpenLoopArrivals arrivals(b.sim(), counted, recorder);

    {
        HostScope timed(spans, "timed");
        probe.reset();
        rss.reset();
        Clock::time_point t0 = Clock::now();
        probe.sample();
        rss.sample();
        SimTime start = b.sim().now();
        SimTime end = start + shape.load;
        core::OffloadManager *mgr = b.manager();
        switch (w.kind) {
          case Kind::Burst:
            // Figure 7: the load doubles at the burst and BeeHive
            // raises the offload ratio instead of scaling out.
            clients.start(shape.clients, start);
            clients.startWindow(shape.clients, start + shape.pre_burst,
                                end);
            b.sim().at(start + shape.pre_burst,
                       [mgr, ratio = shape.ratio] {
                           mgr->setOffloadRatio(ratio);
                       });
            break;
          case Kind::Steady:
            arrivals.run(shape.rps, start, end);
            break;
          case Kind::Storm:
            mgr->setOffloadRatio(shape.ratio);
            clients.start(shape.clients, start);
            break;
        }
        runSliced(b, end, spans, probe, rss);
        clients.stopAll();
        // Drain: every issued request must complete. The guard
        // bounds a run in which a request was genuinely dropped.
        SimTime guard = b.sim().now() + SimTime::sec(600);
        while (recorder.completed() < issued && b.sim().now() < guard)
            runSliced(b, b.sim().now() + SimTime::sec(1), spans, probe,
                      rss);
        // The probe's and the sampler's own time is not the
        // simulator's.
        r.timed_s = secondsSince(t0) - probe.seconds() - rss.seconds();
        r.probe_ns = probe.nsPerIteration();
    }

    {
        HostScope harvest(spans, "harvest");
        r.issued = issued;
        r.completed = recorder.completed();
        const sim::SampleSet &lat = recorder.latencies();
        r.samples = lat.count();
        r.p50_ms = lat.empty() ? 0.0 : lat.percentile(50.0) * 1e3;
        r.p99_ms = lat.empty() ? 0.0 : lat.percentile(99.0) * 1e3;
        uint64_t within = 0;
        for (double s : lat.samples())
            within += s <= 1.0 ? 1 : 0;
        r.goodput_rps =
            static_cast<double>(within) / shape.load.toSeconds();
        r.rss_p99_mb = rss.percentileMb(99.0);
        r.events = b.sim().queue().dispatched();
        r.cancel_ratio = ratioOf(b.sim().queue().cancelled(),
                                 b.sim().queue().scheduled());
        r.layers = harvestLayers(b);
        if (telemetry::Tracer *t = b.tracer()) {
            r.telemetry = harvestTelemetry(*t);
            if (!opts.sim_trace_out.empty() &&
                !writeFile(opts.sim_trace_out,
                           telemetry::toChromeTraceJson(*t, 0)))
                std::fprintf(stderr, "hostbench: cannot write %s\n",
                             opts.sim_trace_out.c_str());
        }
    }
    if (opts.dispatch_kernel) {
        HostScope s(spans, "kernel.dispatch");
        r.dispatch_ns = dispatchNs(b.program(), 50000000);
    }
    bed.reset();
    Usage u1 = usageNow();
    r.minor_faults = u1.minor_faults - u0.minor_faults;
    r.user_s = u1.user_s - u0.user_s;
    r.sys_s = u1.sys_s - u0.sys_s;
    return r;
}

// ---------------------------------------------------------------
// Output

void
printValues(const Values &values)
{
    for (std::size_t i = 0; i < values.size(); ++i) {
        std::printf("%s\"%s\": %.17g", i ? ", " : "",
                    values[i].first.c_str(), values[i].second);
    }
}

void
printRep(int index, bool traced, const RepResult &r)
{
    std::printf("{\"record\": \"%s\", \"rep\": %d, "
                "\"root_selected\": %s, \"testbed_s\": %.9f, "
                "\"profiling_s\": %.9f, \"timed_s\": %.9f, "
                "\"issued\": %llu, \"completed\": %llu, "
                "\"samples\": %llu, \"p50_ms\": %.17g, "
                "\"p99_ms\": %.17g, \"goodput_rps\": %.17g, "
                "\"events\": %llu, "
                "\"cancel_ratio\": %.17g, \"minor_faults\": %llu, "
                "\"user_s\": %.6f, \"sys_s\": %.6f, "
                "\"dispatch_ns\": %.6f, \"probe_ns\": %.9f, "
                "\"rss_p99_mb\": %.6f, \"layers\": {",
                traced ? "traced" : "untraced", index,
                r.root_selected ? "true" : "false", r.testbed_s,
                r.profiling_s, r.timed_s,
                static_cast<unsigned long long>(r.issued),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.samples), r.p50_ms,
                r.p99_ms, r.goodput_rps,
                static_cast<unsigned long long>(r.events),
                r.cancel_ratio,
                static_cast<unsigned long long>(r.minor_faults),
                r.user_s, r.sys_s, r.dispatch_ns, r.probe_ns, r.rss_p99_mb);
    printValues(r.layers);
    std::printf("}, \"telemetry\": {");
    printValues(r.telemetry);
    std::printf("}}\n");
    std::fflush(stdout);
}

/** A set-up with no timed phase, for the set-up time median; the
 * core probe is sampled right before and right after it. */
void
setupOnly(const Workload &w, uint64_t seed, HostSpans &spans,
          CoreProbe &probe, int index)
{
    HostScope rep(spans, "rep.setup_only");
    RepResult r;
    probe.reset();
    probe.sample();
    std::unique_ptr<Testbed> bed = setUp(w, seed, false, spans, r);
    probe.sample();
    bed.reset();
    std::printf("{\"record\": \"setup\", \"rep\": %d, "
                "\"root_selected\": %s, \"testbed_s\": %.9f, "
                "\"profiling_s\": %.9f, \"probe_ns\": %.9f}\n",
                index, r.root_selected ? "true" : "false", r.testbed_s,
                r.profiling_s, probe.nsPerIteration());
}

/** Set-ups per untraced run: about 3-5 s of set-up. */
constexpr int kSetups = 60;

int
usage()
{
    std::fprintf(stderr,
                 "usage: hostbench --workload NAME --seed N "
                 "[--seconds S] "
                 "[--traced] [--short] [--spans-out FILE] "
                 "[--sim-trace-out FILE]\n"
                 "workloads: burst-pybbs steady-thumbnail "
                 "storm-pybbs\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    uint64_t seed = 0;
    bool have_seed = false;
    double seconds = 10.0;
    bool traced = false;
    bool short_mode = false;
    std::string spans_out;
    std::string sim_trace_out;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool more = i + 1 < argc;
        if (a == "--workload" && more)
            name = argv[++i];
        else if (a == "--seed" && more) {
            seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (a == "--seconds" && more)
            seconds = std::strtod(argv[++i], nullptr);
        else if (a == "--traced")
            traced = true;
        else if (a == "--short")
            short_mode = true;
        else if (a == "--spans-out" && more)
            spans_out = argv[++i];
        else if (a == "--sim-trace-out" && more)
            sim_trace_out = argv[++i];
        else
            return usage();
    }
    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads) {
        if (name == cand.name)
            w = &cand;
    }
    if (!w || !have_seed || !(seconds > 0.0))
        return usage();

    // Every function instance allocates an 18 MB heap. glibc raises
    // its mmap threshold whenever a large block is freed, so whether
    // a new heap is a fresh mapping (and page-faults) or reuses freed
    // memory depends on what earlier instances and repetitions freed:
    // one storm-pybbs repetition took 0.23M minor faults, another of
    // the same seed 1.37M. Pinning the threshold at glibc's initial
    // 128 KiB makes every heap a fresh mapping, so a seed's faults
    // repeat within 1%.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    // Quiet the simulator's info lines; results go to stdout only.
    setLogQuiet(true);
    std::printf("{\"record\": \"build\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\"}\n",
#if defined(__clang__)
                "clang " __clang_version__,
#elif defined(__GNUC__)
                "gcc " __VERSION__,
#else
                "unknown",
#endif
                PERFBENCH_BUILD_TYPE);
    HostSpans spans(traced);
    CoreProbe probe;
    RssSampler rss;
    Clock::time_point run_start = Clock::now();

    // The untraced run first sets up kSetups testbeds with no timed
    // phase: several seconds of set-up, so that setup_s is a median
    // over a stretch long enough to average the host's noise. They
    // run before any repetition, because after a burst-pybbs
    // repetition has freed its 1.25 GB a set-up's page faults cost
    // anything from 30 to 90 ms. The traced run needs no set-up
    // median; short mode keeps a few to exercise the path.
    const int setups = traced ? 0 : short_mode ? 4 : kSetups;
    for (int i = 0; i < setups; ++i)
        setupOnly(*w, seed, spans, probe, i);

    // Untraced: at least two repetitions, so that determinism is
    // checked. Traced: untraced and traced repetitions alternate (so
    // drift hits both alike), at least one of each. Either way the
    // run stops at the repetition that ends nearest to --seconds of
    // wall time, set-ups included: it overshoots by half a
    // repetition at most.
    const int min_reps = traced ? 1 : 2;
    Clock::time_point reps_start = Clock::now();
    int untraced_reps = 0, traced_reps = 0;
    double cancel_ratio = 0.0;
    auto more = [&] {
        if ((traced ? traced_reps : untraced_reps) < min_reps)
            return true;
        int reps = untraced_reps + traced_reps;
        double per_rep = secondsSince(reps_start) / reps;
        return secondsSince(run_start) + 0.5 * per_rep < seconds;
    };
    while (more()) {
        RepOptions opts;
        opts.short_mode = short_mode;
        opts.traced = traced && untraced_reps > traced_reps;
        if (opts.traced && traced_reps == 0) {
            opts.dispatch_kernel = true;
            opts.sim_trace_out = sim_trace_out;
        }
        HostScope rep(spans, opts.traced ? "rep.traced" : "rep.untraced");
        RepResult r = runRep(*w, seed, opts, spans, probe, rss);
        int &count = opts.traced ? traced_reps : untraced_reps;
        printRep(count++, opts.traced, r);
        cancel_ratio = r.cancel_ratio;
    }

    if (traced) {
        HostScope kernels(spans, "kernels");
        Values k;
        {
            HostScope s(spans, "kernel.event_queue");
            k.emplace_back("sim.queue_ns_per_op",
                           queueNsPerOp(cancel_ratio, 20000000));
        }
        {
            HostScope s(spans, "kernel.interpreter");
            k.emplace_back("vm.interp_ns_per_instr",
                           interpNsPerInstr(3000000));
        }
        std::printf("{\"record\": \"kernels\", \"values\": {");
        printValues(k);
        std::printf("}}\n");
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"record\": \"process\", \"peak_rss_mb\": %.3f, "
                "\"host_span_violations\": %llu, "
                "\"host_spans\": %zu}\n",
                static_cast<double>(ru.ru_maxrss) / 1024.0,
                static_cast<unsigned long long>(spans.violations()),
                spans.size());
    if (!spans_out.empty() && !spans.write(spans_out)) {
        std::fprintf(stderr, "hostbench: cannot write %s\n",
                     spans_out.c_str());
        return 1;
    }
    return 0;
}
