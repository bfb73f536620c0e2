/**
 * @file
 * Per-endpoint VM state: loaded klasses, statics, warmup, hooks.
 *
 * One VmContext is the analogue of one JVM instance: the server runs
 * one, and every FaaS function instance runs one. Interpreters (one
 * per in-flight request) share their endpoint's context.
 */

#ifndef BEEHIVE_VM_CONTEXT_H
#define BEEHIVE_VM_CONTEXT_H

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "support/logging.h"
#include "vm/heap.h"
#include "vm/natives.h"
#include "vm/program.h"
#include "vm/value.h"

namespace beehive::vm {

class Profiler;
class RaceOracle;

/** How the interpreter should treat a native call on this endpoint. */
enum class NativeDisposition
{
    RunLocal,  //!< execute the handler here
    Fallback,  //!< suspend; the driver performs a server round trip
};

/** Tuning knobs of one VM instance. */
struct VmConfig
{
    /** Endpoint number used for lock-owner words (0 = server). */
    uint16_t endpoint = 0;

    /** FaaS-side remote-reference load checks (paper Section 4.1). */
    bool check_remote_refs = false;

    /** Suspend after this much accumulated compute (CPU ns). */
    double quantum_ns = 100000.0; // 100 us

    /** Base cost of one bytecode instruction at full speed (ns). */
    double instr_cost_ns = 2.0;

    /**
     * JVM warmup model: methods run @ref cold_multiplier times
     * slower until they have been invoked jit_threshold times on
     * this endpoint ("the first-time execution is usually slow",
     * paper Section 3.4).
     */
    uint32_t jit_threshold = 5;
    double cold_multiplier = 8.0;

    /** Klass used for byte objects created by NewBytes. */
    KlassId bytes_klass = kNoKlass;
    /** Klass used for plain arrays created by helpers. */
    KlassId array_klass = kNoKlass;
};

/**
 * The mutable state of one VM instance.
 */
class VmContext
{
  public:
    /**
     * Policy asked on MonitorEnter: does acquiring @p obj require a
     * cross-endpoint synchronization (previous owner elsewhere)?
     * Installed by the BeeHive runtime; null means never.
     */
    using MonitorPolicy = std::function<bool(Ref obj)>;

    /** Hook fired when a monitor is released (release consistency). */
    using MonitorReleaseHook = std::function<void(Ref obj)>;

    /**
     * Policy asked before running a native on this endpoint.
     * Installed by the BeeHive runtime; null means RunLocal.
     */
    using NativePolicy = std::function<NativeDisposition(
        const NativeMethod &native, std::span<const Value> args)>;

    VmContext(const Program &program, NativeRegistry &natives,
              Heap &heap, VmConfig config);

    const Program &program() const { return program_; }
    NativeRegistry &natives() { return natives_; }
    Heap &heap() { return heap_; }
    const VmConfig &config() const { return config_; }
    VmConfig &config() { return config_; }

    /** @name Klass loading */
    /// @{
    bool
    isLoaded(KlassId id) const
    {
        bh_assert(id < loaded_.size(), "bad klass id");
        return loaded_[id];
    }
    /** Install a klass (fault resolution or initial closure). */
    void loadKlass(KlassId id);
    /** Load every klass in the program (server startup). */
    void loadAll();
    std::size_t loadedCount() const { return loaded_count_; }
    /// @}

    /** @name Statics */
    /// @{
    Value getStatic(KlassId klass, uint32_t slot);
    void setStatic(KlassId klass, uint32_t slot, Value v);
    /** Iterate all static slots (GC roots, sync). */
    void forEachStatic(const std::function<void(Value &)> &fn);
    /// @}

    /** @name Remote object mapping (FaaS side) */
    /// @{
    /** Record that server object @p remote now lives at @p local. */
    void mapRemote(Ref remote, Ref local);
    /** Local address for a fetched remote object (kNullRef if none). */
    Ref lookupRemote(Ref remote) const;
    std::size_t remoteMapSize() const { return remote_map_.size(); }
    /// @}

    /** @name Warmup model */
    /// @{
    /** Count an invocation; returns the cost multiplier to apply. */
    double
    methodEntered(MethodId id)
    {
        if (id >= invocation_counts_.size()) [[unlikely]]
            growInvocationCounts(id);
        uint64_t &count = invocation_counts_[id];
        double mult = count < config_.jit_threshold
                          ? config_.cold_multiplier
                          : 1.0;
        ++count;
        return mult;
    }
    /** Current multiplier without counting. */
    double costMultiplier(MethodId id) const;
    uint64_t invocations(MethodId id) const;
    /// @}

    /**
     * Policy asked at every bytecode call site: should this call be
     * redirected to a FaaS function (the Semi-FaaS split)? The
     * offload manager installs it on the server; it must return
     * true only when an offload will actually be dispatched.
     */
    using OffloadPolicy = std::function<bool(MethodId)>;

    /** @name Policies and hooks */
    /// @{
    void setOffloadPolicy(OffloadPolicy p)
    {
        offload_policy_ = std::move(p);
    }
    bool
    shouldOffload(MethodId id) const
    {
        return offload_policy_ && offload_policy_(id);
    }
    void setMonitorPolicy(MonitorPolicy p) { monitor_policy_ = std::move(p); }
    void setMonitorReleaseHook(MonitorReleaseHook h)
    {
        monitor_release_ = std::move(h);
    }
    void setNativePolicy(NativePolicy p) { native_policy_ = std::move(p); }
    void setProfiler(Profiler *p) { profiler_ = p; }
    Profiler *profiler() { return profiler_; }
    /** Dynamic race oracle; null (the default) = not tracking. */
    void setRaceOracle(RaceOracle *o) { race_oracle_ = o; }
    RaceOracle *raceOracle() { return race_oracle_; }

    bool needsRemoteAcquire(Ref obj) const
    {
        return monitor_policy_ && monitor_policy_(obj);
    }
    void monitorReleased(Ref obj)
    {
        if (monitor_release_)
            monitor_release_(obj);
    }
    NativeDisposition
    nativeDisposition(const NativeMethod &native,
                      std::span<const Value> args) const
    {
        return native_policy_ ? native_policy_(native, args)
                              : NativeDisposition::RunLocal;
    }
    /// @}

    /** One-shot override: run the next faulting native locally. */
    void forceNextNativeLocal() { force_local_native_ = true; }
    bool consumeForceLocalNative()
    {
        bool v = force_local_native_;
        force_local_native_ = false;
        return v;
    }

    /** @name Inline caches (CallVirt dispatch)
     *
     * One monomorphic cache line per CallVirt site, owned by the
     * endpoint (so caches stay warm across the per-request
     * interpreters, like compiled call sites in a long-lived JVM).
     * The interpreter consults the line before touching the frozen
     * vtable; hits/misses are counted per interpreter in InterpStats
     * and aggregated here for endpoint-level reporting.
     */
    /// @{
    struct InlineCache
    {
        KlassId klass = kNoKlass;   //!< cached receiver klass
        MethodId method = kNoMethod; //!< resolved target
        uint32_t fills = 0;          //!< 1 = stayed monomorphic
    };

    /** Cache line for pc @p pc of method @p m (lazily allocated). */
    InlineCache &
    inlineCache(MethodId m, uint32_t pc)
    {
        if (m < ic_lines_.size() && pc < ic_lines_[m].size()) [[likely]]
            return ic_lines_[m][pc];
        return allocInlineCache(m, pc);
    }

    /** Endpoint-wide dispatch counters (summed over interpreters). */
    void countDispatch(bool hit)
    {
        if (hit)
            ++ic_hits_;
        else
            ++ic_misses_;
    }
    uint64_t icHits() const { return ic_hits_; }
    uint64_t icMisses() const { return ic_misses_; }

    /** Visit every filled cache line (site stats, benches). */
    void forEachInlineCache(
        const std::function<void(MethodId, uint32_t,
                                 const InlineCache &)> &fn) const;
    /// @}

    /** Per-context native invocation census (Table 2). */
    void countNative(NativeCategory cat) { native_counts_[
        static_cast<std::size_t>(cat)]++; }
    uint64_t nativeCount(NativeCategory cat) const
    {
        return native_counts_[static_cast<std::size_t>(cat)];
    }
    void resetNativeCounts() { native_counts_.fill(0); }

  private:
    void growInvocationCounts(MethodId id);
    InlineCache &allocInlineCache(MethodId m, uint32_t pc);

    const Program &program_;
    NativeRegistry &natives_;
    Heap &heap_;
    VmConfig config_;

    std::vector<bool> loaded_;
    std::size_t loaded_count_ = 0;
    std::map<KlassId, std::vector<Value>> statics_;
    std::unordered_map<Ref, Ref> remote_map_;
    /** Invocations per method id (dense: ids are small). */
    std::vector<uint64_t> invocation_counts_;

    OffloadPolicy offload_policy_;
    MonitorPolicy monitor_policy_;
    MonitorReleaseHook monitor_release_;
    NativePolicy native_policy_;
    Profiler *profiler_ = nullptr;
    RaceOracle *race_oracle_ = nullptr;
    bool force_local_native_ = false;
    std::array<uint64_t, 4> native_counts_{};

    /** ic_lines_[method][pc]: flat per-site cache lines. */
    std::vector<std::vector<InlineCache>> ic_lines_;
    uint64_t ic_hits_ = 0;
    uint64_t ic_misses_ = 0;
};

} // namespace beehive::vm

#endif // BEEHIVE_VM_CONTEXT_H
