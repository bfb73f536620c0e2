/**
 * @file
 * The steppable bytecode interpreter.
 *
 * The interpreter keeps its call frames in an explicit stack and can
 * suspend at any instruction boundary, returning a typed Suspend
 * describing why. One invocation driver (core::Invocation) serves
 * these suspensions on the server and on every function instance:
 *
 *   - Quantum: the configured compute budget was consumed; the
 *     driver charges the accumulated cost to the endpoint's
 *     simulated CPU and resumes, giving processor-sharing fidelity;
 *   - ClassFault / ObjectFault: the paper's missing-code and
 *     missing-data fallbacks (Section 3.1); the instruction is NOT
 *     advanced, so resolving the fault and calling run() retries it;
 *   - NativeFallback: a native call this endpoint may not run
 *     locally (Section 3.2);
 *   - MonitorAcquire / MonitorRelease / VolatileSync: a shared
 *     object's monitor or volatile needs a JMM-style
 *     synchronization through the server (Section 4.2);
 *   - HeapFull: an allocation failed; the driver runs a GC;
 *   - OffloadCall: a server call site was redirected to FaaS;
 *   - External: a native requested an external operation (e.g. a
 *     database round trip via the proxy); resume with
 *     resumeExternal() once the driver has the result;
 *   - Done: the root method returned.
 *
 * This explicit suspension design is also what makes stack
 * snapshots for failure recovery (Section 4.5) straightforward:
 * snapshotFrames() hands out frames as plain data.
 *
 * Stack layout. Each interpreter owns one contiguous Value array.
 * A live frame is a window on it: its locals start at a base index
 * and its operand stack sits directly above them. A call leaves its
 * arguments where the caller pushed them, and they become the
 * callee's first locals, so entering a method allocates nothing.
 * Frames are therefore adjacent: frame i's operand-stack top is
 * frame i+1's locals base, and the whole live region is [0, sp).
 * The array starts small and doubles when a push or an entry would
 * overrun it. Each frame also caches its method's code pointer and
 * length, so the dispatch loop never goes back to the Program.
 *
 * snapshotFrames() materializes every window into a vm::Frame with
 * its own locals and stack vectors; restoreFrames() lays such
 * vectors out again as adjacent windows. A restored interpreter
 * therefore runs exactly like the one the snapshot came from.
 */

#ifndef BEEHIVE_VM_INTERPRETER_H
#define BEEHIVE_VM_INTERPRETER_H

#include <any>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "vm/context.h"
#include "vm/program.h"
#include "vm/value.h"

namespace beehive::vm {

/**
 * One activation record as snapshot data: plain and copyable. The
 * running interpreter keeps frames as windows on its value stack;
 * snapshotFrames() copies each window out into one of these.
 */
struct Frame
{
    MethodId method = kNoMethod;
    uint32_t pc = 0;
    double cost_multiplier = 1.0;
    std::vector<Value> locals;
    std::vector<Value> stack;
};

/** Why run() returned. */
struct Suspend
{
    enum class Kind
    {
        Done,
        Quantum,
        ClassFault,
        ObjectFault,
        NativeFallback,
        MonitorAcquire,
        External,
        HeapFull,   //!< allocation failed; the driver must run a GC
        OffloadCall, //!< a call site redirected to FaaS (Semi-FaaS)
        MonitorRelease, //!< monitor of a shared object released
        VolatileSync,   //!< volatile access needs a JMM data sync
    };

    Kind kind = Kind::Done;
    Value result;                 //!< Done: the return value.
    KlassId klass = kNoKlass;     //!< ClassFault: the missing klass.
    Ref remote_ref = kNullRef;    //!< ObjectFault: the remote address.
    uint32_t native_id = 0;       //!< NativeFallback: which native.
    Ref monitor_obj = kNullRef;   //!< Monitor*/VolatileSync object.
    bool volatile_write = false;  //!< VolatileSync: release vs acquire.
    std::any external;            //!< External: driver-defined payload.
    MethodId offload_method = kNoMethod; //!< OffloadCall target.
    std::vector<Value> offload_args;     //!< OffloadCall arguments.
};

/** Counters a single interpreter accumulates (fallback analysis). */
struct InterpStats
{
    uint64_t instructions = 0;
    uint64_t calls = 0;
    uint64_t native_calls = 0;
    uint64_t monitor_enters = 0;
    uint64_t remote_hits = 0;   //!< remote refs resolved via the map
    uint64_t ic_hits = 0;       //!< CallVirt inline-cache hits
    uint64_t ic_misses = 0;     //!< CallVirt cache fills / refills
};

/** Executes one request at a time against a shared VmContext. */
class Interpreter
{
  public:
    explicit Interpreter(VmContext &ctx);

    /** Begin executing @p entry with the given arguments. */
    void start(MethodId entry, std::vector<Value> args);

    /** True while there are frames to run. */
    bool running() const { return !frames_.empty(); }

    /** Execute until the next suspension point. */
    Suspend run();

    /**
     * CPU nanoseconds accumulated since the last call; the caller
     * charges them to the simulated CPU. Resets the accumulator.
     */
    double consumeCost();

    /** Complete an External/OffloadCall suspension with its result. */
    void resumeExternal(Value result);

    /**
     * Monitor grant: the driver calls this once the SyncManager
     * granted the MonitorAcquire suspension; the retried
     * MonitorEnter then proceeds instead of re-suspending (the
     * one-shot flag is what makes acquisition atomic under
     * contention).
     */
    void grantMonitor(Ref obj) { granted_monitor_ = obj; }

    /** Release bookkeeping done: let the MonitorExit retry pass. */
    void grantRelease() { release_granted_ = true; }

    /** Volatile data sync done: let the access retry proceed. */
    void grantVolatile(Ref obj) { granted_volatile_ = obj; }

    /**
     * Never redirect calls to FaaS from this interpreter (used for
     * the server-local execution of a handler whose offload attempt
     * chose the local path, and for vanilla baselines).
     */
    void setSuppressOffload(bool on) { suppress_offload_ = on; }

    /** @name Failure recovery (paper Section 4.5) */
    /// @{
    /** Copy of the current frame stack, one Frame per window. */
    std::vector<Frame> snapshotFrames() const;
    /** Replace the frame stack (re-execution from a sync point). */
    void restoreFrames(std::vector<Frame> frames);
    /// @}

    /** Iterate every root reference (GC). */
    void forEachRoot(const std::function<void(Value &)> &fn);

    /** @name Profiling support */
    /// @{
    /**
     * Automatic candidate profiling: when enabled and the context
     * has a Profiler, entering a candidate method starts recording
     * its dynamic extent (klasses used, statics touched, cost);
     * returning from it flushes a RootProfile sample. This is how
     * framework plumbing around an annotated handler stays out of
     * the handler's profile (Section 4.3).
     */
    void enableCandidateProfiling(bool on)
    {
        candidate_profiling_ = on;
    }

    /** Record klass-use and static-access sets during execution. */
    void enableRecording(bool on) { recording_ = on; }
    const std::set<KlassId> &recordedKlasses() const
    {
        return recorded_klasses_;
    }
    const std::set<std::pair<KlassId, uint32_t>> &
    recordedStatics() const
    {
        return recorded_statics_;
    }
    /** (receiver klass, field index) pairs actually read. */
    const std::set<std::pair<KlassId, uint32_t>> &
    recordedFieldReads() const
    {
        return recorded_field_reads_;
    }
    void clearRecording();
    /// @}

    /** @name Dynamic race oracle (VmContext::setRaceOracle) */
    /// @{
    /**
     * Execution-context id in the context's RaceOracle. start()
     * registers one lazily; drivers that model fork edges (offload
     * dispatch, test schedulers) can install a pre-forked tid
     * instead before calling start().
     */
    void setRaceTid(int tid) { race_tid_ = tid; }
    int raceTid() const { return race_tid_; }
    /// @}

    const InterpStats &stats() const { return stats_; }
    std::size_t frameDepth() const { return frames_.size(); }

    VmContext &context() { return ctx_; }

  private:
    /**
     * A live frame: a window on values_ plus the cached code of its
     * method. Locals are [base, stack_base); the operand stack starts
     * at stack_base. The top frame's operand-stack top is sp_; a
     * caller's saved top is its callee's base.
     */
    struct Activation
    {
        const Instr *code = nullptr;
        uint32_t code_size = 0;
        MethodId method = kNoMethod;
        uint32_t pc = 0;
        uint32_t base = 0;
        uint32_t stack_base = 0;
        double cost_multiplier = 1.0;
    };

    /** @name Value stack of the top frame */
    /// @{
    void
    push(Value v)
    {
        if (sp_ == limit_) [[unlikely]]
            growStack(capacity_ + 1);
        *sp_++ = v;
    }
    Value
    pop()
    {
        if (sp_ == opbase_) [[unlikely]]
            stackUnderflow();
        return *--sp_;
    }
    Value &
    peek(std::size_t depth = 0)
    {
        if (static_cast<std::size_t>(sp_ - opbase_) <= depth) [[unlikely]]
            peekUnderflow(depth);
        return sp_[-1 - static_cast<std::ptrdiff_t>(depth)];
    }
    std::size_t depth() const
    {
        return static_cast<std::size_t>(sp_ - opbase_);
    }
    /**
     * Ensure the value stack holds at least @p min_capacity slots,
     * doubling from a small start. Keeps [0, sp_) and rebases the
     * top-frame pointers.
     */
    void growStack(std::size_t min_capacity);
    /** Re-derive locals_/opbase_ for the new top frame. */
    void bindTop();
    /** Name of the top frame's method, for failure reports. */
    const char *topMethodName() const;
    [[noreturn]] void stackUnderflow() const;
    [[noreturn]] void peekUnderflow(std::size_t depth) const;
    /// @}

    /**
     * Check a just-loaded value for the remote mark; rewrite it via
     * the remote map (resetting the bit at @p slot, exactly like the
     * paper) or produce an ObjectFault.
     *
     * @retval true when execution may continue.
     */
    bool checkLoadedValue(Value &slot, Suspend &out);

    /**
     * Resolve an object reference about to be dereferenced. Faults
     * on unmapped remote refs; rewrites mapped ones in place.
     */
    bool resolveRef(Value &v, Suspend &out);

    /**
     * Read barrier for a value just loaded from the heap or statics:
     * single branch on the fast (local) path, and on the slow path
     * resolves the remote ref via checkLoadedValue() and persists
     * the rewritten value through @p writeback (resetting the remote
     * bit at its home location, paper Section 4.1).
     *
     * @retval true when execution may continue.
     */
    template <typename Writeback>
    bool loadBarrier(Value &v, Suspend &out, Writeback &&writeback);

    /** Ensure a klass is loaded; otherwise fill @p out and fault. */
    bool requireKlass(KlassId id, Suspend &out);

    /** @name Candidate recording
     * The sets keep their ordered iteration (the closure builder
     * walks them); a dense first-sight bitset in front of each one
     * means a key already recorded costs a bit test, not a tree
     * search. Pairs whose index is >= 64 skip the bitset. */
    /// @{
    void
    recordKlass(KlassId k)
    {
        const std::size_t word = k / 64;
        if (word < seen_klasses_.size() &&
            (seen_klasses_[word] >> (k % 64) & 1))
            return;
        recordKlassSlow(k);
    }
    void
    recordPair(std::vector<uint64_t> &seen,
               std::set<std::pair<KlassId, uint32_t>> &set, KlassId k,
               uint32_t index)
    {
        if (index < 64 && k < seen.size() && (seen[k] >> index & 1))
            return;
        recordPairSlow(seen, set, k, index);
    }
    void recordKlassSlow(KlassId k);
    void recordPairSlow(std::vector<uint64_t> &seen,
                        std::set<std::pair<KlassId, uint32_t>> &set,
                        KlassId k, uint32_t index);
    /// @}

    /**
     * True when the object the New/NewArr at @p f's pc makes, with
     * charge @p c, is dead on arrival: the next instruction is Pop,
     * and the quantum check after this instruction will not fire
     * (the exact sum charge() forms stays below @p quantum_ns). No
     * suspension point then lies between the allocation and the Pop,
     * so no root, snapshot, collector or oracle can see the ref, and
     * the heap may reserve the object without writing it.
     */
    bool
    deadOnArrival(const Activation &f, double c, double quantum_ns) const
    {
        return f.pc + 1 < f.code_size && f.code[f.pc + 1].op == Op::Pop &&
               quantum_acc_ + c < quantum_ns;
    }

    void charge(double ns)
    {
        pending_cost_ += ns;
        quantum_acc_ += ns;
        cost_total_ += ns;
    }
    /** Push a frame whose num_args arguments already sit at @p base. */
    void enterMethod(MethodId id, const Method &m, uint32_t base);
    bool invoke(MethodId id, Suspend &out);
    bool invokeNative(const Method &m, Suspend &out);

    VmContext &ctx_;
    std::vector<Activation> frames_;
    /** The value stack; every frame is a window on it. */
    std::unique_ptr<Value[]> values_;
    std::size_t capacity_ = 0;
    Value *locals_ = nullptr;  //!< top frame's locals
    Value *opbase_ = nullptr;  //!< top frame's operand-stack bottom
    Value *sp_ = nullptr;      //!< one past the top frame's top value
    Value *limit_ = nullptr;   //!< values_ + capacity_
    double pending_cost_ = 0.0;
    double quantum_acc_ = 0.0;
    double cost_total_ = 0.0;
    bool awaiting_external_ = false;
    bool suppress_offload_ = false;
    bool candidate_profiling_ = false;
    Ref granted_monitor_ = kNullRef;
    Ref granted_volatile_ = kNullRef;
    bool release_granted_ = false;
    bool candidate_active_ = false;
    MethodId candidate_root_ = kNoMethod;
    std::size_t candidate_depth_ = 0;
    double candidate_cost_start_ = 0.0;
    uint64_t candidate_syncs_start_ = 0;
    int race_tid_ = -1;
    bool recording_ = false;
    std::set<KlassId> recorded_klasses_;
    std::set<std::pair<KlassId, uint32_t>> recorded_statics_;
    std::set<std::pair<KlassId, uint32_t>> recorded_field_reads_;
    /** First-sight bitsets: one bit per klass; one 64-bit word of
     * indices per klass for the pair sets. Sized on first use. */
    std::vector<uint64_t> seen_klasses_;
    std::vector<uint64_t> seen_statics_;
    std::vector<uint64_t> seen_field_reads_;
    InterpStats stats_;
};

} // namespace beehive::vm

#endif // BEEHIVE_VM_INTERPRETER_H
