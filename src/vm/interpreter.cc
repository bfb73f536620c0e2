#include "vm/interpreter.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "support/logging.h"
#include "vm/profiler.h"
#include "vm/race_oracle.h"

namespace beehive::vm {

namespace {

/** Value slots a fresh interpreter starts with; doubles on demand. */
constexpr std::size_t kInitialStackSlots = 32;

} // namespace

Interpreter::Interpreter(VmContext &ctx) : ctx_(ctx)
{
}

void
Interpreter::growStack(std::size_t min_capacity)
{
    if (min_capacity <= capacity_)
        return;
    const std::size_t used =
        values_ ? static_cast<std::size_t>(sp_ - values_.get()) : 0;
    std::size_t cap = std::max(capacity_, kInitialStackSlots);
    while (cap < min_capacity)
        cap *= 2;
    auto grown = std::make_unique<Value[]>(cap);
    std::copy(values_.get(), values_.get() + used, grown.get());
    values_ = std::move(grown);
    capacity_ = cap;
    limit_ = values_.get() + cap;
    sp_ = values_.get() + used;
    bindTop();
}

void
Interpreter::bindTop()
{
    if (frames_.empty()) {
        locals_ = opbase_ = values_.get();
        return;
    }
    const Activation &a = frames_.back();
    locals_ = values_.get() + a.base;
    opbase_ = values_.get() + a.stack_base;
}

const char *
Interpreter::topMethodName() const
{
    if (frames_.empty())
        return "<no frame>";
    return ctx_.program().method(frames_.back().method).name.c_str();
}

void
Interpreter::stackUnderflow() const
{
    detail::assertFailed(BEEHIVE_WHERE, "sp_ != opbase_",
                         "stack underflow in %s", topMethodName());
}

void
Interpreter::peekUnderflow(std::size_t depth) const
{
    detail::assertFailed(BEEHIVE_WHERE, "sp_ - opbase_ > depth",
                         "stack underflow on peek(%zu) in %s", depth,
                         topMethodName());
}

void
Interpreter::start(MethodId entry, std::vector<Value> args)
{
    bh_assert(frames_.empty(), "start() while running");
    awaiting_external_ = false;
    if (ctx_.raceOracle() && race_tid_ < 0)
        race_tid_ = ctx_.raceOracle()->newThread();
    const Method &m = ctx_.program().method(entry);
    bh_assert(args.size() == m.num_args, "%s expects %u args, got %zu",
              m.name.c_str(), m.num_args, args.size());
    sp_ = values_.get();
    growStack(args.size());
    sp_ = std::copy(args.begin(), args.end(), sp_);
    enterMethod(entry, m, 0);
}

double
Interpreter::consumeCost()
{
    double v = pending_cost_;
    pending_cost_ = 0.0;
    return v;
}

void
Interpreter::clearRecording()
{
    recorded_klasses_.clear();
    recorded_statics_.clear();
    recorded_field_reads_.clear();
    std::fill(seen_klasses_.begin(), seen_klasses_.end(), 0);
    std::fill(seen_statics_.begin(), seen_statics_.end(), 0);
    std::fill(seen_field_reads_.begin(), seen_field_reads_.end(), 0);
}

void
Interpreter::recordKlassSlow(KlassId k)
{
    const std::size_t word = k / 64;
    if (word >= seen_klasses_.size()) {
        seen_klasses_.resize(
            std::max(word + 1, (ctx_.program().klassCount() + 63) / 64));
    }
    seen_klasses_[word] |= uint64_t{1} << (k % 64);
    recorded_klasses_.insert(k);
}

void
Interpreter::recordPairSlow(std::vector<uint64_t> &seen,
                            std::set<std::pair<KlassId, uint32_t>> &set,
                            KlassId k, uint32_t index)
{
    if (index < 64) {
        if (k >= seen.size()) {
            seen.resize(std::max<std::size_t>(
                static_cast<std::size_t>(k) + 1,
                ctx_.program().klassCount()));
        }
        seen[k] |= uint64_t{1} << index;
    }
    set.insert({k, index});
}

void
Interpreter::enterMethod(MethodId id, const Method &m, uint32_t base)
{
    bh_assert(!m.is_native, "enterMethod on native");
    bh_assert(m.num_args <= m.num_locals, "%s: num_args %u > num_locals %u",
              m.name.c_str(), m.num_args, m.num_locals);
    // The num_args arguments already sit at [base, base + num_args),
    // below sp_; the remaining locals start nil.
    const uint32_t stack_base = base + m.num_locals;
    growStack(stack_base);
    Value *v = values_.get();
    for (uint32_t i = base + m.num_args; i < stack_base; ++i)
        v[i] = Value::nil();
    Activation a;
    a.code = m.code.data();
    a.code_size = static_cast<uint32_t>(m.code.size());
    a.method = id;
    a.base = base;
    a.stack_base = stack_base;
    a.cost_multiplier = ctx_.methodEntered(id);
    frames_.push_back(a);
    sp_ = v + stack_base;
    locals_ = v + base;
    opbase_ = sp_;
    ++stats_.calls;
}

bool
Interpreter::requireKlass(KlassId id, Suspend &out)
{
    if (recording_)
        recordKlass(id);
    if (ctx_.isLoaded(id))
        return true;
    out.kind = Suspend::Kind::ClassFault;
    out.klass = id;
    return false;
}

bool
Interpreter::checkLoadedValue(Value &slot, Suspend &out)
{
    if (!ctx_.config().check_remote_refs)
        return true;
    if (!slot.isRef())
        return true;
    Ref r = slot.asRef();
    if (r == kNullRef || !isRemote(r))
        return true;
    Ref local = ctx_.lookupRemote(r);
    if (local != kNullRef) {
        // Reset the remote bit in place so later loads are local
        // (paper Section 4.1).
        slot = Value::ofRef(local);
        ++stats_.remote_hits;
        return true;
    }
    out.kind = Suspend::Kind::ObjectFault;
    out.remote_ref = r;
    return false;
}

template <typename Writeback>
inline bool
Interpreter::loadBarrier(Value &v, Suspend &out, Writeback &&writeback)
{
    if (!ctx_.config().check_remote_refs || !v.isRef() ||
        !isRemote(v.asRef()))
        return true;
    if (!checkLoadedValue(v, out))
        return false;
    writeback(v);
    return true;
}

inline bool
Interpreter::resolveRef(Value &v, Suspend &out)
{
    bh_assert(v.isRef(), "expected a reference, got kind %d",
              static_cast<int>(v.kind));
    bh_assert(v.asRef() != kNullRef, "null dereference in %s",
              ctx_.program().method(frames_.back().method)
                  .name.c_str());
    // The stack slot is the value's home, so the rewrite done by
    // checkLoadedValue() is already the writeback.
    return loadBarrier(v, out, [](Value &) {});
}

bool
Interpreter::invokeNative(const Method &m, Suspend &out)
{
    const NativeMethod &native = ctx_.natives().get(m.native_id);
    bh_assert(depth() >= m.num_args,
              "not enough args for native %s", native.name.c_str());

    // The arguments are a view of the operand stack. The policy sees
    // them before they are popped, so a fallback suspension leaves
    // the instruction retriable.
    std::span<const Value> args(sp_ - m.num_args, m.num_args);

    if (!ctx_.consumeForceLocalNative() &&
        ctx_.nativeDisposition(native, args) ==
            NativeDisposition::Fallback) {
        out.kind = Suspend::Kind::NativeFallback;
        out.native_id = m.native_id;
        return false;
    }

    // Pop them; the slots stay intact until the result is pushed
    // over the first one, after the handler returns.
    sp_ -= m.num_args;
    ++frames_.back().pc;
    ++stats_.native_calls;
    ctx_.countNative(native.category);

    NativeResult result = native.fn(ctx_, args);
    charge(result.cost_ns);
    if (result.external) {
        awaiting_external_ = true;
        out.kind = Suspend::Kind::External;
        out.external = std::move(*result.external);
        return false;
    }
    push(result.ret);
    return true;
}

bool
Interpreter::invoke(MethodId id, Suspend &out)
{
    const Method &m = ctx_.program().method(id);
    if (!requireKlass(m.owner, out))
        return false;
    if (m.is_native)
        return invokeNative(m, out);

    bh_assert(depth() >= m.num_args, "not enough args for %s",
              m.name.c_str());

    Activation &f = frames_.back();
    if (!suppress_offload_ && ctx_.shouldOffload(id)) {
        // Semi-FaaS split: redirect this call to a FaaS function.
        // The driver completes it via resumeExternal().
        std::vector<Value> args(sp_ - m.num_args, sp_);
        sp_ -= m.num_args;
        ++f.pc;
        awaiting_external_ = true;
        out.kind = Suspend::Kind::OffloadCall;
        out.offload_method = id;
        out.offload_args = std::move(args);
        return false;
    }

    ++f.pc;
    charge(20.0 * f.cost_multiplier); // call overhead
    // The arguments stay in place and become the callee's first
    // locals.
    enterMethod(id, m,
                static_cast<uint32_t>(sp_ - values_.get()) - m.num_args);

    // Candidate profiling: entering an annotated handler starts
    // recording its dynamic extent.
    if (candidate_profiling_ && !candidate_active_ &&
        ctx_.profiler() && ctx_.profiler()->isCandidate(id)) {
        candidate_active_ = true;
        candidate_root_ = id;
        candidate_depth_ = frames_.size();
        candidate_cost_start_ = cost_total_;
        candidate_syncs_start_ = stats_.monitor_enters;
        recording_ = true;
        clearRecording();
    }
    return true;
}

void
Interpreter::resumeExternal(Value result)
{
    bh_assert(awaiting_external_, "resumeExternal without suspension");
    awaiting_external_ = false;
    push(result);
}

Suspend
Interpreter::run()
{
    bh_assert(!frames_.empty(), "run() with no frames");
    bh_assert(!awaiting_external_,
              "run() while awaiting external completion");
    Suspend out;
    const VmConfig &cfg = ctx_.config();
    Heap &heap = ctx_.heap();
    // The top frame; re-read after anything that pushes or pops one.
    Activation *f = &frames_.back();

    while (true) {
        bh_assert(f->pc < f->code_size, "pc ran off method %s",
                  ctx_.program().method(f->method).name.c_str());
        const Instr &in = f->code[f->pc];
        const double mult = f->cost_multiplier;

        ++stats_.instructions;
        charge(cfg.instr_cost_ns * mult);

        switch (in.op) {
          case Op::Nop:
            break;

          case Op::PushI:
            push(Value::ofInt(in.a));
            break;

          case Op::PushF: {
            double d;
            int64_t bits = in.a;
            std::memcpy(&d, &bits, sizeof d);
            push(Value::ofFloat(d));
            break;
          }

          case Op::PushNil:
            push(Value::nil());
            break;

          case Op::Load: {
            bh_assert(static_cast<uint64_t>(in.a) <
                          static_cast<uint64_t>(opbase_ - locals_),
                      "bad local slot");
            if (!checkLoadedValue(locals_[in.a], out))
                return out;
            push(locals_[in.a]);
            break;
          }

          case Op::Store: {
            bh_assert(static_cast<uint64_t>(in.a) <
                          static_cast<uint64_t>(opbase_ - locals_),
                      "bad local slot");
            locals_[in.a] = pop();
            break;
          }

          case Op::Dup:
            push(peek());
            break;

          case Op::Pop:
            pop();
            break;

          case Op::Swap: {
            Value a = pop();
            Value b = pop();
            push(a);
            push(b);
            break;
          }

          case Op::Add: case Op::Sub: case Op::Mul:
          case Op::Div: case Op::Mod: {
            Value b = pop();
            Value a = pop();
            if (a.isInt() && b.isInt()) {
                int64_t x = a.asInt(), y = b.asInt(), r = 0;
                switch (in.op) {
                  case Op::Add: r = x + y; break;
                  case Op::Sub: r = x - y; break;
                  case Op::Mul: r = x * y; break;
                  // Division by zero yields 0 by definition in
                  // HiveVM; the apps never rely on trapping.
                  case Op::Div: r = y == 0 ? 0 : x / y; break;
                  case Op::Mod: r = y == 0 ? 0 : x % y; break;
                  default: break;
                }
                push(Value::ofInt(r));
            } else {
                double x = a.asNumber(), y = b.asNumber(), r = 0.0;
                switch (in.op) {
                  case Op::Add: r = x + y; break;
                  case Op::Sub: r = x - y; break;
                  case Op::Mul: r = x * y; break;
                  case Op::Div: r = y == 0.0 ? 0.0 : x / y; break;
                  case Op::Mod:
                    r = y == 0.0 ? 0.0 : std::fmod(x, y);
                    break;
                  default: break;
                }
                push(Value::ofFloat(r));
            }
            break;
          }

          case Op::Neg: {
            Value a = pop();
            if (a.isInt())
                push(Value::ofInt(-a.asInt()));
            else
                push(Value::ofFloat(-a.asNumber()));
            break;
          }

          case Op::CmpEq: case Op::CmpNe: {
            Value b = pop();
            Value a = pop();
            bool eq;
            if (a.isRef() || b.isRef())
                eq = a == b;
            else
                eq = a.asNumber() == b.asNumber();
            push(Value::ofInt((in.op == Op::CmpEq) == eq ? 1 : 0));
            break;
          }

          case Op::CmpLt: case Op::CmpLe: case Op::CmpGt:
          case Op::CmpGe: {
            Value b = pop();
            Value a = pop();
            double x = a.asNumber(), y = b.asNumber();
            bool r = false;
            switch (in.op) {
              case Op::CmpLt: r = x < y; break;
              case Op::CmpLe: r = x <= y; break;
              case Op::CmpGt: r = x > y; break;
              case Op::CmpGe: r = x >= y; break;
              default: break;
            }
            push(Value::ofInt(r ? 1 : 0));
            break;
          }

          case Op::And: {
            Value b = pop();
            Value a = pop();
            push(Value::ofInt(a.truthy() && b.truthy() ? 1 : 0));
            break;
          }

          case Op::Or: {
            Value b = pop();
            Value a = pop();
            push(Value::ofInt(a.truthy() || b.truthy() ? 1 : 0));
            break;
          }

          case Op::Not:
            push(Value::ofInt(pop().truthy() ? 0 : 1));
            break;

          case Op::Jmp:
            f->pc = static_cast<uint32_t>(in.a);
            goto next;

          case Op::Jz:
            if (!pop().truthy()) {
                f->pc = static_cast<uint32_t>(in.a);
                goto next;
            }
            break;

          case Op::Jnz:
            if (pop().truthy()) {
                f->pc = static_cast<uint32_t>(in.a);
                goto next;
            }
            break;

          case Op::New: {
            KlassId k = static_cast<KlassId>(in.a);
            if (!requireKlass(k, out))
                return out;
            const double c = 10.0 * mult;
            if (deadOnArrival(*f, c, cfg.quantum_ns)) {
                if (!heap.reservePlain(k)) {
                    out.kind = Suspend::Kind::HeapFull;
                    return out;
                }
                push(Value::nil());
                charge(c);
                break;
            }
            Ref r = heap.allocPlain(k);
            if (r == kNullRef) {
                out.kind = Suspend::Kind::HeapFull;
                return out;
            }
            push(Value::ofRef(r));
            charge(c);
            break;
          }

          case Op::NewArr: {
            KlassId k = static_cast<KlassId>(in.a);
            if (!requireKlass(k, out))
                return out;
            Value &len = peek();
            bh_assert(len.isInt() && len.asInt() >= 0,
                      "bad array length");
            const uint32_t n = static_cast<uint32_t>(len.asInt());
            const double c =
                10.0 * mult + 0.1 * static_cast<double>(len.asInt());
            if (deadOnArrival(*f, c, cfg.quantum_ns)) {
                if (!heap.reserveArray(n)) {
                    out.kind = Suspend::Kind::HeapFull;
                    return out;
                }
                len = Value::nil();
                charge(c);
                break;
            }
            Ref r = heap.allocArray(k, n);
            if (r == kNullRef) {
                out.kind = Suspend::Kind::HeapFull;
                return out;
            }
            len = Value::ofRef(r);
            charge(c);
            break;
          }

          case Op::NewBytes: {
            KlassId k = cfg.bytes_klass;
            bh_assert(k != kNoKlass, "bytes_klass not configured");
            if (!requireKlass(k, out))
                return out;
            const std::string &s =
                ctx_.program().stringAt(static_cast<uint32_t>(in.a));
            Ref r = heap.allocBytes(k, s);
            if (r == kNullRef) {
                out.kind = Suspend::Kind::HeapFull;
                return out;
            }
            push(Value::ofRef(r));
            charge(5.0 * mult + 0.05 * static_cast<double>(s.size()));
            break;
          }

          case Op::BytesLen: {
            if (!resolveRef(peek(), out))
                return out;
            Ref r = pop().asRef();
            push(Value::ofInt(heap.count(r)));
            break;
          }

          case Op::GetField: {
            if (!resolveRef(peek(), out))
                return out;
            Ref obj = peek().asRef();
            const uint32_t idx = static_cast<uint32_t>(in.a);
            if (recording_)
                recordPair(seen_field_reads_, recorded_field_reads_,
                           heap.header(obj).klass, idx);
            Value v = heap.field(obj, idx);
            if (!loadBarrier(v, out, [&](Value &nv) {
                    // Reset the bit in the field itself.
                    heap.setField(obj, idx, nv);
                }))
                return out;
            if (RaceOracle *ro = ctx_.raceOracle())
                ro->fieldAccess(race_tid_, obj, heap.header(obj).klass,
                                idx, false);
            pop();
            push(v);
            break;
          }

          case Op::PutField: {
            if (!resolveRef(peek(1), out))
                return out;
            Value v = pop();
            Ref obj = pop().asRef();
            heap.setField(obj, static_cast<uint32_t>(in.a), v);
            if (RaceOracle *ro = ctx_.raceOracle())
                ro->fieldAccess(race_tid_, obj, heap.header(obj).klass,
                                static_cast<uint32_t>(in.a), true);
            break;
          }

          case Op::ALoad: {
            if (!resolveRef(peek(1), out))
                return out;
            Value idx_v = peek(0);
            bh_assert(idx_v.isInt(), "array index must be int");
            Ref arr = peek(1).asRef();
            uint32_t idx = static_cast<uint32_t>(idx_v.asInt());
            Value v = heap.elem(arr, idx);
            if (!loadBarrier(v, out, [&](Value &nv) {
                    heap.setElem(arr, idx, nv);
                }))
                return out;
            if (RaceOracle *ro = ctx_.raceOracle())
                ro->elementAccess(race_tid_, arr, heap.header(arr).klass,
                                  false);
            pop();
            pop();
            push(v);
            break;
          }

          case Op::AStore: {
            if (!resolveRef(peek(2), out))
                return out;
            Value v = pop();
            Value idx = pop();
            Ref arr = pop().asRef();
            bh_assert(idx.isInt(), "array index must be int");
            heap.setElem(arr, static_cast<uint32_t>(idx.asInt()), v);
            if (RaceOracle *ro = ctx_.raceOracle())
                ro->elementAccess(race_tid_, arr, heap.header(arr).klass,
                                  true);
            break;
          }

          case Op::ArrLen: {
            if (!resolveRef(peek(), out))
                return out;
            Ref arr = pop().asRef();
            push(Value::ofInt(heap.count(arr)));
            break;
          }

          case Op::GetStatic: {
            KlassId k = static_cast<KlassId>(in.a);
            if (!requireKlass(k, out))
                return out;
            const uint32_t slot = static_cast<uint32_t>(in.b);
            if (recording_)
                recordPair(seen_statics_, recorded_statics_, k, slot);
            Value v = ctx_.getStatic(k, slot);
            if (!loadBarrier(v, out, [&](Value &nv) {
                    ctx_.setStatic(k, slot, nv);
                }))
                return out;
            if (RaceOracle *ro = ctx_.raceOracle())
                ro->staticAccess(race_tid_, k, slot, false);
            push(v);
            break;
          }

          case Op::PutStatic: {
            KlassId k = static_cast<KlassId>(in.a);
            if (!requireKlass(k, out))
                return out;
            const uint32_t slot = static_cast<uint32_t>(in.b);
            if (recording_)
                recordPair(seen_statics_, recorded_statics_, k, slot);
            ctx_.setStatic(k, slot, pop());
            if (RaceOracle *ro = ctx_.raceOracle())
                ro->staticAccess(race_tid_, k, slot, true);
            break;
          }

          case Op::Call:
          case Op::CallNative: {
            MethodId id = static_cast<MethodId>(in.a);
            bh_assert(in.op != Op::CallNative ||
                          ctx_.program().method(id).is_native,
                      "CallNative on bytecode method");
            if (!invoke(id, out))
                return out;
            f = &frames_.back();
            goto next; // pc handled by invoke
          }

          case Op::CallVirt: {
            NameId name = static_cast<NameId>(in.a);
            uint16_t nargs = static_cast<uint16_t>(in.b);
            bh_assert(nargs >= 1, "CallVirt needs a receiver");
            if (!resolveRef(peek(nargs - 1), out))
                return out;
            Ref recv = peek(nargs - 1).asRef();
            KlassId k = heap.header(recv).klass;
            // Per-site monomorphic inline cache: the common case
            // (same receiver klass as last time at this pc) skips
            // even the frozen-vtable load. The charge below models
            // the original vtable walk, so the accounting is
            // unchanged either way.
            VmContext::InlineCache &ic = ctx_.inlineCache(f->method, f->pc);
            MethodId id;
            if (ic.klass == k) {
                id = ic.method;
                ++stats_.ic_hits;
                ctx_.countDispatch(true);
            } else {
                id = ctx_.program().resolveVirtual(k, name);
                ic.klass = k;
                ic.method = id;
                ++ic.fills;
                ++stats_.ic_misses;
                ctx_.countDispatch(false);
            }
            bh_assert(id != kNoMethod, "no virtual %s on %s",
                      ctx_.program().nameAt(name).c_str(),
                      ctx_.program().klass(k).name.c_str());
            bh_assert(ctx_.program().method(id).num_args == nargs,
                      "virtual arg count mismatch on %s",
                      ctx_.program().nameAt(name).c_str());
            charge(5.0 * mult); // vtable walk
            if (!invoke(id, out))
                return out;
            f = &frames_.back();
            goto next;
          }

          case Op::MonitorEnter: {
            if (!resolveRef(peek(), out))
                return out;
            Ref obj = peek().asRef();
            if (granted_monitor_ == obj) {
                granted_monitor_ = kNullRef; // one-shot grant consumed
            } else if (ctx_.needsRemoteAcquire(obj)) {
                // Shared-object monitor: the driver must win it from
                // the SyncManager's monitor table before we proceed.
                out.kind = Suspend::Kind::MonitorAcquire;
                out.monitor_obj = obj;
                return out;
            }
            pop();
            heap.header(obj).lock_owner =
                static_cast<uint16_t>(cfg.endpoint + 1);
            if (RaceOracle *ro = ctx_.raceOracle())
                ro->acquire(race_tid_, obj);
            ++stats_.monitor_enters;
            charge(15.0 * mult);
            break;
          }

          case Op::MonitorExit: {
            if (!resolveRef(peek(), out))
                return out;
            Ref obj = peek().asRef();
            if (release_granted_) {
                release_granted_ = false;
            } else if (ctx_.needsRemoteAcquire(obj)) {
                out.kind = Suspend::Kind::MonitorRelease;
                out.monitor_obj = obj;
                return out;
            }
            pop();
            if (RaceOracle *ro = ctx_.raceOracle())
                ro->release(race_tid_, obj);
            ctx_.monitorReleased(obj);
            charge(10.0 * mult);
            break;
          }

          case Op::GetVolatile:
          case Op::PutVolatile: {
            // Volatile accesses carry JMM acquire/release semantics:
            // on a shared object they synchronize state with the
            // last releasing endpoint before proceeding (Section
            // 4.2: "other synchronization operations, like volatile
            // memory accesses, are also supported").
            std::size_t obj_depth = in.op == Op::PutVolatile ? 1 : 0;
            if (!resolveRef(peek(obj_depth), out))
                return out;
            Ref obj = peek(obj_depth).asRef();
            if (granted_volatile_ == obj) {
                granted_volatile_ = kNullRef;
            } else if (ctx_.needsRemoteAcquire(obj)) {
                out.kind = Suspend::Kind::VolatileSync;
                out.monitor_obj = obj;
                out.volatile_write = in.op == Op::PutVolatile;
                return out;
            }
            const uint32_t idx = static_cast<uint32_t>(in.a);
            if (in.op == Op::PutVolatile) {
                Value v = pop();
                Ref target = pop().asRef();
                heap.setField(target, idx, v);
                if (RaceOracle *ro = ctx_.raceOracle())
                    ro->volatileAccess(race_tid_, target,
                                       heap.header(target).klass, idx,
                                       true);
                ctx_.monitorReleased(target); // release edge
            } else {
                Ref target = pop().asRef();
                if (recording_)
                    recordPair(seen_field_reads_, recorded_field_reads_,
                               heap.header(target).klass, idx);
                if (RaceOracle *ro = ctx_.raceOracle())
                    ro->volatileAccess(race_tid_, target,
                                       heap.header(target).klass, idx,
                                       false);
                push(heap.field(target, idx));
            }
            charge(8.0 * mult);
            break;
          }

          case Op::Compute:
            charge(static_cast<double>(in.a) * mult);
            break;

          case Op::Ret: {
            Value result = depth() == 0 ? Value::nil() : sp_[-1];
            if (candidate_active_ &&
                frames_.size() == candidate_depth_) {
                // The candidate handler is returning: flush its
                // profile.
                if (ctx_.profiler()) {
                    ctx_.profiler()->recordExecution(
                        candidate_root_,
                        cost_total_ - candidate_cost_start_,
                        recorded_klasses_, recorded_statics_,
                        stats_.monitor_enters - candidate_syncs_start_);
                }
                candidate_active_ = false;
                recording_ = false;
            }
            // The callee's window ends where the caller's operand
            // stack resumes.
            sp_ = locals_;
            frames_.pop_back();
            if (frames_.empty()) {
                bindTop();
                out.kind = Suspend::Kind::Done;
                out.result = result;
                return out;
            }
            bindTop();
            f = &frames_.back();
            push(result);
            goto next;
          }
        }

        ++f->pc;
      next:
        if (quantum_acc_ >= cfg.quantum_ns) {
            quantum_acc_ = 0.0;
            out.kind = Suspend::Kind::Quantum;
            return out;
        }
    }
}

std::vector<Frame>
Interpreter::snapshotFrames() const
{
    std::vector<Frame> frames;
    frames.reserve(frames_.size());
    const Value *v = values_.get();
    for (std::size_t i = 0; i < frames_.size(); ++i) {
        const Activation &a = frames_[i];
        // A frame's operand stack ends where the next frame's
        // locals begin; the top frame's ends at sp_.
        const Value *top = i + 1 < frames_.size()
                               ? v + frames_[i + 1].base
                               : sp_;
        Frame f;
        f.method = a.method;
        f.pc = a.pc;
        f.cost_multiplier = a.cost_multiplier;
        f.locals.assign(v + a.base, v + a.stack_base);
        f.stack.assign(v + a.stack_base, top);
        frames.push_back(std::move(f));
    }
    return frames;
}

void
Interpreter::restoreFrames(std::vector<Frame> frames)
{
    std::size_t total = 0;
    for (const Frame &f : frames)
        total += f.locals.size() + f.stack.size();
    frames_.clear();
    sp_ = values_.get();
    growStack(total);
    for (const Frame &f : frames) {
        const Method &m = ctx_.program().method(f.method);
        bh_assert(m.num_args <= f.locals.size(),
                  "%s: frame holds %zu locals for %u args", m.name.c_str(),
                  f.locals.size(), m.num_args);
        Activation a;
        a.code = m.code.data();
        a.code_size = static_cast<uint32_t>(m.code.size());
        a.method = f.method;
        a.pc = f.pc;
        a.cost_multiplier = f.cost_multiplier;
        a.base = static_cast<uint32_t>(sp_ - values_.get());
        sp_ = std::copy(f.locals.begin(), f.locals.end(), sp_);
        a.stack_base = static_cast<uint32_t>(sp_ - values_.get());
        sp_ = std::copy(f.stack.begin(), f.stack.end(), sp_);
        frames_.push_back(a);
    }
    bindTop();
    awaiting_external_ = false;
}

void
Interpreter::forEachRoot(const std::function<void(Value &)> &fn)
{
    // The windows are adjacent, so [0, sp_) visits every frame's
    // locals then operand stack, outermost frame first.
    if (frames_.empty())
        return;
    for (Value *v = values_.get(); v != sp_; ++v)
        fn(*v);
}

} // namespace beehive::vm
