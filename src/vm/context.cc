#include "vm/context.h"

#include <algorithm>

#include "support/logging.h"
#include "vm/profiler.h"

namespace beehive::vm {

VmContext::VmContext(const Program &program, NativeRegistry &natives,
                     Heap &heap, VmConfig config)
    : program_(program), natives_(natives), heap_(heap),
      config_(config), loaded_(program.klassCount(), false),
      invocation_counts_(program.methodCount(), 0)
{
}

void
VmContext::loadKlass(KlassId id)
{
    bh_assert(id < loaded_.size(), "bad klass id");
    if (loaded_[id])
        return;
    loaded_[id] = true;
    ++loaded_count_;
    // Statics come into existence (zeroed) when the klass loads.
    const Klass &k = program_.klass(id);
    if (!k.statics.empty()) {
        statics_.try_emplace(
            id, std::vector<Value>(k.statics.size(), Value::nil()));
    }
}

void
VmContext::loadAll()
{
    for (KlassId id = 0; id < program_.klassCount(); ++id)
        loadKlass(id);
}

Value
VmContext::getStatic(KlassId klass, uint32_t slot)
{
    auto it = statics_.find(klass);
    bh_assert(it != statics_.end(), "statics of unloaded klass");
    bh_assert(slot < it->second.size(), "bad static slot");
    return it->second[slot];
}

void
VmContext::setStatic(KlassId klass, uint32_t slot, Value v)
{
    auto it = statics_.find(klass);
    bh_assert(it != statics_.end(), "statics of unloaded klass");
    bh_assert(slot < it->second.size(), "bad static slot");
    it->second[slot] = v;
}

void
VmContext::forEachStatic(const std::function<void(Value &)> &fn)
{
    for (auto &[klass, slots] : statics_) {
        for (Value &v : slots)
            fn(v);
    }
}

void
VmContext::mapRemote(Ref remote, Ref local)
{
    remote_map_[stripRemote(remote)] = local;
}

Ref
VmContext::lookupRemote(Ref remote) const
{
    auto it = remote_map_.find(stripRemote(remote));
    return it == remote_map_.end() ? kNullRef : it->second;
}

void
VmContext::growInvocationCounts(MethodId id)
{
    // Methods added after the context was built (tests do this).
    invocation_counts_.resize(
        std::max<std::size_t>(program_.methodCount(),
                              static_cast<std::size_t>(id) + 1),
        0);
}

double
VmContext::costMultiplier(MethodId id) const
{
    return invocations(id) < config_.jit_threshold
               ? config_.cold_multiplier
               : 1.0;
}

uint64_t
VmContext::invocations(MethodId id) const
{
    return id < invocation_counts_.size() ? invocation_counts_[id] : 0;
}

VmContext::InlineCache &
VmContext::allocInlineCache(MethodId m, uint32_t pc)
{
    if (ic_lines_.size() <= m) {
        // Size for the whole program at once so later methods do not
        // trigger repeated regrowth.
        std::size_t want = program_.methodCount();
        if (want <= m)
            want = static_cast<std::size_t>(m) + 1;
        ic_lines_.resize(want);
    }
    std::vector<InlineCache> &lines = ic_lines_[m];
    if (lines.size() <= pc) {
        // One line per instruction of the owning method; sized on the
        // first CallVirt so methods without virtual calls stay empty.
        std::size_t want = program_.method(m).code.size();
        if (want <= pc)
            want = static_cast<std::size_t>(pc) + 1;
        lines.resize(want);
    }
    return lines[pc];
}

void
VmContext::forEachInlineCache(
    const std::function<void(MethodId, uint32_t, const InlineCache &)>
        &fn) const
{
    for (MethodId m = 0; m < ic_lines_.size(); ++m) {
        const std::vector<InlineCache> &lines = ic_lines_[m];
        for (uint32_t pc = 0; pc < lines.size(); ++pc) {
            if (lines[pc].fills > 0)
                fn(m, pc, lines[pc]);
        }
    }
}

} // namespace beehive::vm
