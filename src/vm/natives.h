/**
 * @file
 * Native method registry.
 *
 * Web frameworks lean heavily on native invocations (paper Table 2:
 * a single pybbs request makes >260k of them). HiveVM models native
 * methods as C++ handlers registered by id. Each handler is tagged
 * with the paper's four categories -- pure on-heap, hidden state,
 * network, and stateless -- which drive BeeHive's offloadability
 * policy (Section 3.2): pure/stateless run anywhere, hidden-state
 * natives need a *packed* Packageable receiver on FaaS, and network
 * natives route through the connection proxy.
 */

#ifndef BEEHIVE_VM_NATIVES_H
#define BEEHIVE_VM_NATIVES_H

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "vm/program.h"
#include "vm/value.h"

namespace beehive::vm {

class VmContext;

/** Outcome of a native handler. */
struct NativeResult
{
    /** Return value pushed to the caller's stack. */
    Value ret = Value::nil();

    /** CPU nanoseconds this native consumed. */
    double cost_ns = 0.0;

    /**
     * When set, the interpreter suspends with an External request
     * carrying this payload instead of completing the call; the
     * invocation driver performs the operation (e.g. a database round
     * trip via the proxy) and resumes with the real return value.
     * Handlers must not mutate the heap before requesting external
     * completion.
     */
    std::optional<std::any> external;
};

/**
 * A native method implementation. @p args views the caller's operand
 * stack (first argument first); it stays valid until the handler
 * returns.
 */
using NativeFn =
    std::function<NativeResult(VmContext &, std::span<const Value> args)>;

/** Registered native method. */
struct NativeMethod
{
    std::string name;
    NativeCategory category = NativeCategory::PureOnHeap;
    NativeFn fn;
};

/** Id-keyed registry of native methods for one Program. */
class NativeRegistry
{
  public:
    /** Register a native; returns its id. */
    uint32_t add(std::string name, NativeCategory category, NativeFn fn);

    const NativeMethod &get(uint32_t id) const;
    bool has(uint32_t id) const { return id < natives_.size(); }
    std::size_t size() const { return natives_.size(); }

    /** Lookup by name (kNoNative when absent). */
    static constexpr uint32_t kNoNative = UINT32_MAX;
    uint32_t find(const std::string &name) const;

  private:
    std::vector<NativeMethod> natives_;
    std::map<std::string, uint32_t> by_name_;
};

} // namespace beehive::vm

#endif // BEEHIVE_VM_NATIVES_H
