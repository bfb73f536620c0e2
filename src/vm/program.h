/**
 * @file
 * Static program metadata: klasses, methods, annotations, bytecode.
 *
 * A Program is the analogue of the application's jar file: the
 * immutable universe of classes and methods. Each endpoint VM keeps
 * its own *loaded set* of klasses -- the server loads everything at
 * startup, while a FaaS function starts with only the klasses in its
 * initial closure and faults the rest in on demand (the paper's
 * missing-code fallback).
 */

#ifndef BEEHIVE_VM_PROGRAM_H
#define BEEHIVE_VM_PROGRAM_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/logging.h"
#include "vm/value.h"

namespace beehive::vm {

using KlassId = uint32_t;
using MethodId = uint32_t;
using NameId = uint32_t;

constexpr KlassId kNoKlass = UINT32_MAX;
constexpr MethodId kNoMethod = UINT32_MAX;

/** Bytecode operations of the HiveVM stack machine. */
enum class Op : uint8_t
{
    Nop,
    // Stack and locals. a = slot / immediate.
    PushI,       //!< push int immediate a
    PushF,       //!< push double (bit pattern in a)
    PushNil,
    Load,        //!< push locals[a]
    Store,       //!< locals[a] = pop
    Dup,
    Pop,
    Swap,
    // Arithmetic/logic. Operate on the top of the stack.
    Add, Sub, Mul, Div, Mod, Neg,
    CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
    And, Or, Not,
    // Control. a = absolute target pc.
    Jmp,
    Jz,          //!< jump when popped value is falsy
    Jnz,
    // Objects. a = klass / field index.
    New,         //!< push new instance of klass a
    GetField,    //!< pop obj; push obj.field[a]
    PutField,    //!< pop value, pop obj; obj.field[a] = value
    NewArr,      //!< pop length; push new array of klass a
    ALoad,       //!< pop idx, pop arr; push arr[idx]
    AStore,      //!< pop value, pop idx, pop arr; arr[idx] = value
    ArrLen,      //!< pop arr; push its length
    NewBytes,    //!< push new byte object from string-pool entry a
    BytesLen,    //!< pop bytes; push length
    GetStatic,   //!< push statics[klass a][slot b]
    PutStatic,   //!< statics[klass a][slot b] = pop
    // Calls. a = method id / name id; b = arg count for CallVirt.
    Call,        //!< invoke method a; args on stack in order
    CallVirt,    //!< resolve name a on receiver (b args incl. recv)
    CallNative,  //!< invoke native method a (declared in program)
    Ret,         //!< return top of stack to the caller
    // Synchronization (paper Section 4.2).
    MonitorEnter, //!< pop obj; acquire its monitor
    MonitorExit,  //!< pop obj; release its monitor
    GetVolatile,  //!< like GetField with acquire semantics
    PutVolatile,  //!< like PutField with release semantics
    // Modelled computation: spend a nanoseconds of CPU work.
    Compute,
};

/** One bytecode instruction (fixed two-operand encoding). */
struct Instr
{
    Op op = Op::Nop;
    int64_t a = 0;
    int64_t b = 0;
};

/** Annotation attached to a method or klass (e.g. "RequestMapping"). */
struct Annotation
{
    std::string name;

    bool operator==(const Annotation &o) const { return name == o.name; }
};

/** Categories of native methods (paper Table 2). */
enum class NativeCategory : uint8_t
{
    PureOnHeap,   //!< e.g. System.arraycopy: heap-only, offloadable
    HiddenState,  //!< e.g. MethodAccessor.invoke0: off-heap state
    Network,      //!< e.g. socketRead0: stateful connections
    Stateless,    //!< e.g. Thread.currentThread: no side effects
};

/** A method: bytecode or native. */
struct Method
{
    std::string name;                  //!< unqualified name
    KlassId owner = kNoKlass;
    uint16_t num_args = 0;             //!< locals [0, num_args) on entry
    uint16_t num_locals = 0;           //!< total local slots
    std::vector<Instr> code;
    std::vector<Annotation> annotations;
    bool is_native = false;
    uint32_t native_id = 0;            //!< key into the NativeRegistry
    NativeCategory native_category = NativeCategory::PureOnHeap;

    bool hasAnnotation(const std::string &name) const;
};

/**
 * Declared type of a static slot or instance field. HiveVM slots are
 * dynamically typed, so hints are optional metadata the static
 * analyses use to resolve receivers (a real class file would carry
 * them in field descriptors). @c elem is the element klass when the
 * declared value is an array.
 */
struct TypeHint
{
    KlassId type = kNoKlass;
    KlassId elem = kNoKlass;
};

/** A klass: fields, methods, inheritance, transfer size. */
struct Klass
{
    std::string name;
    KlassId super = kNoKlass;
    std::vector<std::string> fields;   //!< instance field names
    std::vector<std::string> statics;  //!< static field names
    std::vector<MethodId> methods;
    std::vector<Annotation> annotations;
    bool packageable = false;          //!< implements Packageable
    uint32_t code_bytes = 1024;        //!< class-file size (transfer)
    /** Klasses this klass's code references (closure traversal). */
    std::vector<KlassId> references;
    /** Declared static/field types (lazily sized; see TypeHint). */
    std::vector<TypeHint> static_hints;
    std::vector<TypeHint> field_hints;
};

/** The immutable program: all klasses + methods + string pool. */
class Program
{
  public:
    /** Define a new klass; returns its id. Names must be unique. */
    KlassId addKlass(Klass klass);

    /** Define a method on @p owner; returns its id. */
    MethodId addMethod(KlassId owner, Method method);

    /** Intern a string literal; returns its pool index. */
    uint32_t internString(const std::string &s);

    /** Intern a method name for CallVirt dispatch. */
    NameId internName(const std::string &s);

    const Klass &
    klass(KlassId id) const
    {
        bh_assert(id < klasses_.size(), "bad klass id %u", id);
        return klasses_[id];
    }
    /** Mutable access; invalidates the frozen dispatch tables. */
    Klass &klass(KlassId id);
    const Method &
    method(MethodId id) const
    {
        bh_assert(id < methods_.size(), "bad method id %u", id);
        return methods_[id];
    }
    /** Mutable access; invalidates the frozen dispatch tables. */
    Method &method(MethodId id);
    const std::string &stringAt(uint32_t idx) const;
    const std::string &nameAt(NameId id) const;

    KlassId findKlass(const std::string &name) const;
    /** Find "Klass.method"; kNoMethod when absent. */
    MethodId findMethod(const std::string &qualified) const;

    /**
     * Resolve a virtual call: look for @p name on @p klass,
     * semantically walking up the super chain. O(1): reads the
     * frozen per-klass vtable, (re)built lazily whenever the program
     * was mutated since the last freeze. Must agree with
     * resolveVirtualUncached() everywhere (tested as an oracle).
     * Defined inline below: this is the interpreter's hottest
     * lookup and must compile down to one indexed load.
     */
    MethodId resolveVirtual(KlassId klass, NameId name) const;

    /**
     * Reference resolver: the original string-comparing superclass
     * walk. Kept as the oracle for the frozen vtables (tests,
     * perf_hotpath's before/after microbench); not for hot paths.
     */
    MethodId resolveVirtualUncached(KlassId klass, NameId name) const;

    /**
     * Build the frozen dispatch tables now: per-klass flat
     * NameId -> MethodId vtables plus cached transitive field
     * counts. Idempotent; called lazily by resolveVirtual().
     * Programs are single-threaded (each trial/endpoint owns its
     * own), so the mutable rebuild needs no locking.
     */
    void freeze() const;
    /** True when the frozen tables match the current contents. */
    bool frozen() const { return frozen_epoch_ == mutation_epoch_; }

    /** Total instance field count including inherited fields. */
    uint32_t fieldCount(KlassId id) const;

    /** Declare the type of statics[klass][slot] (see TypeHint). */
    void hintStatic(KlassId klass, uint32_t slot, KlassId type,
                    KlassId elem = kNoKlass);
    /** Declare the type of instance field @p index on @p klass. */
    void hintField(KlassId klass, uint32_t index, KlassId type,
                   KlassId elem = kNoKlass);
    /** Hint for a static slot; default-constructed when undeclared. */
    TypeHint staticHint(KlassId klass, uint32_t slot) const;
    /** Hint for an instance field; walks the super chain. */
    TypeHint fieldHint(KlassId klass, uint32_t index) const;

    std::size_t klassCount() const { return klasses_.size(); }
    std::size_t methodCount() const { return methods_.size(); }
    std::size_t stringCount() const { return strings_.size(); }
    std::size_t nameCount() const { return names_.size(); }

    /** "Klass.method" for diagnostics; tolerates bad ids. */
    std::string qualifiedName(MethodId id) const;

    /** All method ids carrying the given annotation. */
    std::vector<MethodId>
    methodsWithAnnotation(const std::string &name) const;

  private:
    /** Any mutation invalidates the frozen dispatch tables. */
    void touch() { ++mutation_epoch_; }

    std::vector<Klass> klasses_;
    std::vector<Method> methods_;
    std::vector<std::string> strings_;
    std::vector<std::string> names_;
    std::unordered_map<std::string, KlassId> klass_by_name_;
    std::unordered_map<std::string, MethodId> method_by_qname_;
    std::unordered_map<std::string, uint32_t> string_ids_;
    std::unordered_map<std::string, NameId> name_ids_;

    /** @name Frozen dispatch tables (see freeze())
     * Mutable: rebuilt lazily from const lookups; epoch comparison
     * makes staleness after any mutation detectable. */
    /// @{
    uint64_t mutation_epoch_ = 0;
    mutable uint64_t frozen_epoch_ = UINT64_MAX;
    /**
     * Row-major flat table: entry [klass * stride + name] is the
     * target method (kNoMethod if none). One contiguous allocation
     * keeps the hot lookup to a single indirection.
     */
    mutable std::vector<MethodId> vtable_flat_;
    mutable std::size_t vtable_stride_ = 0;
    /** Transitive instance field count per klass. */
    mutable std::vector<uint32_t> field_counts_;
    /// @}
};

inline MethodId
Program::resolveVirtual(KlassId klass_id, NameId name) const
{
    if (frozen_epoch_ != mutation_epoch_)
        freeze();
    // Single folded range check: klass_id and name are validated
    // together against the flat table (either out of range walks
    // past the end, since row klass_id ends at (klass_id+1)*stride).
    const std::size_t idx =
        static_cast<std::size_t>(klass_id) * vtable_stride_ + name;
    bh_assert(name < vtable_stride_ && idx < vtable_flat_.size(),
              "bad resolveVirtual(%u, %u)", klass_id, name);
    return vtable_flat_[idx];
}

} // namespace beehive::vm

#endif // BEEHIVE_VM_PROGRAM_H
