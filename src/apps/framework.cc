#include "apps/framework.h"

#include <algorithm>

#include "support/logging.h"
#include "support/strutil.h"

namespace beehive::apps {

using vm::CodeBuilder;
using vm::KlassId;
using vm::MethodId;
using vm::NativeCategory;
using vm::NativeResult;
using vm::Value;

Framework::Framework(vm::Program &program,
                     vm::NativeRegistry &natives,
                     FrameworkOptions options)
    : program_(program), options_(options)
{
    defineKlasses();
    defineNatives(natives);
}

void
Framework::defineKlasses()
{
    auto add = [&](const std::string &name, uint32_t code_bytes,
                   std::vector<std::string> fields = {},
                   std::vector<std::string> statics = {}) {
        vm::Klass k;
        k.name = name;
        k.fields = std::move(fields);
        k.statics = std::move(statics);
        k.code_bytes = code_bytes;
        return program_.addKlass(k);
    };

    object_k_ = add("java/lang/Object", 800);
    bytes_k_ = add("java/lang/String", 1600);
    array_k_ = add("java/lang/Object[]", 400);
    thread_k_ = add("java/lang/Thread", 2400);
    socket_k_ = add("java/net/SocketImpl", 3200, {"token"});
    method_k_ = add("java/lang/reflect/Method", 4100, {"metadata"});
    // Packageable is a static property of these klasses (Section
    // 3.2); installOnServer registers the marshal hooks, but the
    // offloadability analysis must see the flag without a server.
    program_.klass(socket_k_).packageable = true;
    program_.klass(method_k_).packageable = true;
    config_k_ = add("twig/Config", 900,
                    {"next", "payload", "value"});
    datasource_k_ = add("twig/DataSource", 5400, {},
                        {"connPool", "methodObj", "configRoot"});
    db_k_ = add("twig/Db", 2200);

    // Spring-style generated wrapper klasses: a pool shared by all
    // handlers' interceptor chains.
    wrapper_klasses_.reserve(options_.generated_klasses);
    for (int i = 0; i < options_.generated_klasses; ++i) {
        wrapper_klasses_.push_back(
            add(strprintf("twig/Generated$%d", i),
                500 + (i * 37) % 900, {"delegate"}));
    }

    // MethodInterceptor variants, each with its own intercept().
    for (int i = 0; i < options_.stub_variants; ++i) {
        KlassId k = add(strprintf("twig/MethodInterceptor$%d", i),
                        700 + (i * 53) % 600);
        CodeBuilder b(program_, k, "intercept", 2);
        b.compute(120).load(1).ret();
        b.build();
        stub_klasses_.push_back(k);
    }

    // Declared field/static types (the analogue of class-file field
    // descriptors) so the static analyses can attribute field reads
    // to receiver klasses. HiveVM has one shared array klass, so
    // the element type rides on the static slot's hint.
    program_.hintStatic(datasource_k_, kDsConnPool, array_k_,
                        socket_k_);
    program_.hintStatic(datasource_k_, kDsMethodObj, method_k_);
    program_.hintStatic(datasource_k_, kDsConfigRoot, config_k_);
    program_.hintField(config_k_, kCfgNext, config_k_);
    program_.hintField(config_k_, kCfgPayload, bytes_k_);
}

vm::MethodId
Framework::addNativeMethod(KlassId owner, const std::string &name,
                           uint16_t num_args, uint32_t native_id,
                           NativeCategory category)
{
    vm::Method m;
    m.name = name;
    m.num_args = num_args;
    m.is_native = true;
    m.native_id = native_id;
    m.native_category = category;
    return program_.addMethod(owner, m);
}

void
Framework::defineNatives(vm::NativeRegistry &natives)
{
    // --- Pure on-heap: System.arraycopy(len).
    uint32_t arraycopy_n = natives.add(
        "System.arraycopy", NativeCategory::PureOnHeap,
        [](vm::VmContext &, std::span<const Value> args) {
            NativeResult r;
            r.cost_ns = 60.0 + 0.15 * static_cast<double>(
                                          args[0].asInt());
            return r;
        });
    arraycopy_m_ = addNativeMethod(object_k_, "arraycopy", 1,
                                   arraycopy_n,
                                   NativeCategory::PureOnHeap);

    // --- Hidden state: MethodAccessor.invoke0(methodObj, x). The
    // Method object's off-heap metadata makes this offloadable only
    // when the receiver was packed (Packageable, Section 3.2).
    uint32_t invoke0_n = natives.add(
        "MethodAccessor.invoke0", NativeCategory::HiddenState,
        [](vm::VmContext &, std::span<const Value> args) {
            NativeResult r;
            r.cost_ns = 150.0;
            r.ret = args[1];
            return r;
        });
    invoke0_m_ = addNativeMethod(method_k_, "invoke0", 2, invoke0_n,
                                 NativeCategory::HiddenState);

    // --- Stateless: Thread.currentThread().
    uint32_t current_n = natives.add(
        "Thread.currentThread", NativeCategory::Stateless,
        [](vm::VmContext &, std::span<const Value>) {
            NativeResult r;
            r.cost_ns = 30.0;
            r.ret = Value::ofInt(1);
            return r;
        });
    current_thread_m_ = addNativeMethod(thread_k_, "currentThread", 0,
                                        current_n,
                                        NativeCategory::Stateless);

    // --- Network: socketWrite0(conn, op, key) is the bookkeeping
    // half of a database round.
    uint32_t write_n = natives.add(
        "SocketImpl.socketWrite0", NativeCategory::Network,
        [](vm::VmContext &, std::span<const Value>) {
            NativeResult r;
            r.cost_ns = 90.0;
            return r;
        });
    socket_write_m_ = addNativeMethod(socket_k_, "socketWrite0", 3,
                                      write_n,
                                      NativeCategory::Network);

    // --- Network: socketRead0(conn, op, table_id, key, limit)
    // blocks on the external database response.
    uint32_t read_n = natives.add(
        "SocketImpl.socketRead0", NativeCategory::Network,
        [](vm::VmContext &ctx, std::span<const Value> args) {
            NativeResult r;
            r.cost_ns = 250.0;
            core::DbCallPayload payload;
            payload.conn_ref = args[0].asRef();
            payload.conn_token = static_cast<uint64_t>(
                ctx.heap()
                    .field(payload.conn_ref, core::kSocketFieldToken)
                    .asInt());
            int64_t op = args[1].asInt();
            int64_t key = args[3].asInt();
            int64_t limit = args[4].asInt();
            db::Request &req = payload.request;
            req.table = ctx.program().stringAt(
                static_cast<uint32_t>(args[2].asInt()));
            switch (op) {
              case 0:
                req.kind = db::OpKind::Get;
                req.key = key;
                break;
              case 1:
                req.kind = db::OpKind::Put;
                req.key = key;
                req.row.fields["body"] = std::string(
                    static_cast<std::size_t>(
                        std::max<int64_t>(limit, 1)),
                    'x');
                break;
              case 2:
                req.kind = db::OpKind::Scan;
                req.offset = key;
                req.limit = limit;
                break;
              case 3:
                req.kind = db::OpKind::Count;
                break;
              default:
                req.kind = db::OpKind::Delete;
                req.key = key;
                break;
            }
            r.external = std::any(payload);
            return r;
        });
    socket_read_m_ = addNativeMethod(socket_k_, "socketRead0", 5,
                                     read_n, NativeCategory::Network);

    // --- Db wrapper bytecode methods.
    auto make_db = [&](const std::string &name, int64_t op,
                       uint16_t nargs, auto emit_args) {
        CodeBuilder b(program_, db_k_, name, nargs);
        // socketWrite0(conn, op, key-ish)
        b.load(0).pushI(op);
        emit_args(b, /*for_write=*/true);
        b.call(socket_write_m_).popv();
        // socketRead0(conn, op, table, key, limit)
        b.load(0).pushI(op).load(1);
        emit_args(b, /*for_write=*/false);
        b.call(socket_read_m_).ret();
        return b.build();
    };
    // get(conn, table, key)
    db_get_m_ = make_db("get", 0, 3, [](CodeBuilder &b, bool w) {
        if (w)
            b.load(2);
        else
            b.load(2).pushI(0);
    });
    // put(conn, table, key, body_size)
    db_put_m_ = make_db("put", 1, 4, [](CodeBuilder &b, bool w) {
        if (w)
            b.load(2);
        else
            b.load(2).load(3);
    });
    // scan(conn, table, offset, limit)
    db_scan_m_ = make_db("scan", 2, 4, [](CodeBuilder &b, bool w) {
        if (w)
            b.load(2);
        else
            b.load(2).load(3);
    });
    // count(conn, table)
    db_count_m_ = make_db("count", 3, 2, [](CodeBuilder &b, bool w) {
        if (w)
            b.pushI(0);
        else
            b.pushI(0).pushI(0);
    });
    // del(conn, table, key)
    db_delete_m_ = make_db("del", 4, 3, [](CodeBuilder &b, bool w) {
        if (w)
            b.load(2);
        else
            b.load(2).pushI(0);
    });
}

int64_t
Framework::tableId(const std::string &table)
{
    return program_.internString(table);
}

void
Framework::emitNativeMix(CodeBuilder &b, int64_t pure_calls,
                         int64_t hidden_calls, int64_t other_calls,
                         int scratch_slot) const
{
    const int64_t scale = std::max(1, options_.native_scale);
    const int s = scratch_slot;

    auto loop = [&](int64_t count, double comp_per_iter,
                    auto emit_body) {
        if (count <= 0)
            return;
        int64_t iters = std::max<int64_t>(1, count / scale);
        auto top = b.newLabel(), done = b.newLabel();
        b.pushI(iters).store(s);
        b.bind(top);
        b.load(s).pushI(0).cmpLe().jnz(done);
        emit_body(b);
        if (comp_per_iter >= 1.0)
            b.compute(static_cast<int64_t>(comp_per_iter));
        b.load(s).pushI(1).sub().store(s);
        b.jmp(top);
        b.bind(done);
    };

    // Scaled-away invocations are re-charged as computation so the
    // modelled service time is fidelity-independent.
    loop(pure_calls, (scale - 1) * 70.0, [&](CodeBuilder &cb) {
        cb.pushI(64).call(arraycopy_m_).popv();
    });
    loop(hidden_calls, (scale - 1) * 160.0, [&](CodeBuilder &cb) {
        cb.getStatic(datasource_k_, kDsMethodObj)
            .pushI(0)
            .call(invoke0_m_)
            .popv();
    });
    loop(other_calls, (scale - 1) * 35.0, [&](CodeBuilder &cb) {
        cb.call(current_thread_m_).popv();
    });
}

void
Framework::emitGetConnection(CodeBuilder &b,
                             int request_id_slot) const
{
    b.getStatic(datasource_k_, kDsConnPool)
        .load(request_id_slot)
        .pushI(options_.connection_pool)
        .mod()
        .aload();
}

void
Framework::emitConfigWalk(CodeBuilder &b, int touch,
                          int scratch_slot) const
{
    const int cur = scratch_slot;
    const int n = scratch_slot + 1;
    auto top = b.newLabel(), done = b.newLabel();
    b.getStatic(datasource_k_, kDsConfigRoot).store(cur);
    b.pushI(touch).store(n);
    b.bind(top);
    b.load(n).pushI(0).cmpLe().jnz(done);
    b.load(cur).logNot().jnz(done);
    b.load(cur).getField(kCfgValue).popv();
    b.load(cur).getField(kCfgNext).store(cur);
    b.load(n).pushI(1).sub().store(n);
    b.jmp(top);
    b.bind(done);
}

vm::MethodId
Framework::wrapWithInterceptors(const std::string &name,
                                MethodId handler)
{
    const int depth = std::max(1, options_.interceptor_depth);
    const int per_level =
        std::max(1, options_.generated_klasses / depth);
    const uint16_t nargs = program_.method(handler).num_args;
    bh_assert(nargs == 1, "interceptor chains wrap 1-arg handlers");

    // Build innermost-out: level `depth` calls the handler.
    MethodId next = handler;
    bool next_is_handler = true;
    for (int level = depth; level >= 1; --level) {
        vm::Klass k;
        k.name = strprintf("twig/%s$Interceptor%d", name.c_str(),
                           level);
        k.code_bytes = 1100 + (level * 71) % 700;
        KlassId ik = program_.addKlass(k);

        CodeBuilder b(program_, ik, "handle", 2);
        // Wrapper allocations the generated plumbing performs.
        for (int j = 0; j < per_level; ++j) {
            KlassId wk = wrapper_klasses_[
                (level * per_level + j) % wrapper_klasses_.size()];
            b.newObj(wk).popv();
        }
        // Reflective dispatch bookkeeping.
        b.getStatic(datasource_k_, kDsMethodObj)
            .pushI(0)
            .call(invoke0_m_)
            .popv();
        // One MethodInterceptor stub consultation (virtual call with
        // many possible targets -- the static-analysis blocker).
        KlassId sk = stub_klasses_[(level * 7) %
                                   stub_klasses_.size()];
        b.newObj(sk).load(1).callVirt("intercept", 2).popv();
        b.compute(600);
        // Invoke the next link.
        if (next_is_handler) {
            b.load(1).call(next).ret();
        } else {
            b.newObj(program_.method(next).owner)
                .load(1)
                .callVirt("handle", 2)
                .ret();
        }
        next = b.build();
        next_is_handler = false;
    }

    // The servlet entry: what the HTTP layer calls.
    CodeBuilder entry(program_, datasource_k_, name + "_entry", 1);
    entry.newObj(program_.method(next).owner)
        .load(0)
        .callVirt("handle", 2)
        .ret();
    return entry.build();
}

void
Framework::installOnServer(core::BeeHiveServer &server,
                           proxy::ConnectionProxy &proxy)
{
    vm::Heap &heap = server.heap();
    vm::VmContext &ctx = server.context();

    // Packageable marshal hooks (Section 3.2). SocketImpl packs a
    // proxy-minted offload connection ID (Figure 4); Method packs
    // its reflective metadata so invoke0 runs on FaaS directly.
    server.packageables().add(
        program_, socket_k_,
        [&proxy](vm::Ref server_obj, vm::Heap &server_heap,
                 vm::Ref fn_obj, vm::Heap &fn_heap) {
            auto conn = static_cast<proxy::ConnId>(
                server_heap
                    .field(server_obj, core::kSocketFieldToken)
                    .asInt());
            proxy::OffloadId id = proxy.prepare(conn);
            fn_heap.setFieldRaw(
                fn_obj, core::kSocketFieldToken,
                Value::ofInt(static_cast<int64_t>(id)));
        });
    server.packageables().add(program_, method_k_,
                              [](vm::Ref, vm::Heap &, vm::Ref,
                                 vm::Heap &) {
                                  // Metadata travels inside the
                                  // object; the packed flag set by
                                  // the installer is what enables
                                  // local invoke0.
                              });

    // Connection pool: SocketImpl objects owning proxy connections.
    vm::Ref pool = heap.allocArray(
        array_k_, static_cast<uint32_t>(options_.connection_pool),
        /*in_closure=*/true);
    bh_assert(pool != vm::kNullRef, "server closure space too small");
    for (int i = 0; i < options_.connection_pool; ++i) {
        vm::Ref sock = heap.allocPlain(socket_k_, true);
        proxy::ConnId conn = proxy.openConnection(server.endpoint());
        heap.setField(sock, core::kSocketFieldToken,
                      Value::ofInt(static_cast<int64_t>(conn)));
        heap.setElem(pool, static_cast<uint32_t>(i),
                     Value::ofRef(sock));
    }
    ctx.setStatic(datasource_k_, kDsConnPool, Value::ofRef(pool));

    // Reflective Method object.
    vm::Ref method_obj = heap.allocPlain(method_k_, true);
    heap.setField(method_obj, 0, Value::ofInt(0xCAFE));
    ctx.setStatic(datasource_k_, kDsMethodObj,
                  Value::ofRef(method_obj));

    // Config-object graph: a linked list of small framework
    // configuration records; what shadow execution pages in.
    vm::Ref head = vm::kNullRef;
    for (int i = options_.config_objects - 1; i >= 0; --i) {
        vm::Ref node = heap.allocPlain(config_k_, true);
        bh_assert(node != vm::kNullRef,
                  "server closure space too small for config graph");
        vm::Ref payload = heap.allocBytes(
            bytes_k_, strprintf("cfg-%d=%d", i, i * 17), true);
        heap.setField(node, kCfgNext, Value::ofRef(head));
        heap.setField(node, kCfgPayload, Value::ofRef(payload));
        heap.setField(node, kCfgValue, Value::ofInt(i));
        head = node;
    }
    ctx.setStatic(datasource_k_, kDsConfigRoot, Value::ofRef(head));
}

} // namespace beehive::apps
