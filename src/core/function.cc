#include "core/function.h"

#include "support/logging.h"

namespace beehive::core {

using vm::Ref;
using vm::Value;

/** Server-side handling cost of one fallback request, and the
 * per-klass payload overhead of a missing-code fetch. */
constexpr sim::SimTime kFallbackService = sim::SimTime::usec(40);
constexpr uint32_t kKlassFetchOverheadBytes = 256;

// ---------------------------------------------------------------------
// BeeHiveFunction
// ---------------------------------------------------------------------

BeeHiveFunction::BeeHiveFunction(BeeHiveServer &server,
                                 cloud::FunctionInstance &instance)
    : server_(server), instance_(instance)
{
    const BeeHiveConfig &cfg = server.config();
    heap_ = std::make_unique<vm::Heap>(server.program(),
                                       cfg.function_closure_bytes,
                                       cfg.function_alloc_bytes);

    vm::VmConfig vm_cfg = cfg.function_vm;
    vm_cfg.check_remote_refs = true;
    ctx_ = std::make_unique<vm::VmContext>(
        server.program(), server.natives(), *heap_, vm_cfg);
    endpoint_id_ = server.registerFunction(ctx_.get(), node());
    ctx_->config().endpoint = endpoint_id_;

    // Dirty tracking: closure-space stores are shareable state.
    heap_->setWriteObserver([this](Ref obj) {
        if (vm::refSpace(obj) == vm::Heap::kClosureSpaceId)
            server_.sync().markDirty(endpoint_id_, obj);
    });

    ctx_->setMonitorPolicy([this](Ref obj) {
        return server_.sync().monitorIsShared(endpoint_id_, obj);
    });

    // Native dispositions on FaaS (Section 3.2): pure on-heap and
    // stateless natives run locally; network natives run locally
    // and route through the proxy at the driver level; hidden-state
    // natives need a packed Packageable receiver.
    ctx_->setNativePolicy(
        [this](const vm::NativeMethod &native,
               std::span<const Value> args) {
            switch (native.category) {
              case vm::NativeCategory::PureOnHeap:
              case vm::NativeCategory::Stateless:
              case vm::NativeCategory::Network:
                return vm::NativeDisposition::RunLocal;
              case vm::NativeCategory::HiddenState: {
                if (!args.empty() && args[0].isRef() &&
                    args[0].asRef() != vm::kNullRef &&
                    !vm::isRemote(args[0].asRef()) &&
                    (heap_->header(args[0].asRef()).flags &
                     vm::kFlagPacked)) {
                    return vm::NativeDisposition::RunLocal;
                }
                return vm::NativeDisposition::Fallback;
              }
            }
            return vm::NativeDisposition::RunLocal;
        });

    collector_ = std::make_unique<gc::SemiSpaceCollector>(*heap_);
    collector_->addValueRoots([this](const auto &visit) {
        if (busy())
            invocation_->interp().forEachRoot(visit);
        ctx_->forEachStatic(visit);
    });
    if (telemetry::Tracer *t = server.sim().tracer()) {
        collector_->setObserver([t](const gc::GcCycleStats &c) {
            telemetry::MetricsRegistry &m = t->metrics();
            m.count("gc.fn_cycles");
            m.count("gc.fn_bytes_copied", c.bytes_copied);
            m.observe("gc.fn_pause_ms", c.pause.toMillis());
        });
    }
}

BeeHiveFunction::~BeeHiveFunction()
{
    cancelInvocation();
    server_.dropFunction(endpoint_id_);
}

net::EndpointId
BeeHiveFunction::node() const
{
    return instance_.machine->endpoint();
}

InstallResult
BeeHiveFunction::install(const Closure &closure)
{
    return installClosure(closure, server_.context(), *ctx_,
                          server_.mappingFor(endpoint_id_),
                          server_.packageables(),
                          server_.config().packageable_enabled);
}

Invocation &
BeeHiveFunction::newInvocation(vm::MethodId root, bool shadow,
                               DoneCb done, uint64_t request_key,
                               uint64_t write_seq, const char *metric)
{
    // Causal position of this invocation (the flight span that
    // dispatched it); captured now, handlers run asynchronously.
    telemetry::Tracer *t = server_.sim().tracer();
    invocation_ = Invocation::Ptr(new Invocation(
        server_, *this, *ctx_, root, std::move(done),
        t ? t->current() : telemetry::Context{}, shadow, request_key,
        write_seq));
    RequestTrace &trace = invocation_->trace();
    trace.boot = instance_.last_boot;
    trace.prefetched_klasses = pending_prefetch_.klasses;
    trace.prefetched_objects = pending_prefetch_.objects;
    trace.stale_prefetches = pending_prefetch_.stale;
    pending_prefetch_ = {};
    invocation_->countMetric(metric);
    if (shadow) {
        invocation_->countMetric("fn.shadow_invocations");
        invocation_->openShadowSession(node());
    }
    return *invocation_;
}

void
BeeHiveFunction::invoke(vm::MethodId root,
                        std::vector<Value> server_args, bool shadow,
                        DoneCb done, uint64_t request_key)
{
    bh_assert(!busy(), "function instance is single-request");
    bh_assert(!dead_, "invoke on dead function");
    std::vector<Value> local_args = copyArgsToFunction(
        server_args, server_.context(), *ctx_,
        server_.config().closure_data_depth);
    newInvocation(root, shadow, std::move(done), request_key,
                  /*write_seq=*/0, "fn.invocations")
        .start("fn.exec", std::move(local_args));
}

void
BeeHiveFunction::resume(vm::MethodId root,
                        std::vector<vm::Frame> snapshot, bool shadow,
                        DoneCb done, uint64_t request_key,
                        uint64_t start_write_seq)
{
    bh_assert(!busy(), "function instance is single-request");
    newInvocation(root, shadow, std::move(done), request_key,
                  start_write_seq, "fn.resumes")
        .resume("fn.exec", std::move(snapshot));
}

void
BeeHiveFunction::kill()
{
    dead_ = true;
    cancelInvocation();
}

void
BeeHiveFunction::cancelInvocation()
{
    if (busy())
        invocation_->retire();
    invocation_ = {};
}

// ---------------------------------------------------------------------
// Endpoint: how a function reaches code, data, locks and the database
// ---------------------------------------------------------------------

sim::SimTime
BeeHiveFunction::serverHop(uint64_t req_bytes, uint64_t resp_bytes)
{
    return server_.network().roundTrip(node(), server_.endpoint(),
                                       req_bytes, resp_bytes) +
           kFallbackService;
}

void
BeeHiveFunction::classFault(Invocation &inv, vm::KlassId klass)
{
    uint64_t bytes = server_.program().klass(klass).code_bytes +
                     kKlassFetchOverheadBytes;
    sim::SimTime latency = serverHop(64, bytes);
    inv.chargeFallback(FallbackKind::MissingCode, latency,
                       "fallback.code");
    inv.trace().fetch_time += latency;
    recordFault(inv, [&](snapshot::SnapshotStore &snaps) {
        snaps.recordClassFault(inv.root(), klass);
    });
    telemetry::SpanId sp =
        inv.span("fallback.code", telemetry::Phase::Fetch);
    inv.after(latency, [this, &inv, klass, sp] {
        inv.endSpan(sp);
        ctx_->loadKlass(klass);
        inv.pump();
    });
}

void
BeeHiveFunction::objectFault(Invocation &inv, Ref remote_ref)
{
    auto [local, bytes] = fetchObject(
        remote_ref, server_.context(), *ctx_,
        server_.mappingFor(endpoint_id_), server_.packageables(),
        server_.config().packageable_enabled);
    sim::SimTime latency = serverHop(64, bytes + 64);
    inv.chargeFallback(FallbackKind::MissingData, latency,
                       "fallback.data");
    inv.trace().fetch_time += latency;
    recordFault(inv, [&](snapshot::SnapshotStore &snaps) {
        snaps.recordObjectFault(inv.root(), remote_ref,
                                server_.collector().totals().collections);
    });

    // The fetched object's klass may itself be missing: that is a
    // second (code) fetch riding on the same fallback.
    vm::KlassId k = heap_->header(local).klass;
    if (!ctx_->isLoaded(k)) {
        sim::SimTime extra =
            serverHop(64, server_.program().klass(k).code_bytes);
        inv.trace().countFallback(FallbackKind::MissingCode);
        inv.trace().fallback_time += extra;
        inv.trace().fetch_time += extra;
        inv.countMetric("fallback.code");
        latency += extra;
        ctx_->loadKlass(k);
        recordFault(inv, [&](snapshot::SnapshotStore &snaps) {
            snaps.recordClassFault(inv.root(), k);
        });
    }
    telemetry::SpanId sp =
        inv.span("fallback.data", telemetry::Phase::Fetch);
    inv.after(latency, [&inv, sp] {
        inv.endSpan(sp);
        inv.pump();
    });
}

void
BeeHiveFunction::nativeFallback(Invocation &inv)
{
    // COMET-style: run the native's effect at the server. The
    // modelled cost is the round trip; the handler then runs
    // locally (its state effects are identical in HiveVM).
    sim::SimTime latency = serverHop(128, 128);
    inv.chargeFallback(FallbackKind::Native, latency,
                       "fallback.native");
    telemetry::SpanId sp =
        inv.span("fallback.native", telemetry::Phase::Native);
    inv.after(latency, [this, &inv, sp] {
        inv.endSpan(sp);
        ctx_->forceNextNativeLocal();
        inv.pump();
    });
}

DbAttempt
BeeHiveFunction::sendDb(Invocation &inv, const DbCallPayload &payload,
                        uint64_t idem)
{
    proxy::ConnectionProxy &proxy = server_.proxy();
    bool packed = payload.conn_ref != vm::kNullRef &&
                  !vm::isRemote(payload.conn_ref) &&
                  (heap_->header(payload.conn_ref).flags &
                   vm::kFlagPacked);
    DbAttempt a;
    if (server_.config().proxy_enabled && packed) {
        // Proxy path: the packed connection ID reaches the database
        // through the shared connection; no fallback.
        uint64_t token = payload.conn_token;
        if (!attached_tokens_.count(token)) {
            bool ok = proxy.attach(token, node());
            bh_assert(ok, "stale offload connection id");
            attached_tokens_.insert(token);
        }
        std::optional<proxy::ShadowToken> shadow;
        if (inv.shadow())
            shadow = inv.shadowToken();
        a.resp = proxy.requestViaOffload(token, payload.request, shadow,
                                         idem);
        a.latency = server_.network().roundTrip(
                        node(), server_.dbEndpoint(),
                        payload.request.wireSize(),
                        a.resp.wireSize()) +
                    proxy.processingTime() +
                    proxy.dbServiceTime(payload.request);
        ++inv.trace().db_ops;
        inv.countMetric("fn.db_ops");
        a.span = inv.span("db.roundtrip", telemetry::Phase::Db);
    } else {
        // No proxy support: every round is a fallback through the
        // server (the behaviour BeeHive's Section 3.3 eliminates;
        // kept for ablations). The server issues the operation on
        // ITS connection: resolve the original socket object to
        // recover the server-side ConnId (the local copy may hold a
        // packed offload token).
        uint64_t conn_token = payload.conn_token;
        Ref server_sock =
            server_.mappingFor(endpoint_id_).toServer(payload.conn_ref);
        if (server_sock != vm::kNullRef) {
            conn_token = static_cast<uint64_t>(
                server_.heap()
                    .field(server_sock, kSocketFieldToken)
                    .asInt());
        }
        a.resp = proxy.request(static_cast<proxy::ConnId>(conn_token),
                               payload.request, idem);
        a.latency = serverHop(payload.request.wireSize(),
                              a.resp.wireSize()) +
                    server_.dbRoundTrip(payload.request, a.resp);
        inv.chargeFallback(FallbackKind::Connection, a.latency,
                           "fallback.connection");
        a.span = inv.span("fallback.connection", telemetry::Phase::Db);
    }
    if (a.resp.reset)
        inv.countMetric("fn.db_resets");
    return a;
}

void
BeeHiveFunction::syncPoint(Invocation &inv)
{
    if (!server_.config().failure_recovery)
        return;
    std::vector<vm::Frame> frames = inv.interp().snapshotFrames();
    for (vm::Frame &f : frames) {
        for (Value &v : f.locals)
            v = snapshotValue(v);
        for (Value &v : f.stack)
            v = snapshotValue(v);
    }
    snapshot_ = std::move(frames);
    snapshot_write_seq_ = inv.writeSeq();
    snapshot_request_key_ = inv.requestKey();
}

/**
 * Promote a function-local object graph to the server so a snapshot
 * may reference it (recovery keeps working even though this
 * instance dies). Mapped objects translate directly.
 */
Value
BeeHiveFunction::snapshotValue(Value v)
{
    if (!v.isRef() || v.asRef() == vm::kNullRef)
        return v;
    Ref r = v.asRef();
    if (vm::isRemote(r))
        return v; // already a server address
    MappingTable &map = server_.mappingFor(endpoint_id_);
    Ref server_ref = map.toServer(r);
    if (server_ref == vm::kNullRef) {
        vm::Heap &server_heap = server_.heap();
        Ref clone =
            server_heap.cloneFrom(*heap_, r, server_heap.allocSpaceId());
        bh_assert(clone != vm::kNullRef,
                  "server heap exhausted during snapshot");
        map.add(clone, r);
        const vm::ObjHeader &hdr = server_heap.header(clone);
        if (hdr.kind != vm::ObjKind::Bytes) {
            for (uint32_t i = 0; i < hdr.count; ++i) {
                server_heap.setFieldRaw(
                    clone, i,
                    snapshotServerField(server_heap.field(clone, i)));
            }
        }
        server_ref = clone;
    }
    return Value::ofRef(vm::markRemote(server_ref));
}

Value
BeeHiveFunction::snapshotServerField(Value v)
{
    if (!v.isRef() || v.asRef() == vm::kNullRef)
        return v;
    Ref r = v.asRef();
    if (vm::isRemote(r))
        return Value::ofRef(vm::stripRemote(r));
    // Function-local ref inside a promoted clone.
    Value promoted = snapshotValue(Value::ofRef(r));
    return Value::ofRef(vm::stripRemote(promoted.asRef()));
}

void
BeeHiveFunction::complete(Invocation &inv, Value result)
{
    inv.closeShadowSession();
    Value server_result =
        copyResultToServer(result, *ctx_, server_.context(),
                           server_.mappingFor(endpoint_id_));
    sim::SimTime ret_latency = server_.network().roundTrip(
        node(), server_.endpoint(), 256, 64);
    inv.trace().duration =
        server_.sim().now() + ret_latency - inv.startedAt();
    telemetry::SpanId ret_sp =
        inv.span("fn.return", telemetry::Phase::Net);
    inv.after(ret_latency, [this, &inv, server_result, ret_sp] {
        inv.endSpan(ret_sp);
        warmed_roots_.insert(inv.root());
        // A completed cold boot folds its recorded working set into
        // the endpoint's snapshot image.
        recordFault(inv, [&](snapshot::SnapshotStore &snaps) {
            snaps.endRecordedBoot(inv.root());
        });
        // Free the slot before replying: the continuation's own
        // handle keeps `inv` alive through the callback.
        invocation_ = {};
        inv.reply(server_result);
        inv.retire();
    });
}

} // namespace beehive::core
