#include "core/server.h"

#include "support/logging.h"
#include "vm/analysis.h"
#include "vm/verifier.h"

namespace beehive::core {

using vm::Value;

/** Request-thread pool size: requests beyond it queue (bounding
 * memory and, like any servlet container, producing queueing
 * latency under overload). */
constexpr std::size_t kServerMaxActive = 128;

// ---------------------------------------------------------------------
// BeeHiveServer
// ---------------------------------------------------------------------

BeeHiveServer::BeeHiveServer(sim::Simulation &sim, net::Network &net,
                             vm::Program &program,
                             vm::NativeRegistry &natives,
                             proxy::ConnectionProxy &proxy,
                             net::EndpointId db_endpoint,
                             cloud::Instance &machine,
                             BeeHiveConfig config)
    : sim_(sim), net_(net), program_(program), natives_(natives),
      proxy_(proxy), db_endpoint_(db_endpoint), machine_(machine),
      config_(config), profiler_(program)
{
    heap_ = std::make_unique<vm::Heap>(program_,
                                       config_.server_closure_bytes,
                                       config_.server_alloc_bytes);
    vm::VmConfig vm_cfg = config_.server_vm;
    vm_cfg.endpoint = 0;
    vm_cfg.check_remote_refs = false;
    ctx_ = std::make_unique<vm::VmContext>(program_, natives_, *heap_,
                                           vm_cfg);
    ctx_->loadAll();
    ctx_->setProfiler(&profiler_);

    if (config_.snapshot_enabled || config_.static_manifests) {
        // static_manifests needs the store even with recording off:
        // synthesized manifests live in it and serve the restore
        // path exactly like recorded images.
        snapshots_ = std::make_unique<snapshot::SnapshotStore>(
            program_, *heap_, config_.snapshot_image_budget_bytes,
            config_.snapshot_min_boots);
    }

    // Verify-on-load (strict = reject, warn = log). The verifier is
    // the load-time gate: bytecode it flags as Error can corrupt
    // interpreter frames mid-request.
    if (config_.verify_on_load != VerifyMode::Off) {
        vm::VerifyResult vr = vm::Verifier(program_).verifyAll();
        for (const vm::Diagnostic &d : vr.diagnostics)
            warn("verifier: %s", toString(d, program_).c_str());
        if (!vr.ok()) {
            if (config_.verify_on_load == VerifyMode::Strict)
                fatal("verify_on_load=strict: program rejected with "
                      "%zu error(s)",
                      vr.errorCount());
            warn("verifier found %zu error(s); continuing "
                 "(verify_on_load=warn)",
                 vr.errorCount());
        }
        // Lock-order analysis rides along with the verifier gate:
        // an ABBA inversion can wedge local and offloaded frames
        // against each other, so surface it before traffic starts.
        vm::ProgramAnalysis analysis(program_);
        for (const vm::LockCycle &cycle : analysis.lockCycles())
            warn("lock-order: %s",
                 cycle.describe(program_).c_str());
    }

    sync_.registerServer(ctx_.get());

    // Dirty tracking: stores to shared objects feed the server's
    // dirty set so later function acquires see them.
    heap_->setWriteObserver([this](vm::Ref obj) {
        if (heap_->header(obj).flags & vm::kFlagShared)
            sync_.markDirty(0, obj);
    });

    // Monitor policy: monitors of shared objects go through the
    // SyncManager's monitor table (mutual exclusion + JMM data
    // transfer); request-local objects stay cheap.
    ctx_->setMonitorPolicy([this](vm::Ref obj) {
        return sync_.monitorIsShared(0, obj);
    });

    // Server GC: frames of active requests + statics + mapping
    // tables + sync manager state.
    collector_ = std::make_unique<gc::SemiSpaceCollector>(*heap_);
    collector_->addValueRoots([this](const auto &visit) {
        for (auto &[key, inv] : active_)
            inv->interp().forEachRoot(visit);
        for (QueuedRequest &req : queue_) {
            for (vm::Value &v : req.args)
                visit(v);
        }
        ctx_->forEachStatic(visit);
    });
    collector_->addRefRoots([this](const auto &visit) {
        for (auto &[id, table] : mappings_)
            table->forEachServerRef(visit);
        sync_.forEachServerRef(visit);
    });

    // Telemetry wiring (all no-ops when the run has no tracer).
    if (auto *t = sim_.tracer()) {
        track_ = t->newTrack(
            "server-" + std::to_string(machine_.endpoint()));
        sync_.setTelemetry(t);
        collector_->setObserver([t](const gc::GcCycleStats &c) {
            telemetry::MetricsRegistry &m = t->metrics();
            m.count("gc.cycles");
            m.count("gc.bytes_copied", c.bytes_copied);
            m.observe("gc.pause_ms", c.pause.toMillis());
        });
    }
}

void
BeeHiveServer::handleLocal(vm::MethodId root, std::vector<Value> args,
                           DoneCb done, bool suppress_offload,
                           uint64_t request_key)
{
    // Suppressed-offload executions are internal dispatches (the
    // local leg of a shadowed request, or an offload that fell back
    // to local execution): conceptually they run on the thread that
    // is already processing the outer request, so they bypass the
    // pool -- queueing them behind outer requests that are waiting
    // for exactly these dispatches would deadlock the pool.
    telemetry::Context tctx;
    if (auto *t = sim_.tracer())
        tctx = t->current();
    if (!suppress_offload &&
        active_.size() >= kServerMaxActive) {
        // Thread pool exhausted: queue (bounded memory; queueing
        // latency is what overload looks like to clients).
        telemetry::SpanId queue_span = telemetry::kNoSpan;
        if (auto *t = sim_.tracer()) {
            queue_span = t->begin("server.queue",
                                  telemetry::Phase::Queue, track_,
                                  tctx.span, tctx.request);
            t->metrics().count("server.queued");
        }
        queue_.push_back(QueuedRequest{root, std::move(args),
                                       std::move(done),
                                       suppress_offload, request_key,
                                       tctx, queue_span});
        return;
    }
    launch(root, std::move(args), std::move(done), suppress_offload,
           request_key, tctx);
}

void
BeeHiveServer::launch(vm::MethodId root, std::vector<Value> args,
                      DoneCb done, bool suppress_offload,
                      uint64_t request_key, telemetry::Context tctx)
{
    Invocation::Ptr inv(new Invocation(
        *this, *this, *ctx_, root,
        [done = std::move(done)](Value v, const RequestTrace &) {
            done(v);
        },
        tctx, /*shadow=*/false, request_key));
    inv->interp().setSuppressOffload(suppress_offload);
    if (profiling_) {
        // Handlers reached through framework plumbing are profiled
        // by the interpreter's candidate tracking; directly-started
        // candidate roots use plain recording.
        inv->interp().enableCandidateProfiling(true);
        inv->setRecording(profiler_.isCandidate(root));
    }
    active_.emplace(inv.get(), inv);
    ++stats_.local_requests;
    inv->start("server.exec", std::move(args));
}

void
BeeHiveServer::complete(Invocation &inv, Value result)
{
    inv.retire();
    if (inv.recording()) {
        const vm::Interpreter &interp = inv.interp();
        profiler_.recordExecution(inv.root(), inv.cpuWork(),
                                  interp.recordedKlasses(),
                                  interp.recordedStatics(),
                                  interp.stats().monitor_enters);
    }
    if (auto *t = sim_.tracer()) {
        const vm::InterpStats &is = inv.interp().stats();
        telemetry::MetricsRegistry &m = t->metrics();
        m.count("server.requests");
        m.observe("vm.instructions_per_request",
                  static_cast<double>(is.instructions));
        m.count("vm.instructions", is.instructions);
        m.count("vm.calls", is.calls);
        m.count("vm.native_calls", is.native_calls);
        m.count("vm.ic_hits", is.ic_hits);
        m.count("vm.ic_misses", is.ic_misses);
    }
    // The continuation running us keeps `inv` alive past its slot.
    active_.erase(&inv);
    inv.reply(result);
    drainQueue();
}

void
BeeHiveServer::offloadCall(Invocation &inv, vm::MethodId method,
                           std::vector<Value> args)
{
    bh_assert(offload_dispatch_,
              "OffloadCall without an offload manager");
    // The manager opens its flight span under this exec span via
    // the ambient context (synchronous call).
    telemetry::ScopedContext sc(sim_.tracer(), inv.spanContext());
    offload_dispatch_(method, std::move(args),
                      [self = Invocation::Ptr(&inv)](Value result) {
                          if (self->live())
                              self->resumeWith(result);
                      });
}

DbAttempt
BeeHiveServer::sendDb(Invocation &inv, const DbCallPayload &payload,
                      uint64_t idem)
{
    DbAttempt a;
    a.resp = proxy_.request(static_cast<proxy::ConnId>(
                                payload.conn_token),
                            payload.request, idem);
    a.latency = dbRoundTrip(payload.request, a.resp);
    a.span = inv.span("db.roundtrip", telemetry::Phase::Db);
    inv.countMetric("db.ops");
    if (a.resp.reset)
        inv.countMetric("db.resets");
    return a;
}

void
BeeHiveServer::drainQueue()
{
    while (!queue_.empty() &&
           active_.size() < kServerMaxActive) {
        QueuedRequest req = std::move(queue_.front());
        queue_.pop_front();
        if (auto *t = sim_.tracer())
            t->end(req.queue_span);
        launch(req.root, std::move(req.args), std::move(req.done),
               req.suppress_offload, req.request_key, req.tctx);
    }
}

uint16_t
BeeHiveServer::registerFunction(vm::VmContext *fn_ctx,
                                net::EndpointId node)
{
    uint16_t id = next_fn_endpoint_++;
    mappings_[id] = std::make_unique<MappingTable>();
    fn_nodes_[id] = node;
    sync_.registerFunction(id, fn_ctx, mappings_[id].get());
    return id;
}

MappingTable &
BeeHiveServer::mappingFor(uint16_t fn_endpoint)
{
    auto it = mappings_.find(fn_endpoint);
    bh_assert(it != mappings_.end(), "unknown function endpoint %u",
              fn_endpoint);
    return *it->second;
}

net::EndpointId
BeeHiveServer::functionNode(uint16_t fn_endpoint) const
{
    auto it = fn_nodes_.find(fn_endpoint);
    bh_assert(it != fn_nodes_.end(), "unknown function endpoint %u",
              fn_endpoint);
    return it->second;
}

void
BeeHiveServer::dropFunction(uint16_t fn_endpoint)
{
    sync_.unregisterFunction(fn_endpoint);
    mappings_.erase(fn_endpoint);
    fn_nodes_.erase(fn_endpoint);
}

sim::SimTime
BeeHiveServer::runGc()
{
    gc::GcCycleStats stats = collector_->collect();
    ++stats_.gc_cycles;
    return stats.pause;
}

sim::SimTime
BeeHiveServer::dbRoundTrip(const db::Request &req,
                           const db::Response &resp)
{
    return net_.roundTrip(endpoint(), db_endpoint_, req.wireSize(),
                          resp.wireSize()) +
           proxy_.processingTime() + proxy_.dbServiceTime(req);
}

} // namespace beehive::core
