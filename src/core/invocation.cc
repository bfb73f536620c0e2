#include "core/invocation.h"

#include <algorithm>

#include "core/server.h"
#include "support/logging.h"
#include "support/strutil.h"

namespace beehive::core {

using vm::Ref;
using vm::Value;

/** Base backoff before re-issuing a DB operation whose connection
 * was reset (doubled per attempt, capped at 16x). */
constexpr sim::SimTime kDbRetryBackoff = sim::SimTime::usec(400);

std::optional<Value>
tryMaterializeDbResponse(vm::VmContext &ctx, const db::Request &req,
                         const db::Response &resp)
{
    switch (req.kind) {
      case db::OpKind::Put:
      case db::OpKind::Delete:
      case db::OpKind::Count:
        return Value::ofInt(resp.ok ? resp.count : -1);
      case db::OpKind::Get:
      case db::OpKind::Scan: {
        vm::Heap &heap = ctx.heap();
        vm::KlassId arr_k = ctx.config().array_klass;
        vm::KlassId bytes_k = ctx.config().bytes_klass;
        bh_assert(arr_k != vm::kNoKlass && bytes_k != vm::kNoKlass,
                  "array/bytes klass not configured");
        Ref arr = heap.allocArray(
            arr_k, static_cast<uint32_t>(resp.rows.size()));
        if (arr == vm::kNullRef)
            return std::nullopt;
        for (std::size_t i = 0; i < resp.rows.size(); ++i) {
            const db::Row &row = resp.rows[i];
            std::string wire = strprintf("%lld", static_cast<long long>(
                                                     row.id));
            for (const auto &[k, v] : row.fields)
                wire += "|" + k + "=" + v;
            Ref cell = heap.allocBytes(bytes_k, wire);
            if (cell == vm::kNullRef)
                return std::nullopt;
            heap.setElem(arr, static_cast<uint32_t>(i),
                         Value::ofRef(cell));
        }
        return Value::ofRef(arr);
      }
    }
    return Value::nil();
}

void
Endpoint::unserved()
{
    panic("suspension kind this endpoint never raises");
}

Invocation::Invocation(BeeHiveServer &server, Endpoint &ep,
                       vm::VmContext &vm, vm::MethodId root,
                       DoneCb done, telemetry::Context tctx,
                       bool shadow, uint64_t request_key,
                       uint64_t write_seq)
    : server_(server), ep_(ep), sim_(server.sim()), vm_(vm),
      interp_(vm), root_(root), done_(std::move(done)),
      shadow_(shadow), request_key_(request_key),
      write_seq_(write_seq), tctx_(tctx)
{
    trace_.shadow = shadow;
}

void
Invocation::retire()
{
    live_ = false;
    // No request may leave monitors held or wait-queue entries
    // behind, and a shadow killed mid-run must not leak its overlay.
    server_.sync().abandonHolder(this);
    if (shadow_token_ != 0)
        server_.proxy().shadowAbort(shadow_token_);
}

void
Invocation::begin(const char *span_name)
{
    started_at_ = sim_.now();
    if (telemetry::Tracer *t = tracer()) {
        exec_span_ = t->begin(span_name, telemetry::Phase::Exec,
                              ep_.track(), tctx_.span, tctx_.request);
    }
}

void
Invocation::start(const char *span_name, std::vector<Value> args)
{
    begin(span_name);
    interp_.start(root_, std::move(args));
    pump();
}

void
Invocation::resume(const char *span_name,
                   std::vector<vm::Frame> frames)
{
    begin(span_name);
    interp_.restoreFrames(std::move(frames));
    pump();
}

void
Invocation::pump()
{
    vm::Suspend s = interp_.run();
    double cost = interp_.consumeCost();
    cpu_work_ += cost;
    if (cost > 0.0) {
        // The suspension waits in the invocation, so the callback
        // captures one pointer and needs no heap allocation.
        bh_assert(!slice_pending_, "pump() while a CPU slice is pending");
        pending_ = std::move(s);
        slice_pending_ = true;
        ep_.cpu().submit(cost, [self = Ptr(this)] {
            self->slice_pending_ = false;
            vm::Suspend next = std::move(self->pending_);
            if (self->live_)
                self->dispatch(next);
        });
    } else {
        dispatch(s);
    }
}

void
Invocation::resumeWith(Value result)
{
    interp_.resumeExternal(result);
    pump();
}

void
Invocation::reply(Value result)
{
    endSpan(exec_span_);
    DoneCb done = std::move(done_);
    done(result, trace_);
}

telemetry::SpanId
Invocation::span(const char *name, telemetry::Phase phase)
{
    telemetry::Tracer *t = tracer();
    if (!t)
        return telemetry::kNoSpan;
    return t->begin(name, phase, ep_.track(), exec_span_,
                    tctx_.request);
}

void
Invocation::endSpan(telemetry::SpanId id)
{
    if (telemetry::Tracer *t = tracer())
        t->end(id);
}

void
Invocation::countMetric(const char *name)
{
    if (telemetry::Tracer *t = tracer())
        t->metrics().count(name);
}

void
Invocation::chargeFallback(FallbackKind kind, sim::SimTime latency,
                           const char *metric)
{
    trace_.countFallback(kind);
    trace_.fallback_time += latency;
    countMetric(metric);
    server_.countFallbackServed();
}

void
Invocation::openShadowSession(net::EndpointId node)
{
    shadow_token_ = server_.proxy().shadowBegin(node);
}

void
Invocation::closeShadowSession()
{
    if (shadow_token_ == 0)
        return;
    server_.proxy().shadowEnd(shadow_token_);
    shadow_token_ = 0; // consumed; the destructor must not abort it
}

void
Invocation::dispatch(const vm::Suspend &s)
{
    switch (s.kind) {
      case vm::Suspend::Kind::Done:
        ep_.complete(*this, s.result);
        return;

      case vm::Suspend::Kind::Quantum:
        pump();
        return;

      case vm::Suspend::Kind::External:
        callDb(std::any_cast<DbCallPayload>(s.external));
        return;

      case vm::Suspend::Kind::MonitorAcquire:
        acquireMonitor(s.monitor_obj);
        return;

      case vm::Suspend::Kind::MonitorRelease:
        server_.sync().releaseMonitor(ep_.syncId(), this,
                                      s.monitor_obj);
        interp_.grantRelease();
        pump();
        return;

      case vm::Suspend::Kind::VolatileSync:
        syncVolatile(s.monitor_obj);
        return;

      case vm::Suspend::Kind::HeapFull: {
        sim::SimTime pause = ep_.collectGarbage();
        trace_.gc_time += pause;
        telemetry::SpanId sp = span("gc.pause", telemetry::Phase::Gc);
        after(pause, [this, sp] {
            endSpan(sp);
            pump();
        });
        return;
      }

      case vm::Suspend::Kind::ClassFault:
        ep_.classFault(*this, s.klass);
        return;

      case vm::Suspend::Kind::ObjectFault:
        ep_.objectFault(*this, s.remote_ref);
        return;

      case vm::Suspend::Kind::NativeFallback:
        ep_.nativeFallback(*this);
        return;

      case vm::Suspend::Kind::OffloadCall:
        ep_.offloadCall(*this, s.offload_method, s.offload_args);
        return;
    }
}

void
Invocation::acquireMonitor(Ref obj)
{
    // The wait span covers queueing on the monitor plus the acquire
    // round trip; it closes when the interpreter resumes.
    telemetry::SpanId sp = span("sync.wait", telemetry::Phase::Sync);
    server_.sync().acquireMonitor(
        ep_.syncId(), this, obj,
        [self = Ptr(this), obj, sp](const SyncManager::SyncResult &r) {
            if (self->live_)
                self->monitorGranted(obj, r, sp);
        });
}

void
Invocation::monitorGranted(Ref obj, const SyncManager::SyncResult &r,
                           telemetry::SpanId sp)
{
    // The grant carries the lock plus the translated dirty objects
    // (Figure 6).
    sim::SimTime latency = syncLatency(r);
    ep_.syncPoint(*this);
    interp_.grantMonitor(obj);
    after(latency, [this, sp] {
        endSpan(sp);
        pump();
    });
}

void
Invocation::syncVolatile(Ref obj)
{
    // Volatile acquire/release: pull the last releaser's state (no
    // mutual exclusion, no monitor queue).
    SyncManager::SyncResult r =
        server_.sync().acquire(ep_.syncId(), obj);
    sim::SimTime latency = syncLatency(r);
    interp_.grantVolatile(obj);
    telemetry::SpanId sp =
        span("sync.volatile", telemetry::Phase::Sync);
    after(latency, [this, sp] {
        endSpan(sp);
        pump();
    });
}

sim::SimTime
Invocation::syncLatency(const SyncManager::SyncResult &r)
{
    // The acquire message goes to the server; when another function
    // released last, the server first forwards the acquire to that
    // owner and waits for its state.
    sim::SimTime latency = ep_.serverHop(64, r.bytes_transferred + 64);
    if (r.remote && r.prev_owner != 0) {
        latency += server_.network().roundTrip(
            server_.endpoint(), server_.functionNode(r.prev_owner), 64,
            r.bytes_transferred + 64);
    }
    if (ep_.syncId() != 0) {
        // Off the server, every synchronization is a fallback.
        chargeFallback(FallbackKind::Sync, latency, "fallback.sync");
        trace_.sync_time += latency;
        trace_.synchronized_objects += r.objects_transferred;
    }
    return latency;
}

void
Invocation::callDb(DbCallPayload payload)
{
    // Writes of a re-executable request carry a deterministic
    // idempotency key: (request key, per-invocation write sequence).
    // A retried execution regenerates the same keys in the same
    // order, so the proxy's exactly-once guard suppresses every
    // write a previous attempt already applied. Shadow writes land
    // in an overlay and need no key.
    uint64_t idem = 0;
    bool is_write = payload.request.kind == db::OpKind::Put ||
                    payload.request.kind == db::OpKind::Delete;
    if (is_write && !shadow_ && request_key_ != 0)
        idem = (request_key_ << 16) | (write_seq_++ & 0xffff);
    issueDb(std::move(payload), idem, /*attempt=*/0);
}

void
Invocation::issueDb(DbCallPayload payload, uint64_t idem,
                    uint32_t attempt)
{
    DbAttempt a = ep_.sendDb(*this, payload, idem);
    // Resets the proxy absorbed (transparent read re-issue) cost one
    // reconnect each.
    if (a.resp.resets > 0) {
        trace_.db_resets += a.resp.resets;
        a.latency += server_.proxy().reconnectPenalty() *
                     static_cast<double>(a.resp.resets);
    }
    if (a.resp.reset) {
        // The connection dropped before the operation executed.
        // Reconnect and re-issue with capped exponential backoff;
        // the idempotency key (already drawn) keeps a write that
        // somehow did land from applying twice.
        ++trace_.db_resets;
        sim::SimTime backoff =
            kDbRetryBackoff *
            static_cast<double>(1u << std::min(attempt, 4u));
        sim::SimTime delay =
            a.latency + server_.proxy().reconnectPenalty() + backoff;
        after(delay, [this, payload = std::move(payload), idem,
                      attempt, sp = a.span]() mutable {
            endSpan(sp);
            issueDb(std::move(payload), idem, attempt + 1);
        });
        return;
    }
    after(a.latency, [this, payload = std::move(payload),
                      resp = std::move(a.resp), sp = a.span] {
        endSpan(sp);
        resumeWith(materialize(payload.request, resp));
    });
}

Value
Invocation::materialize(const db::Request &req,
                        const db::Response &resp)
{
    std::optional<Value> v = tryMaterializeDbResponse(vm_, req, resp);
    if (!v) {
        trace_.gc_time += ep_.collectGarbage();
        v = tryMaterializeDbResponse(vm_, req, resp);
    }
    bh_assert(v.has_value(), "heap exhausted materializing db rows");
    return *v;
}

} // namespace beehive::core
