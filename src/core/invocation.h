/**
 * @file
 * The per-request invocation driver of the server and every function
 * instance.
 *
 * Semi-FaaS runs the same HiveVM on both sides; they differ only in
 * how they reach code, data, locks and the database (Sections 3-4).
 * An Invocation pumps one request's interpreter (run, charge the
 * endpoint's CPU, dispatch) and serves the suspensions both sides
 * share: quanta, heap exhaustion, monitor/volatile sync (Section
 * 4.2) and keyed database operations with reset/backoff/re-issue.
 * The rest sits behind the Endpoint seam.
 *
 * An endpoint owns its invocations through Invocation::Ptr handles
 * (the server's active set, a function's single slot), and so does
 * every pending continuation. When the endpoint lets go -- done,
 * killed or cancelled -- it calls retire(): shared state is released
 * at once and continuations still pending become no-ops.
 */

#ifndef BEEHIVE_CORE_INVOCATION_H
#define BEEHIVE_CORE_INVOCATION_H

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/external.h"
#include "core/sync.h"
#include "core/trace.h"
#include "db/record_store.h"
#include "proxy/connection_proxy.h"
#include "sim/cpu.h"
#include "sim/simulation.h"
#include "telemetry/telemetry.h"
#include "vm/interpreter.h"

namespace beehive::core {

class BeeHiveServer;
class Invocation;

/** One attempt of a database operation, as an endpoint sent it. */
struct DbAttempt
{
    db::Response resp;
    /** Time until the response is back at the endpoint. */
    sim::SimTime latency;
    /** Span covering the attempt; the driver closes it. */
    telemetry::SpanId span = telemetry::kNoSpan;
};

/**
 * What differs between the server and a function instance: CPU and
 * telemetry track, sync id and hop to the server, GC, database
 * transport, the faults only one side serves, and completion.
 */
class Endpoint
{
  public:
    /** Simulated CPU that interpretation is charged to. */
    virtual sim::ProcessorSharingCpu &cpu() = 0;
    /** Telemetry track (exporter thread) of this endpoint. */
    virtual uint32_t track() const = 0;
    /** SyncManager endpoint id; 0 is the server. */
    virtual uint16_t syncId() const = 0;
    /** Round trip of a fallback message to the server, including its
     * handling cost; zero on the server itself. */
    virtual sim::SimTime serverHop(uint64_t req_bytes,
                                   uint64_t resp_bytes) = 0;
    /** Run one GC cycle on this endpoint's heap; returns the pause. */
    virtual sim::SimTime collectGarbage() = 0;
    /** Send one attempt of @p payload (@p idem 0 = unkeyed) and
     * open its span. */
    virtual DbAttempt sendDb(Invocation &inv,
                             const DbCallPayload &payload,
                             uint64_t idem) = 0;

    // Suspensions only one side raises; the other side panics.
    virtual void classFault(Invocation &, vm::KlassId) { unserved(); }
    virtual void objectFault(Invocation &, vm::Ref) { unserved(); }
    virtual void nativeFallback(Invocation &) { unserved(); }
    virtual void
    offloadCall(Invocation &, vm::MethodId, std::vector<vm::Value>)
    {
        unserved();
    }

    /** A monitor was just won: the sync point where a recovery
     * snapshot may be taken (Section 4.5). */
    virtual void syncPoint(Invocation &) {}
    /** The root method returned @p result. */
    virtual void complete(Invocation &inv, vm::Value result) = 0;

  protected:
    ~Endpoint() = default;

  private:
    [[noreturn]] static void unserved();
};

/** One request's execution on one endpoint. */
class Invocation
{
  public:
    using DoneCb = std::function<void(vm::Value, const RequestTrace &)>;

    /**
     * Counted handle to a heap-allocated Invocation, which lives
     * until its last handle is gone. The count is a plain integer: a
     * simulation and all it schedules run on one thread, and the
     * atomic updates of std::shared_ptr on each of a request's ~100
     * continuations cost measurable host time.
     */
    class Ptr
    {
      public:
        Ptr() = default;
        explicit Ptr(Invocation *inv) : inv_(inv)
        {
            if (inv_)
                ++inv_->refs_;
        }
        Ptr(const Ptr &o) : Ptr(o.inv_) {}
        Ptr(Ptr &&o) noexcept : inv_(std::exchange(o.inv_, nullptr)) {}
        Ptr &
        operator=(Ptr o) noexcept
        {
            std::swap(inv_, o.inv_);
            return *this;
        }
        ~Ptr()
        {
            if (inv_ && --inv_->refs_ == 0)
                delete inv_;
        }
        Invocation *get() const { return inv_; }
        Invocation *operator->() const { return inv_; }
        Invocation &operator*() const { return *inv_; }

      private:
        Invocation *inv_ = nullptr;
    };

    /**
     * Run @p root on @p ep's VM @p vm, nested under @p tctx; the
     * endpoint hands the result to @p done via reply(). A nonzero
     * @p request_key keys writes by (request_key, write sequence
     * from @p write_seq) so a re-execution never applies one twice;
     * a @p shadow (Section 3.4) writes to a proxy overlay instead.
     */
    Invocation(BeeHiveServer &server, Endpoint &ep, vm::VmContext &vm,
               vm::MethodId root, DoneCb done, telemetry::Context tctx,
               bool shadow = false, uint64_t request_key = 0,
               uint64_t write_seq = 0);
    Invocation(const Invocation &) = delete;
    Invocation &operator=(const Invocation &) = delete;

    /**
     * The endpoint lets go (done, killed or cancelled): release held
     * and awaited monitors, abort an unfinished shadow session, and
     * turn every pending continuation into a no-op.
     */
    void retire();
    bool live() const { return live_; }

    /** Open the execution span @p span_name and run @p args. */
    void start(const char *span_name, std::vector<vm::Value> args);
    /** Like start(), but continue from snapshot @p frames. */
    void resume(const char *span_name, std::vector<vm::Frame> frames);
    /** Run the interpreter to its next suspension and serve it. */
    void pump();
    /** Complete a pending External/OffloadCall and keep running. */
    void resumeWith(vm::Value result);

    /** Run @p next after @p delay unless retired by then. */
    template <typename Fn>
    void
    after(sim::SimTime delay, Fn next)
    {
        sim_.after(delay, [self = Ptr(this),
                           next = std::move(next)]() mutable {
            if (self->live_)
                next();
        });
    }

    /** Close the execution span and hand @p result and the trace to
     * the requester (once). */
    void reply(vm::Value result);

    // Telemetry (no-ops without a tracer). span() opens a sub-span
    // of the execution span.
    telemetry::SpanId span(const char *name, telemetry::Phase phase);
    void endSpan(telemetry::SpanId id);
    void countMetric(const char *name);
    /** Ambient context for synchronous calls made on our behalf. */
    telemetry::Context
    spanContext() const
    {
        return {tctx_.request, exec_span_};
    }

    /** Account one fallback the server serves: trace, metric and
     * the server's count. */
    void chargeFallback(FallbackKind kind, sim::SimTime latency,
                        const char *metric);

    /** Shadow proxy overlay session (Section 3.4): closed when the
     * shadow finishes, aborted if it dies first. */
    void openShadowSession(net::EndpointId node);
    void closeShadowSession();
    proxy::ShadowToken shadowToken() const { return shadow_token_; }

    /** Record klass/static use as a profiler sample. */
    void
    setRecording(bool on)
    {
        recording_ = on;
        interp_.enableRecording(on);
    }
    bool recording() const { return recording_; }

    vm::Interpreter &interp() { return interp_; }
    vm::MethodId root() const { return root_; }
    bool shadow() const { return shadow_; }
    uint64_t requestKey() const { return request_key_; }
    uint64_t writeSeq() const { return write_seq_; }
    RequestTrace &trace() { return trace_; }
    sim::SimTime startedAt() const { return started_at_; }
    /** CPU work (ns) charged so far. */
    double cpuWork() const { return cpu_work_; }

  private:
    telemetry::Tracer *tracer() { return sim_.tracer(); }
    void begin(const char *span_name);
    void dispatch(const vm::Suspend &s);
    void acquireMonitor(vm::Ref obj);
    void monitorGranted(vm::Ref obj, const SyncManager::SyncResult &r,
                        telemetry::SpanId sp);
    void syncVolatile(vm::Ref obj);
    sim::SimTime syncLatency(const SyncManager::SyncResult &r);
    void callDb(DbCallPayload payload);
    void issueDb(DbCallPayload payload, uint64_t idem,
                 uint32_t attempt);
    vm::Value materialize(const db::Request &req,
                          const db::Response &resp);

    BeeHiveServer &server_;
    Endpoint &ep_;
    sim::Simulation &sim_;
    vm::VmContext &vm_;
    vm::Interpreter interp_;
    vm::MethodId root_;
    DoneCb done_;
    RequestTrace trace_;
    bool shadow_;
    bool recording_ = false;
    /** Exactly-once identity of this request (0 = unkeyed). */
    uint64_t request_key_;
    /** Deterministic write counter for idempotency keys. */
    uint64_t write_seq_;
    proxy::ShadowToken shadow_token_ = 0;
    telemetry::Context tctx_;
    telemetry::SpanId exec_span_ = telemetry::kNoSpan;
    sim::SimTime started_at_;
    double cpu_work_ = 0.0;
    uint32_t refs_ = 0;
    bool live_ = true;
};

/**
 * Materialize a database response as VM objects in @p ctx's heap:
 * reads yield an array of byte objects (one per row), writes yield
 * the affected-row count. Empty when the heap is exhausted.
 */
std::optional<vm::Value>
tryMaterializeDbResponse(vm::VmContext &ctx, const db::Request &req,
                         const db::Response &resp);

} // namespace beehive::core

#endif // BEEHIVE_CORE_INVOCATION_H
