#include "sim/cpu.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/logging.h"

namespace beehive::sim {

ProcessorSharingCpu::ProcessorSharingCpu(Simulation &sim, int cores,
                                         double speed)
    : sim_(sim), cores_(cores), speed_(speed), last_update_(sim.now())
{
    bh_assert(cores >= 1, "CPU needs at least one core");
    bh_assert(speed > 0.0, "CPU speed must be positive");
}

ProcessorSharingCpu::~ProcessorSharingCpu()
{
    if (pending_event_)
        sim_.cancel(pending_event_);
}

double
ProcessorSharingCpu::ratePerJob() const
{
    std::size_t n = jobs_.size();
    if (n == 0)
        return 0.0;
    double share = std::min(1.0, static_cast<double>(cores_) /
                                     static_cast<double>(n));
    return speed_ * share;
}

void
ProcessorSharingCpu::advanceTo(SimTime now)
{
    double elapsed = static_cast<double>((now - last_update_).ns());
    last_update_ = now;
    if (elapsed <= 0.0 || jobs_.empty())
        return;
    double progress = elapsed * ratePerJob();
    for (Job &job : jobs_) {
        done_work_ += std::min(progress, std::max(job.remaining, 0.0));
        job.remaining -= progress;
    }
}

void
ProcessorSharingCpu::reschedule()
{
    if (pending_event_) {
        sim_.cancel(pending_event_);
        pending_event_ = 0;
    }
    if (jobs_.empty())
        return;
    double min_remaining = INFINITY;
    for (const Job &job : jobs_)
        min_remaining = std::min(min_remaining, job.remaining);
    double rate = ratePerJob();
    double delay_ns = std::max(0.0, min_remaining / rate);
    SimTime when = sim_.now() + SimTime::nsec(
        static_cast<int64_t>(std::ceil(delay_ns)));
    pending_event_ = sim_.at(when, [this] {
        pending_event_ = 0;
        advanceTo(sim_.now());
        // Collect all jobs that are done (remaining can dip a hair
        // below zero from rounding).
        std::vector<Callback> finished;
        auto kept = jobs_.begin();
        for (Job &job : jobs_) {
            if (job.remaining <= 0.5)
                finished.push_back(std::move(job.done));
            else
                *kept++ = std::move(job);
        }
        jobs_.erase(kept, jobs_.end());
        reschedule();
        for (auto &cb : finished)
            cb();
    });
}

ProcessorSharingCpu::JobId
ProcessorSharingCpu::submit(double work, Callback done)
{
    bh_assert(work >= 0.0, "negative work");
    advanceTo(sim_.now());
    JobId id = next_id_++;
    jobs_.push_back(Job{id, std::max(work, 1.0), std::move(done)});
    reschedule();
    return id;
}

bool
ProcessorSharingCpu::cancel(JobId id)
{
    advanceTo(sim_.now());
    auto it = std::lower_bound(
        jobs_.begin(), jobs_.end(), id,
        [](const Job &job, JobId key) { return job.id < key; });
    if (it == jobs_.end() || it->id != id)
        return false;
    jobs_.erase(it);
    reschedule();
    return true;
}

void
ProcessorSharingCpu::setSpeed(double speed)
{
    bh_assert(speed > 0.0, "CPU speed must be positive");
    advanceTo(sim_.now());
    speed_ = speed;
    reschedule();
}

} // namespace beehive::sim
