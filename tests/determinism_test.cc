/**
 * @file
 * Determinism guarantees for the benchmark drivers.
 *
 * Every figure in the paper reproduction must be bit-reproducible:
 * the same options must yield the same result no matter how often a
 * trial runs or how many worker threads the driver fans trials
 * across. Each trial owns its own Testbed/Simulation seeded from its
 * options, so the only way parallelism could change a number is
 * hidden shared state -- which these tests would catch.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <thread>
#include <vector>

#include "harness/burst.h"
#include "harness/parallel.h"
#include "harness/throughput.h"

namespace beehive::harness {
namespace {

/** Small fig07-style config (short duration keeps the test fast). */
BurstOptions
quickBurstOptions(Solution sol)
{
    BurstOptions opts;
    opts.app = AppKind::Thumbnail;
    opts.solution = sol;
    opts.duration = sim::SimTime::sec(24);
    opts.burst_at = sim::SimTime::sec(8);
    return opts;
}

/** Bit-exact vector comparison (warmup seconds are NaN, and
 * NaN != NaN would fail a value compare on identical data). */
void
expectSameBits(const std::vector<double> &a,
               const std::vector<double> &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                             a.size() * sizeof(double)));
}

void
expectSameBurstResult(const BurstResult &a, const BurstResult &b)
{
    expectSameBits(a.p99_per_second, b.p99_per_second);
    expectSameBits(a.mean_per_second, b.mean_per_second);
    EXPECT_EQ(a.pre_burst_p99, b.pre_burst_p99);
    EXPECT_EQ(a.stable_p99, b.stable_p99);
    EXPECT_EQ(a.stabilization_seconds, b.stabilization_seconds);
    EXPECT_EQ(a.scaling_cost, b.scaling_cost);
    EXPECT_EQ(a.completed_requests, b.completed_requests);
    EXPECT_EQ(a.cold_boots, b.cold_boots);
    EXPECT_EQ(a.warm_boots, b.warm_boots);
    EXPECT_EQ(a.restore_boots, b.restore_boots);
}

TEST(Determinism, BurstRunTwiceIsIdentical)
{
    BurstOptions opts = quickBurstOptions(Solution::Burstable);
    BurstResult first = runBurstExperiment(opts);
    BurstResult second = runBurstExperiment(opts);
    ASSERT_GT(first.completed_requests, 0u);
    expectSameBurstResult(first, second);
}

TEST(Determinism, BurstOverRecycledHeapBlocksIsIdentical)
{
    // VM heap arenas are not zeroed, so the second run's server and
    // function heaps sit partly on blocks the first run's destroyed
    // Testbed handed back to malloc, stale bytes included. Nothing an
    // allocation did not write may reach a result.
    BurstOptions opts = quickBurstOptions(Solution::BeeHiveO);
    opts.app = AppKind::Pybbs;
    BurstResult first = runBurstExperiment(opts);
    ASSERT_GT(first.completed_requests, 0u);
    ASSERT_GT(first.cold_boots, 0u);
    BurstResult second = runBurstExperiment(opts);
    expectSameBurstResult(first, second);
    EXPECT_EQ(first.offload.offloaded, second.offload.offloaded);
}

TEST(Determinism, ThroughputPointRunTwiceIsIdentical)
{
    ThroughputOptions opts;
    opts.app = AppKind::Thumbnail;
    opts.config = ThroughputConfig::Vanilla;
    opts.duration = sim::SimTime::sec(10);
    opts.warmup = sim::SimTime::sec(3);
    ThroughputPoint first = runThroughputPoint(opts, 40.0);
    ThroughputPoint second = runThroughputPoint(opts, 40.0);
    ASSERT_GT(first.achieved_rps, 0.0);
    EXPECT_EQ(first.offered_rps, second.offered_rps);
    EXPECT_EQ(first.achieved_rps, second.achieved_rps);
    EXPECT_EQ(first.mean_latency, second.mean_latency);
    EXPECT_EQ(first.p99_latency, second.p99_latency);
}

TEST(Determinism, SerialAndParallelTrialsAgree)
{
    // The exact fan-out the figure drivers use: one simulation per
    // trial, merged by index. Serial (threads=1) and a forced
    // 4-thread pool must produce identical vectors even on a
    // single-core host.
    std::vector<BurstOptions> trials = {
        quickBurstOptions(Solution::Burstable),
        quickBurstOptions(Solution::BeeHiveO),
    };
    auto run = [&](std::size_t i) {
        return runBurstExperiment(trials[i]);
    };
    std::vector<BurstResult> serial =
        runTrials(trials.size(), run, /*threads=*/1);
    std::vector<BurstResult> parallel =
        runTrials(trials.size(), run, /*threads=*/4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSameBurstResult(serial[i], parallel[i]);
}

TEST(Determinism, RunTrialsPreservesIndexOrder)
{
    // Results land at their trial's index regardless of which worker
    // claimed the trial or in what order workers finished.
    std::vector<int> out = runTrials(
        64, [](std::size_t i) { return static_cast<int>(i) * 3; },
        /*threads=*/4);
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 3);
}

TEST(Determinism, RunTrialsPropagatesExceptions)
{
    EXPECT_THROW(runTrials(
                     8,
                     [](std::size_t i) -> int {
                         if (i == 5)
                             throw std::runtime_error("trial 5");
                         return 0;
                     },
                     /*threads=*/4),
                 std::runtime_error);
}

TEST(Determinism, ThreadResolutionRespectsJobCount)
{
    EXPECT_EQ(resolveTrialThreads(1, 100), 1u);
    EXPECT_EQ(resolveTrialThreads(16, 3), 3u);  // capped by jobs
    EXPECT_GE(resolveTrialThreads(0, 100), 1u); // auto never zero
    EXPECT_EQ(resolveTrialThreads(0, 0), 1u);
}

} // namespace
} // namespace beehive::harness
