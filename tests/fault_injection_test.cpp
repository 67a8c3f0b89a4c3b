// Tests for the deterministic fault-injection harness: the arm/fire
// semantics themselves (hit counting, trigger_after, max_fires, disarm),
// and the failure scenarios it drives through the real layers — a stalled
// async executor delivering its injected error through the future, an
// allocation failure at service admission, a slow shard expiring a
// deadlined job, and a mid-pipeline stage failure — all hit-count
// deterministic, never timing- or randomness-based.
#include <gtest/gtest.h>

#include <chrono>
#include <new>
#include <string>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "exec/async.hpp"
#include "exec/executor.hpp"
#include "serve/service.hpp"
#include "tonemap/kernel.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls {
namespace {

// RAII teardown: sites are process-global, so every test disarms on every
// exit path — a failing assertion must not leak an armed site.
struct ScopedDisarm {
  ~ScopedDisarm() { fault::disarm_all(); }
};

img::ImageF random_hdr(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  img::ImageF im(w, h, 3);
  for (float& v : im.samples()) {
    v = static_cast<float>(rng.uniform() * 100.0 + 1e-3);
  }
  return im;
}

tonemap::PipelineOptions small_options() {
  tonemap::PipelineOptions opt;
  opt.sigma = 1.5;
  opt.radius = 4;
  opt.backend = "separable_float";
  return opt;
}

// --- harness semantics -----------------------------------------------------

TEST(FaultHarnessTest, DisarmedSitesAreInertAndUncounted) {
  EXPECT_FALSE(fault::enabled());
  fault::inject("no.such.site");                    // no-op
  EXPECT_FALSE(fault::should_fail("no.such.site")); // no-op
  EXPECT_EQ(fault::stats("no.such.site").hits, 0u);
}

TEST(FaultHarnessTest, ArmedThrowSiteFiresAndCounts) {
  ScopedDisarm teardown;
  fault::FaultSpec spec;
  spec.action = fault::Action::throw_error;
  spec.message = "boom";
  fault::arm("t.site", spec);
  EXPECT_TRUE(fault::enabled());
  try {
    fault::inject("t.site");
    FAIL() << "expected InjectedFault";
  } catch (const fault::InjectedFault& e) {
    EXPECT_EQ(std::string(e.what()), "boom");
  }
  EXPECT_EQ(fault::stats("t.site").hits, 1u);
  EXPECT_EQ(fault::stats("t.site").fires, 1u);
  // An armed site another name does not exist: untouched.
  EXPECT_EQ(fault::stats("t.other").hits, 0u);
  fault::disarm("t.site");
  EXPECT_FALSE(fault::enabled());
  fault::inject("t.site"); // disarmed: inert again
}

TEST(FaultHarnessTest, TriggerAfterAimsAtTheNthHit) {
  ScopedDisarm teardown;
  fault::FaultSpec spec;
  spec.action = fault::Action::throw_error;
  spec.trigger_after = 2; // hits 0 and 1 pass, hit 2 fires
  fault::arm("t.nth", spec);
  EXPECT_NO_THROW(fault::inject("t.nth"));
  EXPECT_NO_THROW(fault::inject("t.nth"));
  EXPECT_THROW(fault::inject("t.nth"), fault::InjectedFault);
  EXPECT_EQ(fault::stats("t.nth").hits, 3u);
  EXPECT_EQ(fault::stats("t.nth").fires, 1u);
}

TEST(FaultHarnessTest, MaxFiresBoundsTheFaultButKeepsCounting) {
  ScopedDisarm teardown;
  fault::FaultSpec spec;
  spec.max_fires = 2;
  fault::arm("t.bounded", spec);
  EXPECT_TRUE(fault::should_fail("t.bounded"));
  EXPECT_TRUE(fault::should_fail("t.bounded"));
  EXPECT_FALSE(fault::should_fail("t.bounded")); // exhausted: passes
  EXPECT_EQ(fault::stats("t.bounded").hits, 3u);
  EXPECT_EQ(fault::stats("t.bounded").fires, 2u);
}

TEST(FaultHarnessTest, DelayActionSleepsThenContinues) {
  ScopedDisarm teardown;
  fault::FaultSpec spec;
  spec.action = fault::Action::delay;
  spec.delay_seconds = 0.05;
  fault::arm("t.slow", spec);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(fault::inject("t.slow"));
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed.count(), 0.05);
}

TEST(FaultHarnessTest, BadAllocActionThrowsBadAlloc) {
  ScopedDisarm teardown;
  fault::FaultSpec spec;
  spec.action = fault::Action::throw_bad_alloc;
  fault::arm("t.alloc", spec);
  EXPECT_THROW(fault::inject("t.alloc"), std::bad_alloc);
}

TEST(FaultHarnessTest, FailActionThrowsAtInjectOnlySites) {
  ScopedDisarm teardown;
  fault::FaultSpec spec; // Action::fail is the default
  fault::arm("t.fail", spec);
  // A site with a graceful failure path sees `true`...
  EXPECT_TRUE(fault::should_fail("t.fail"));
  // ...while an inject()-only site gets the throw.
  EXPECT_THROW(fault::inject("t.fail"), fault::InjectedFault);
}

// --- injected failures through the real layers -----------------------------

TEST(FaultScenarioTest, StalledExecutorDeliversInjectedErrorThroughFuture) {
  ScopedDisarm teardown;
  exec::AsyncExecutor async(exec::PipelineExecutor("separable_float"));
  fault::FaultSpec spec;
  spec.action = fault::Action::throw_error;
  spec.message = "executor stalled";
  spec.max_fires = 1;
  fault::arm("exec.async.task", spec);

  const tonemap::GaussianKernel kernel(1.5, 4);
  img::ImageF plane(16, 12, 1);
  for (float& v : plane.samples()) v = 0.5f;
  auto failed = async.submit({plane, kernel});
  EXPECT_THROW(failed.get(), fault::InjectedFault);

  // The fire budget is spent: the executor keeps serving normally.
  auto ok = async.submit({plane, kernel});
  EXPECT_NO_THROW(ok.get());
}

TEST(FaultScenarioTest, AllocationFailureAtAdmissionLeavesServiceHealthy) {
  ScopedDisarm teardown;
  serve::ToneMapServiceOptions options;
  options.shards = 1;
  serve::ToneMapService service(options);
  fault::FaultSpec spec;
  spec.action = fault::Action::throw_bad_alloc;
  spec.max_fires = 1;
  fault::arm("serve.submit", spec);

  const img::ImageF frame = random_hdr(15, 11, 1);
  serve::FrameJob job;
  job.frame = frame;
  job.options = small_options();
  EXPECT_THROW(service.submit(std::move(job)), std::bad_alloc);

  // The failed admission left no trace; the next job is served.
  serve::FrameJob retry;
  retry.frame = frame;
  retry.options = small_options();
  EXPECT_NO_THROW(service.submit(std::move(retry)).get());
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(FaultScenarioTest, SlowShardExpiresDeadlinedJobDeterministically) {
  ScopedDisarm teardown;
  serve::ToneMapServiceOptions options;
  options.shards = 1;
  serve::ToneMapService service(options);
  // The worker stalls 0.2 s at pickup; the job's 20 ms deadline has
  // passed by the dequeue check, so it expires before any pixel work.
  fault::FaultSpec spec;
  spec.action = fault::Action::delay;
  spec.delay_seconds = 0.2;
  spec.max_fires = 1;
  fault::arm("serve.worker.pickup", spec);

  serve::FrameJob job;
  job.frame = random_hdr(15, 11, 2);
  job.options = small_options();
  job.qos = serve::QosClass::critical;
  job.deadline_seconds = 0.02;
  auto future = service.submit(std::move(job));
  EXPECT_THROW(future.get(), serve::DeadlineExceeded);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.failed, 0u); // expiry is its own outcome, not a failure
  EXPECT_EQ(stats.submitted, stats.completed + stats.failed + stats.expired);
}

TEST(FaultScenarioTest, MidPipelineStageFailureFailsOnlyThatJob) {
  ScopedDisarm teardown;
  serve::ToneMapServiceOptions options;
  options.shards = 1;
  serve::ToneMapService service(options);
  // The staged (deadline-checked) path consults "serve.worker.stage"
  // between stages; a throw there fails the job like a backend error.
  fault::FaultSpec spec;
  spec.action = fault::Action::throw_error;
  spec.message = "stage blew up";
  spec.max_fires = 1;
  fault::arm("serve.worker.stage", spec);

  const img::ImageF frame = random_hdr(15, 11, 3);
  serve::FrameJob job;
  job.frame = frame;
  job.options = small_options();
  job.qos = serve::QosClass::critical;
  job.deadline_seconds = 30.0; // generous: only the injected fault fires
  auto future = service.submit(std::move(job));
  EXPECT_THROW(future.get(), fault::InjectedFault);

  // The shard moved on: an identical healthy job completes bit-identical
  // to the blocking pipeline.
  serve::FrameJob retry;
  retry.frame = frame;
  retry.options = small_options();
  retry.qos = serve::QosClass::critical;
  retry.deadline_seconds = 30.0;
  const serve::FrameResult result = service.submit(std::move(retry)).get();
  const img::ImageF expected = tonemap::tone_map(frame, small_options()).output;
  ASSERT_TRUE(result.output.same_shape(expected));
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.failed + stats.expired);
}

} // namespace
} // namespace tmhls
