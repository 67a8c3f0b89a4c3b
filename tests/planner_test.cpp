// Tests for the planning/autotuning layer: CostModel's Amdahl thread
// scaling, online observation EWMAs and revision token; calibration
// snapshot persistence (save/load round-trip, host-fingerprint gating,
// determinism of plans from a fixed calibration file); Planner's named and
// auto paths, routing-table dispatch and band plumbing; the schedule
// explorer's table construction; bit-identity of blur output across every
// plan shape; and a concurrent submit-vs-replan hammer (run under TSan in
// CI) for the online feedback loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/cost_model.hpp"
#include "exec/planner.hpp"
#include "exec/registry.hpp"
#include "exec/schedule_explorer.hpp"
#include "tonemap/blur.hpp"
#include "serve/service.hpp"
#include "tonemap/kernel.hpp"
#include "tonemap/pipeline.hpp"

namespace tmhls::exec {
namespace {

img::ImageF random_plane(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  img::ImageF im(w, h, 1);
  for (float& v : im.samples()) v = static_cast<float>(rng.uniform());
  return im;
}

img::ImageF random_hdr(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  img::ImageF im(w, h, 3);
  for (float& v : im.samples()) {
    v = static_cast<float>(rng.uniform() * 100.0 + 1e-3);
  }
  return im;
}

::testing::AssertionResult bit_identical(const img::ImageF& a,
                                         const img::ImageF& b) {
  if (!a.same_shape(b)) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  auto sa = a.samples();
  auto sb = b.samples();
  if (std::memcmp(sa.data(), sb.data(), sa.size_bytes()) != 0) {
    return ::testing::AssertionFailure() << "bit pattern difference";
  }
  return ::testing::AssertionSuccess();
}

tonemap::GaussianKernel small_kernel() {
  return tonemap::GaussianKernel(2.0, 6); // 13 taps: every backend capable
}

/// What the planner turns a request for `threads` into on this host: the
/// hardware thread count caps it (0 = unknown host, no cap).
int host_clamped(int threads) {
  const int host = static_cast<int>(std::thread::hardware_concurrency());
  return host == 0 ? threads : std::min(threads, host);
}

// ---- CostModel: thread scaling, observations, revision ----------------

TEST(CostModelTest, GeometryBucketIsFloorLog2OfPixelCount) {
  EXPECT_EQ(geometry_bucket(1, 1), 0);
  EXPECT_EQ(geometry_bucket(2, 1), 1);
  EXPECT_EQ(geometry_bucket(64, 64), 12);     // 4096 px exactly
  EXPECT_EQ(geometry_bucket(64, 65), 12);     // same bucket, < 8192 px
  EXPECT_EQ(geometry_bucket(1024, 768), 19);  // the paper frame
  EXPECT_THROW(geometry_bucket(0, 64), InvalidArgument);
}

TEST(CostModelTest, AmdahlSpeedupMatchesClosedFormAndLinearPrior) {
  CostModel model;
  // Prior: serial fraction 0 reproduces the old linear assumption.
  EXPECT_DOUBLE_EQ(model.thread_speedup("separable_float", 4), 4.0);
  model.set_serial_fraction("separable_float", 0.25);
  // speedup(t) = t / (1 + s (t - 1))
  EXPECT_DOUBLE_EQ(model.thread_speedup("separable_float", 4),
                   4.0 / (1.0 + 0.25 * 3.0));
  EXPECT_DOUBLE_EQ(model.thread_speedup("separable_float", 1), 1.0);
  // Fully serial: no speedup at any thread count.
  model.set_serial_fraction("separable_float", 1.0);
  EXPECT_DOUBLE_EQ(model.thread_speedup("separable_float", 8), 1.0);
  // Out-of-range fractions clamp instead of corrupting the model.
  model.set_serial_fraction("separable_float", -3.0);
  EXPECT_DOUBLE_EQ(model.serial_fraction("separable_float"), 0.0);
}

TEST(CostModelTest, ObservationEwmaBlendsQuarterNewAndNormalizesThreads) {
  CostModel model;
  EXPECT_EQ(model.observed_seconds("separable_float", 100, 100, 1), 0.0);
  // First sample seeds the EWMA directly.
  model.record_observation("separable_float", 100, 100, 1, 8.0);
  EXPECT_NEAR(model.observed_seconds("separable_float", 100, 100, 1), 8.0,
              1e-12);
  // Linear prior: the same work at 2 threads is predicted at half.
  EXPECT_NEAR(model.observed_seconds("separable_float", 100, 100, 2), 4.0,
              1e-12);
  // Second sample blends 0.75 old / 0.25 new.
  model.record_observation("separable_float", 100, 100, 1, 16.0);
  EXPECT_NEAR(model.observed_seconds("separable_float", 100, 100, 1),
              0.75 * 8.0 + 0.25 * 16.0, 1e-12);
  EXPECT_EQ(model.observation_count("separable_float", 100, 100), 2u);
  // A multi-thread measurement normalizes to single-thread-equivalent
  // before blending: 3.0 s at 2 threads (linear) == 6.0 s at 1.
  CostModel fresh;
  fresh.record_observation("separable_float", 100, 100, 2, 3.0);
  EXPECT_NEAR(fresh.observed_seconds("separable_float", 100, 100, 1), 6.0,
              1e-12);
  // Garbage is ignored, not folded in.
  fresh.record_observation("separable_float", 100, 100, 1, -1.0);
  fresh.record_observation("separable_float", 100, 100, 1,
                           std::nan(""));
  EXPECT_EQ(fresh.observation_count("separable_float", 100, 100), 1u);
}

TEST(CostModelTest, RevisionBumpsOnEveryMutation) {
  CostModel model;
  const std::uint64_t r0 = model.revision();
  model.set_macs_per_second("separable_float", 2e9);
  const std::uint64_t r1 = model.revision();
  EXPECT_GT(r1, r0);
  model.record_observation("separable_float", 64, 64, 1, 0.01);
  const std::uint64_t r2 = model.revision();
  EXPECT_GT(r2, r1);
  // Reads do not bump.
  (void)model.observed_seconds("separable_float", 64, 64, 1);
  (void)model.thread_speedup("separable_float", 2);
  EXPECT_EQ(model.revision(), r2);
  // Rejected observations do not bump either.
  model.record_observation("separable_float", 64, 64, 1, -5.0);
  EXPECT_EQ(model.revision(), r2);
}

// ---- Persistence ------------------------------------------------------

TEST(CostModelTest, SnapshotRoundTripRestoresEveryLayer) {
  CostModel model;
  model.set_macs_per_second("separable_simd", 7.25e9);
  model.set_serial_fraction("separable_simd", 0.125);
  model.set_pointwise_ops_per_second(3.5e9);
  model.set_plane_bandwidth_bytes_per_second(9.5e9);
  model.record_observation("fused_stream", 640, 480, 2, 0.004);
  model.record_observation("fused_stream", 640, 480, 2, 0.005);

  std::ostringstream out;
  model.save_snapshot(out);

  CostModel restored;
  std::istringstream in(out.str());
  EXPECT_GT(restored.load_snapshot(in), 0);
  EXPECT_DOUBLE_EQ(restored.macs_per_second("separable_simd"), 7.25e9);
  EXPECT_DOUBLE_EQ(restored.serial_fraction("separable_simd"), 0.125);
  EXPECT_DOUBLE_EQ(restored.pointwise_ops_per_second(), 3.5e9);
  EXPECT_DOUBLE_EQ(restored.plane_bandwidth_bytes_per_second(), 9.5e9);
  EXPECT_DOUBLE_EQ(restored.observed_seconds("fused_stream", 640, 480, 2),
                   model.observed_seconds("fused_stream", 640, 480, 2));
  EXPECT_EQ(restored.observation_count("fused_stream", 640, 480), 2u);
}

TEST(CostModelTest, SnapshotFromAnotherHostIsIgnored) {
  CostModel model;
  model.set_macs_per_second("separable_simd", 7.25e9);
  std::ostringstream out;
  model.save_snapshot(out);

  // Rewrite the fingerprint: calibration must not transfer across hosts.
  std::string foreign = out.str();
  const std::string host = "\"host\":\"" + CostModel::host_fingerprint() +
                           "\"";
  std::size_t pos = 0;
  while ((pos = foreign.find(host, pos)) != std::string::npos) {
    foreign.replace(pos, host.size(), "\"host\":\"vax-c99\"");
  }

  CostModel restored;
  std::istringstream in(foreign);
  EXPECT_EQ(restored.load_snapshot(in), 0);
  EXPECT_DOUBLE_EQ(restored.macs_per_second("separable_simd"),
                   CostModel().macs_per_second("separable_simd"));
}

TEST(CostModelTest, AbsorbAcceptsBenchRecordsAndSnapshotsMixed) {
  CostModel donor;
  donor.record_observation("fused_stream", 640, 480, 1, 0.004);
  std::ostringstream snapshot;
  donor.save_snapshot(snapshot);
  // Keep only the observation records: a full snapshot also carries the
  // donor's backend priors, and the snapshot pass (which runs second)
  // would overwrite what the bench record below calibrates.
  std::string observations;
  std::istringstream lines(snapshot.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"kind\":\"observation\"") != std::string::npos) {
      observations += line + '\n';
    }
  }
  ASSERT_FALSE(observations.empty());

  // One stream holding a bench record AND snapshot records: both apply.
  const std::string mixed =
      "{\"bench\":\"backend_throughput\",\"backend\":\"separable_float\","
      "\"threads\":1,\"width\":100,\"height\":100,\"taps\":10,"
      "\"seconds_per_frame\":0.0001}\n" +
      observations;
  CostModel model;
  std::istringstream in(mixed);
  EXPECT_GT(model.absorb_jsonl(in), 1);
  // 2 * taps * w * h / seconds = 2e9 MACs/s from the bench record...
  EXPECT_DOUBLE_EQ(model.macs_per_second("separable_float"), 2e9);
  // ...and the EWMA from the snapshot.
  EXPECT_GT(model.observed_seconds("fused_stream", 640, 480, 1), 0.0);
}

TEST(PlannerTest, FixedCalibrationFileYieldsTheSamePlanEveryTime) {
  // Build a calibration stream that pins the auto choice, then verify
  // that loading it into fresh models always produces the identical plan
  // — the determinism contract for warm starts.
  CostModel donor;
  for (const char* backend :
       {"separable_float", "separable_simd", "streaming_float",
        "fused_stream", "hlscode"}) {
    // Everyone slow...
    donor.record_observation(backend, 64, 64, 1, 0.5);
  }
  donor.record_observation("separable_simd", 64, 64, 1, 1e-4); // ...one fast
  std::ostringstream snapshot;
  donor.save_snapshot(snapshot);

  PlanRequest request;
  request.width = 64;
  request.height = 64;
  request.backend = "auto";
  request.threads = 2;

  std::string first_backend;
  ExecutionPlan first;
  for (int i = 0; i < 3; ++i) {
    CostModel model;
    std::istringstream in(snapshot.str());
    ASSERT_GT(model.load_snapshot(in), 0);
    Planner planner(nullptr, &model);
    const ExecutionPlan plan = planner.plan(request, small_kernel());
    ASSERT_NE(plan.backend, nullptr);
    if (i == 0) {
      first_backend = plan.backend->name();
      first = plan;
      EXPECT_EQ(first_backend, "separable_simd");
      continue;
    }
    EXPECT_EQ(std::string(plan.backend->name()), first_backend);
    EXPECT_EQ(plan.threads, first.threads);
    EXPECT_EQ(plan.bands, first.bands);
    EXPECT_EQ(plan.use_fixed, first.use_fixed);
  }
}

// ---- Planner: named, auto, routing table, bands -----------------------

TEST(PlannerTest, NamedBackendPlansThatBackendAndClampsThreads) {
  CostModel model;
  Planner planner(nullptr, &model);
  PlanRequest request;
  request.width = 64;
  request.height = 64;
  request.backend = "separable_float";
  request.threads = 3;
  const ExecutionPlan plan = planner.plan(request, small_kernel());
  ASSERT_NE(plan.backend, nullptr);
  EXPECT_STREQ(plan.backend->name(), "separable_float");
  EXPECT_EQ(plan.threads, host_clamped(3));
  EXPECT_FALSE(plan.auto_selected);
  EXPECT_FALSE(plan.use_fixed);
  EXPECT_EQ(plan.model_revision, model.revision());

  // hlscode has no tiled_threads capability: the plan clamps, the caller
  // never has to know.
  request.backend = "hlscode";
  const ExecutionPlan clamped = planner.plan(request, small_kernel());
  EXPECT_STREQ(clamped.backend->name(), "hlscode");
  EXPECT_EQ(clamped.threads, 1);
}

TEST(PlannerTest, ThreadsAreClampedToTheHostOnEveryBranch) {
  // A request far beyond any host (the legacy wire thread hint allows 64)
  // must not plan 64 threads per blur: named, auto and routed plans all
  // cap at the hardware thread count, and the bits stay put.
  const unsigned host = std::thread::hardware_concurrency();
  if (host == 0) GTEST_SKIP() << "hardware_concurrency unknown: no clamp";
  const int cap = static_cast<int>(host);
  CostModel model;
  Planner planner(nullptr, &model);
  PlanRequest request;
  request.width = 64;
  request.height = 64;
  request.threads = 64;

  request.backend = "separable_float";
  EXPECT_EQ(planner.plan(request, small_kernel()).threads, cap);
  request.backend = "auto";
  const ExecutionPlan ranked = planner.plan(request, small_kernel());
  EXPECT_EQ(ranked.threads,
            ranked.backend->capabilities().tiled_threads ? cap : 1);
  RoutingTable table;
  table.entries.push_back(
      {geometry_bucket(64, 64), "separable_simd", 64, 0, 0.001});
  planner.install_routing_table(table);
  const ExecutionPlan routed = planner.plan(request, small_kernel());
  ASSERT_TRUE(routed.from_routing_table);
  EXPECT_EQ(routed.threads, cap);
  // A request within the host is left alone.
  planner.clear_routing_table();
  request.backend = "separable_float";
  request.threads = 1;
  EXPECT_EQ(planner.plan(request, small_kernel()).threads, 1);

  const img::ImageF plane = random_plane(64, 64, 5);
  request.threads = 64;
  EXPECT_TRUE(bit_identical(
      planner.plan(request, small_kernel()).make_executor().blur(
          plane, small_kernel()),
      tonemap::blur_separable_float(plane, small_kernel())));
}

TEST(PlannerTest, DatapathContradictionsThrowLikeLegacyMakeExecutor) {
  CostModel model;
  Planner planner(nullptr, &model);
  PlanRequest request;
  request.backend = "separable_float";
  request.datapath = PlanDatapath::fixed_point;
  EXPECT_THROW(planner.plan(request, small_kernel()), InvalidArgument);
  request.backend = "streaming_fixed";
  request.datapath = PlanDatapath::float32;
  EXPECT_THROW(planner.plan(request, small_kernel()), InvalidArgument);
  // Unspecified snaps to the backend's only datapath.
  request.datapath = PlanDatapath::unspecified;
  const ExecutionPlan plan = planner.plan(request, small_kernel());
  EXPECT_TRUE(plan.use_fixed);
  EXPECT_THROW(planner.plan(PlanRequest{64, 64, "no_such_backend"},
                            small_kernel()),
               InvalidArgument);
}

TEST(PlannerTest, AutoPrefersTheObservedFastestBackend) {
  CostModel model;
  // Observations for every float candidate: one clear winner. Auto must
  // rank by the measured EWMAs, not the analytic priors.
  for (const char* backend :
       {"separable_float", "separable_simd", "streaming_float",
        "fused_stream", "hlscode"}) {
    model.record_observation(backend, 64, 64, 1, 0.7);
  }
  model.record_observation("streaming_float", 64, 64, 1, 1e-4);
  Planner planner(nullptr, &model);
  PlanRequest request;
  request.width = 64;
  request.height = 64;
  request.backend = "auto";
  const ExecutionPlan plan = planner.plan(request, small_kernel());
  ASSERT_NE(plan.backend, nullptr);
  EXPECT_STREQ(plan.backend->name(), "streaming_float");
  EXPECT_TRUE(plan.auto_selected);
  EXPECT_FALSE(plan.from_routing_table);
  EXPECT_GT(plan.predicted_seconds, 0.0);
}

TEST(PlannerTest, RoutingTableDictatesAutoPlansForCoveredBuckets) {
  CostModel model;
  Planner planner(nullptr, &model);
  RoutingTable table;
  table.entries.push_back(
      {geometry_bucket(64, 64), "separable_float", 2, 4, 0.001});
  planner.install_routing_table(table);
  EXPECT_TRUE(planner.has_routing_table());

  PlanRequest request;
  request.width = 64;
  request.height = 64;
  request.backend = "auto";
  request.threads = 8; // the table's schedule wins over the request
  const ExecutionPlan routed = planner.plan(request, small_kernel());
  ASSERT_NE(routed.backend, nullptr);
  EXPECT_STREQ(routed.backend->name(), "separable_float");
  EXPECT_EQ(routed.threads, host_clamped(2));
  EXPECT_EQ(routed.bands, 4);
  EXPECT_TRUE(routed.from_routing_table);

  // An uncovered bucket falls through to cost ranking.
  request.width = 512;
  request.height = 512;
  const ExecutionPlan uncovered = planner.plan(request, small_kernel());
  EXPECT_FALSE(uncovered.from_routing_table);

  // Named requests never consult the table.
  request.width = 64;
  request.height = 64;
  request.backend = "separable_simd";
  const ExecutionPlan named = planner.plan(request, small_kernel());
  EXPECT_STREQ(named.backend->name(), "separable_simd");
  EXPECT_FALSE(named.from_routing_table);

  planner.clear_routing_table();
  EXPECT_FALSE(planner.has_routing_table());
  request.backend = "auto";
  EXPECT_FALSE(
      planner.plan(request, small_kernel()).from_routing_table);
}

TEST(PlannerTest, EveryPlanShapeBlursBitIdenticalToSeparableFloat) {
  // The tentpole invariant: plans choose scheduling, never bits. Run the
  // same plane through plans at several thread/band shapes on every
  // float-capable backend and demand byte equality with the 1-thread
  // separable_float reference.
  const tonemap::GaussianKernel kernel = small_kernel();
  const img::ImageF plane = random_plane(83, 57, 7);
  CostModel model;
  Planner planner(nullptr, &model);
  PlanRequest reference_request;
  reference_request.width = plane.width();
  reference_request.height = plane.height();
  reference_request.backend = "separable_float";
  const img::ImageF reference =
      planner.plan(reference_request, kernel).make_executor().blur(plane,
                                                                   kernel);
  for (const char* backend :
       {"separable_float", "separable_simd", "streaming_float",
        "fused_stream", "hlscode"}) {
    for (const auto& [threads, bands] :
         std::vector<std::pair<int, int>>{{1, 0}, {2, 0}, {2, 5}, {3, 6}}) {
      RoutingTable table;
      table.entries.push_back({geometry_bucket(plane.width(),
                                               plane.height()),
                               backend, threads, bands, 0.001});
      planner.install_routing_table(table);
      PlanRequest request;
      request.width = plane.width();
      request.height = plane.height();
      request.backend = "auto";
      const ExecutionPlan plan = planner.plan(request, kernel);
      ASSERT_STREQ(plan.backend->name(), backend);
      const img::ImageF out = plan.make_executor().blur(plane, kernel);
      EXPECT_TRUE(bit_identical(out, reference))
          << backend << " at " << threads << " thread(s), " << bands
          << " band(s)";
    }
  }
}

// ---- Schedule explorer ------------------------------------------------

TEST(ScheduleExplorerTest, SweepCoversTheGridAndBuildsOneEntryPerBucket) {
  CostModel model;
  ScheduleSearchConfig config;
  config.geometries = {{48, 36}, {96, 72}};
  config.thread_counts = {1, 2};
  config.band_factors = {1, 2};
  config.backends = {"separable_float", "fused_stream"};
  config.sigma = 2.0;
  config.radius = 6;
  config.reps = 1;
  const std::vector<SchedulePoint> points =
      explore_schedules(config, BackendRegistry::global(), model);
  // 2 geometries x 2 backends x (1 thread x 1 band-shape + 2 threads x 2
  // band-shapes): threads=1 dedups band factors (bands == threads * f
  // only varies when t > 1... bands 1*1=1 and 1*2=2 differ, so 2 shapes).
  EXPECT_EQ(points.size(), 2u * 2u * 4u);
  for (const SchedulePoint& p : points) {
    EXPECT_TRUE(p.feasible) << p.backend << ": " << p.rejection_reason;
    EXPECT_GT(p.pipeline_seconds, 0.0);
    EXPECT_GE(p.pipeline_seconds, p.blur_seconds);
  }
  // Measurements were fed back as observations.
  EXPECT_GT(model.observation_count("separable_float", 48, 36), 0u);

  const RoutingTable table = build_routing_table(points);
  EXPECT_EQ(table.entries.size(), 2u);
  for (const RoutingEntry& e : table.entries) {
    EXPECT_GT(e.measured_seconds, 0.0);
    // The winner is the measured minimum of its bucket.
    for (const SchedulePoint& p : points) {
      if (p.bucket == e.bucket && p.feasible) {
        EXPECT_LE(e.measured_seconds, p.pipeline_seconds);
      }
    }
  }
  EXPECT_FALSE(render(points).empty());
  EXPECT_FALSE(render(table).empty());
}

// ---- Online feedback under concurrency (TSan-gated in CI) -------------

TEST(PlannerTest, ConcurrentSubmitAndReplanIsRaceFreeAndBitStable) {
  // Hammer the online loop: client threads submit '--backend auto' jobs
  // through an online-calibrating service while a mutator thread pounds
  // the global cost model and swaps routing tables on the global planner
  // — exactly what a serving process does when autotune/observations and
  // traffic overlap. Run under TSan in CI; here it must stay bit-stable.
  const int width = 48, height = 48;
  tonemap::PipelineOptions popt;
  popt.sigma = 2.0;
  popt.radius = 6;
  popt.backend = "auto";
  const img::ImageF frame = random_hdr(width, height, 11);
  tonemap::PipelineOptions base = popt;
  base.backend = "separable_float";
  const img::ImageF golden = tonemap::tone_map_image(frame, base);

  serve::ToneMapServiceOptions so;
  so.shards = 2;
  so.online_calibration = true;
  serve::ToneMapService service(so);

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    RoutingTable table;
    table.entries.push_back(
        {geometry_bucket(width, height), "separable_simd", 2, 4, 1e-4});
    while (!stop.load(std::memory_order_relaxed)) {
      CostModel::global().record_observation("separable_simd", width,
                                             height, 1, 1e-4);
      Planner::global().install_routing_table(table);
      CostModel::global().record_observation("fused_stream", width, height,
                                             1, 2e-4);
      Planner::global().clear_routing_table();
    }
  });

  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (int j = 0; j < 16; ++j) {
        serve::FrameJob job;
        job.frame = frame;
        job.options = popt;
        const img::ImageF out =
            service.submit(std::move(job)).get().output;
        if (!golden.same_shape(out) ||
            std::memcmp(golden.samples().data(), out.samples().data(),
                        golden.samples().size_bytes()) != 0) {
          mismatches.fetch_add(1);
        }
        (void)c;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true);
  mutator.join();
  Planner::global().clear_routing_table();
  EXPECT_EQ(mismatches.load(), 0);
}

} // namespace
} // namespace tmhls::exec
