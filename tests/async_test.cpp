// Tests for the asynchronous execution layer: AsyncExecutor's
// submit/future contract (results, error delivery, bounded queue,
// destruction with work in flight, concurrent submitters), FramePipeline's
// bit-identity and order preservation against the blocking tone_map() at
// depths 1/2/4 across every registered backend, and the centralized
// InvalidArgument validation of the executor/async/pipeline option
// structs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/async.hpp"
#include "exec/executor.hpp"
#include "exec/planner.hpp"
#include "exec/registry.hpp"
#include "tonemap/frame_pipeline.hpp"
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
    for (std::size_t i = 0; i < sa.size(); ++i) {
      if (sa[i] != sb[i]) {
        return ::testing::AssertionFailure()
               << "first difference at sample " << i << ": " << sa[i]
               << " vs " << sb[i];
      }
    }
    return ::testing::AssertionFailure() << "bit pattern difference (NaN?)";
  }
  return ::testing::AssertionSuccess();
}

// --- Option validation (the one InvalidArgument point per struct) ---------

TEST(ValidationTest, ExecutorOptionsRejectNonPositiveThreads) {
  for (int threads : {0, -1, -7}) {
    ExecutorOptions opts;
    opts.threads = threads;
    EXPECT_THROW(validate(opts), InvalidArgument) << threads;
    EXPECT_THROW(PipelineExecutor("separable_float", opts), InvalidArgument);
    PlanRequest request{32, 32, "auto"};
    request.threads = threads;
    EXPECT_THROW(
        Planner::global().plan(request, tonemap::GaussianKernel(1.0, 3)),
        InvalidArgument);
  }
  try {
    ExecutorOptions opts;
    opts.threads = -3;
    validate(opts);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    // The message names the field and the offending value.
    EXPECT_NE(std::string(e.what()).find("ExecutorOptions::threads"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-3"), std::string::npos);
  }
}

TEST(ValidationTest, AsyncExecutorOptionsRejectBadQueue) {
  const PipelineExecutor executor("separable_float");
  AsyncExecutorOptions bad_queue;
  bad_queue.queue_capacity = 0;
  EXPECT_THROW(AsyncExecutor(executor, bad_queue), InvalidArgument);
}

TEST(ValidationTest, FramePipelineOptionsRejectBadDepth) {
  tonemap::FramePipelineOptions opts;
  opts.depth = 0;
  EXPECT_THROW(tonemap::FramePipeline{opts}, InvalidArgument);
}

// --- AsyncExecutor --------------------------------------------------------

TEST(AsyncExecutorTest, FutureCarriesTheSynchronousBlurResult) {
  const PipelineExecutor executor("separable_float");
  AsyncExecutor async(executor);
  const img::ImageF plane = random_plane(31, 17, 3);
  const tonemap::GaussianKernel kernel(2.0, 6);
  std::future<img::ImageF> future = async.submit({plane, kernel});
  EXPECT_TRUE(bit_identical(future.get(), executor.blur(plane, kernel)));
}

TEST(AsyncExecutorTest, ManyRequestsAllComplete) {
  const PipelineExecutor executor("separable_float");
  AsyncExecutorOptions opts;
  opts.queue_capacity = 3; // smaller than the request count: exercises
                           // submit-side backpressure
  AsyncExecutor async(executor, opts);
  const tonemap::GaussianKernel kernel(1.5, 4);
  std::vector<img::ImageF> planes;
  std::vector<std::future<img::ImageF>> futures;
  for (int i = 0; i < 12; ++i) {
    planes.push_back(random_plane(9 + i, 7, 100 + i));
    futures.push_back(async.submit({planes.back(), kernel}));
  }
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(
        bit_identical(futures[static_cast<std::size_t>(i)].get(),
                      executor.blur(planes[static_cast<std::size_t>(i)],
                                    kernel)))
        << "request " << i;
  }
}

TEST(AsyncExecutorTest, BackendErrorsArriveThroughTheFuture) {
  // hlscode rejects kernels beyond its static tap bound; asynchronously
  // the error must surface at future.get(), not crash a worker.
  AsyncExecutor async(PipelineExecutor("hlscode"));
  const tonemap::GaussianKernel huge(40.0, 120); // 241 taps > kMaxTaps
  std::future<img::ImageF> future =
      async.submit({random_plane(8, 8, 5), huge});
  EXPECT_THROW(future.get(), InvalidArgument);
}

TEST(AsyncExecutorTest, DestructionWithInFlightWorkCompletesFutures) {
  const PipelineExecutor executor("separable_float");
  const img::ImageF plane = random_plane(64, 48, 7);
  const tonemap::GaussianKernel kernel(3.0, 9);
  std::vector<std::future<img::ImageF>> futures;
  {
    AsyncExecutorOptions opts;
    opts.queue_capacity = 8;
    AsyncExecutor async(executor, opts);
    for (int i = 0; i < 5; ++i) futures.push_back(async.submit({plane, kernel}));
    // Destructor runs with requests queued and possibly mid-blur.
  }
  const img::ImageF golden = executor.blur(plane, kernel);
  for (auto& f : futures) {
    EXPECT_TRUE(bit_identical(f.get(), golden));
  }
}

TEST(AsyncExecutorTest, DestructionWithAbandonedFuturesIsSafe) {
  const img::ImageF plane = random_plane(32, 24, 9);
  const tonemap::GaussianKernel kernel(2.0, 6);
  AsyncExecutor async(PipelineExecutor("separable_float"));
  for (int i = 0; i < 4; ++i) {
    async.submit({plane, kernel}); // future discarded immediately
  }
  // Destruction must neither hang nor touch freed promise state.
}

TEST(AsyncExecutorTest, ConcurrentSubmittersStayBitIdentical) {
  // Several producer threads submit randomized geometries into one
  // executor, hold the futures for random intervals, and verify every
  // result against the synchronous executor. Run under TSan in CI, this
  // is the async layer's data-race canary.
  const PipelineExecutor executor("separable_simd");
  AsyncExecutorOptions opts;
  opts.queue_capacity = 4;
  AsyncExecutor async(executor, opts);

  constexpr int kProducers = 4;
  constexpr int kRequestsPerProducer = 12;
  std::vector<std::thread> producers;
  std::vector<::testing::AssertionResult> outcomes(
      kProducers, ::testing::AssertionSuccess());
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(static_cast<std::uint64_t>(900 + p));
      for (int i = 0; i < kRequestsPerProducer; ++i) {
        const int w = static_cast<int>(rng.uniform_int(1, 40));
        const int h = static_cast<int>(rng.uniform_int(1, 24));
        const int radius = static_cast<int>(rng.uniform_int(1, 12));
        const tonemap::GaussianKernel kernel(radius / 3.0 + 0.5, radius);
        const img::ImageF plane = random_plane(
            w, h, static_cast<std::uint64_t>(p * 1000 + i));
        std::future<img::ImageF> future = async.submit({plane, kernel});
        if (rng.uniform() < 0.3) std::this_thread::yield();
        const ::testing::AssertionResult check =
            bit_identical(future.get(), executor.blur(plane, kernel));
        if (!check) {
          outcomes[static_cast<std::size_t>(p)] =
              ::testing::AssertionFailure()
              << "producer " << p << " request " << i << ": "
              << check.message();
          return;
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  for (const auto& outcome : outcomes) EXPECT_TRUE(outcome);
}

} // namespace
} // namespace tmhls::exec

namespace tmhls::tonemap {
namespace {

using exec::bit_identical;
using exec::random_hdr;

PipelineOptions small_options(const std::string& backend) {
  PipelineOptions opt;
  opt.sigma = 2.0;
  opt.radius = 6;
  opt.backend = backend;
  if (backend == "streaming_fixed") opt.datapath = Datapath::fixed_point;
  return opt;
}

// --- Backend/datapath resolution (one place: execution()) ----------------

TEST(ExecutionSelectionTest, DefaultedFieldsSelectTheGoldenReference) {
  PipelineOptions opt;
  EXPECT_EQ(opt.execution().backend, "separable_float");
  EXPECT_FALSE(opt.execution().use_fixed);
  opt.backend = "streaming_fixed";
  opt.datapath = Datapath::fixed_point;
  EXPECT_EQ(opt.execution().backend, "streaming_fixed");
  EXPECT_TRUE(opt.execution().use_fixed);
}

TEST(ExecutionSelectionTest, BackendAndDatapathFieldsAreAuthoritative) {
  PipelineOptions opt;
  opt.backend = "hlscode";
  EXPECT_EQ(opt.execution().backend, "hlscode");
  EXPECT_FALSE(opt.execution().use_fixed); // unspecified resolves float here
  opt.datapath = Datapath::float32;
  EXPECT_FALSE(opt.execution().use_fixed);
  opt.datapath = Datapath::fixed_point;
  EXPECT_TRUE(opt.execution().use_fixed);
}

TEST(ExecutionSelectionTest, DatapathParsesAndRejects) {
  EXPECT_EQ(datapath_from_string("float"), Datapath::float32);
  EXPECT_EQ(datapath_from_string("float32"), Datapath::float32);
  EXPECT_EQ(datapath_from_string("fixed"), Datapath::fixed_point);
  EXPECT_EQ(datapath_from_string("fixed_point"), Datapath::fixed_point);
  EXPECT_THROW(datapath_from_string("analog"), InvalidArgument);
}

TEST(ExecutionSelectionTest, FixedDatapathFieldGatesFloatOnlyBackends) {
  PipelineOptions opt;
  opt.backend = "streaming_float";
  opt.datapath = Datapath::fixed_point;
  EXPECT_THROW(opt.make_executor(), InvalidArgument);
  opt.backend = "hlscode";
  EXPECT_NO_THROW(opt.make_executor());
}

TEST(ExecutionSelectionTest, FixedOnlyBackendFollowsItsDatapathByDefault) {
  // Naming a fixed-only backend with an unspecified datapath must run its
  // fixed datapath (not be treated as a float request), so the pipelined
  // path accepts exactly what the blocking path accepts. An explicit
  // float request on it is a contradiction.
  PipelineOptions opt;
  opt.backend = "streaming_fixed";
  EXPECT_TRUE(opt.make_executor().options().use_fixed);
  const img::ImageF frame = random_hdr(21, 15, 83);
  PipelineOptions explicit_fixed = opt;
  explicit_fixed.datapath = Datapath::fixed_point;
  FramePipelineOptions fpo;
  fpo.pipeline = opt;
  fpo.depth = 2;
  FramePipeline pipeline(fpo); // must not throw at construction
  pipeline.submit(frame);
  EXPECT_TRUE(bit_identical(pipeline.next_result().output,
                            tone_map(frame, explicit_fixed).output));
  opt.datapath = Datapath::float32;
  EXPECT_THROW(opt.make_executor(), InvalidArgument);
}

// --- Stage functions compose to tone_map ----------------------------------

TEST(StageTest, StagesComposeBitIdenticallyToToneMap) {
  const img::ImageF hdr = random_hdr(29, 17, 61);
  const PipelineOptions opt = small_options("separable_float");
  const exec::PipelineExecutor executor = opt.make_executor();
  const GaussianKernel kernel = opt.kernel();

  PipelineResult manual;
  manual.normalized = stages::normalize(hdr, opt, &manual.input_max);
  manual.intensity = stages::intensity(manual.normalized);
  manual.mask = stages::mask(manual.intensity, kernel, executor);
  manual.masked = stages::masking(manual.normalized, manual.mask);
  manual.output = stages::adjust(manual.masked, opt);

  const PipelineResult golden = tone_map(hdr, opt, executor);
  EXPECT_TRUE(bit_identical(manual.normalized, golden.normalized));
  EXPECT_TRUE(bit_identical(manual.intensity, golden.intensity));
  EXPECT_TRUE(bit_identical(manual.mask, golden.mask));
  EXPECT_TRUE(bit_identical(manual.masked, golden.masked));
  EXPECT_TRUE(bit_identical(manual.output, golden.output));
  EXPECT_EQ(manual.input_max, golden.input_max);
}

// --- FramePipeline: bit-identity and order across depths and backends -----

class FramePipelineDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(FramePipelineDepthTest, BitIdenticalAndOrderedAcrossBackends) {
  const int depth = GetParam();
  const exec::BackendRegistry& registry = exec::BackendRegistry::global();
  for (const std::string& name : registry.names()) {
    const PipelineOptions opt = small_options(name);

    constexpr int kFrames = 6;
    std::vector<img::ImageF> frames;
    std::vector<img::ImageF> golden;
    const exec::PipelineExecutor reference = opt.make_executor();
    for (int i = 0; i < kFrames; ++i) {
      frames.push_back(random_hdr(33, 21, 500 + static_cast<std::uint64_t>(i)));
      golden.push_back(tone_map(frames.back(), opt, reference).output);
    }

    FramePipelineOptions fpo;
    fpo.pipeline = opt;
    fpo.depth = depth;
    FramePipeline pipeline(fpo);
    // Submit-all-then-drain: the deepest interleaving the depth allows.
    for (const img::ImageF& frame : frames) pipeline.submit(frame);
    EXPECT_EQ(pipeline.pending(), static_cast<std::size_t>(kFrames));
    for (int i = 0; i < kFrames; ++i) {
      EXPECT_TRUE(
          bit_identical(pipeline.next_result().output,
                        golden[static_cast<std::size_t>(i)]))
          << name << " depth " << depth << " frame " << i;
    }
    EXPECT_EQ(pipeline.pending(), 0u);

    // Alternating submit/next — the blocking consumption pattern.
    FramePipeline alternating(fpo);
    for (int i = 0; i < kFrames; ++i) {
      alternating.submit(frames[static_cast<std::size_t>(i)]);
      EXPECT_TRUE(
          bit_identical(alternating.next_result().output,
                        golden[static_cast<std::size_t>(i)]))
          << name << " depth " << depth << " frame " << i << " (alternating)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, FramePipelineDepthTest,
                         ::testing::Values(1, 2, 4));

TEST(FramePipelineTest, PerFrameScaleMatchesExplicitOptions) {
  const img::ImageF frame = random_hdr(25, 19, 71);
  PipelineOptions opt = small_options("separable_float");
  FramePipelineOptions fpo;
  fpo.pipeline = opt;
  fpo.depth = 2;
  FramePipeline pipeline(fpo);
  pipeline.submit(frame, 42.0f);
  opt.normalization_scale = 42.0f;
  EXPECT_TRUE(bit_identical(pipeline.next_result().output,
                            tone_map(frame, opt).output));
  EXPECT_THROW(pipeline.submit(frame, 0.0f), InvalidArgument);
}

TEST(FramePipelineTest, AutoBackendResolvesAgainstConfiguredGeometry) {
  // backend == "auto" must rank the cost model on the configured frame
  // geometry — the same resolution the blocking tone_map() performs — so
  // pipeline depth can never change which backend (and which bits) a
  // frame gets.
  const img::ImageF frame = exec::random_hdr(33, 21, 77);
  const PipelineOptions opt = small_options("auto");
  FramePipelineOptions fpo;
  fpo.pipeline = opt;
  fpo.depth = 2;
  fpo.width = frame.width();
  fpo.height = frame.height();
  FramePipeline pipeline(fpo);
  EXPECT_STREQ(
      pipeline.executor().backend().name(),
      opt.make_executor(frame.width(), frame.height()).backend().name());
  pipeline.submit(frame);
  EXPECT_TRUE(bit_identical(pipeline.next_result().output,
                            tone_map(frame, opt).output));
  FramePipelineOptions bad = fpo;
  bad.width = 0;
  EXPECT_THROW(FramePipeline{bad}, InvalidArgument);
}

TEST(FramePipelineTest, IntermediatePlanesDroppedUnlessRequested) {
  const img::ImageF frame = exec::random_hdr(21, 15, 91);
  FramePipelineOptions fpo;
  fpo.pipeline = small_options("separable_float");
  fpo.depth = 2;
  FramePipeline lean(fpo);
  lean.submit(frame);
  const PipelineResult slim = lean.next_result();
  EXPECT_FALSE(slim.output.empty());
  EXPECT_TRUE(slim.normalized.empty());
  EXPECT_TRUE(slim.intensity.empty());
  EXPECT_TRUE(slim.mask.empty());
  EXPECT_TRUE(slim.masked.empty());

  fpo.keep_intermediates = true;
  FramePipeline full(fpo);
  full.submit(frame);
  const PipelineResult r = full.next_result();
  const PipelineResult golden = tone_map(frame, fpo.pipeline);
  EXPECT_TRUE(bit_identical(r.normalized, golden.normalized));
  EXPECT_TRUE(bit_identical(r.intensity, golden.intensity));
  EXPECT_TRUE(bit_identical(r.mask, golden.mask));
  EXPECT_TRUE(bit_identical(r.masked, golden.masked));
  EXPECT_TRUE(bit_identical(r.output, golden.output));
}

TEST(FramePipelineTest, IncapableKernelRejectedAtConstruction) {
  // A session's kernel and backend are fixed, so a capability mismatch
  // (here: beyond hlscode's static tap bound) must fail at construction,
  // not from a later submit() mid-stream.
  FramePipelineOptions fpo;
  fpo.pipeline = small_options("hlscode");
  fpo.pipeline.sigma = 40.0;
  fpo.pipeline.radius = 120; // 241 taps > kMaxTaps
  fpo.depth = 2;
  EXPECT_THROW(FramePipeline{fpo}, InvalidArgument);
}

TEST(FramePipelineTest, CompatibleWithKeysOnOptionsAndAutoGeometry) {
  const PipelineOptions opt = small_options("separable_float");
  FramePipelineOptions fpo;
  fpo.pipeline = opt;
  fpo.width = 64;
  fpo.height = 48;
  FramePipeline session(fpo);
  // Named backend: geometry-free — any frame size is compatible.
  EXPECT_TRUE(session.compatible_with(opt, 64, 48));
  EXPECT_TRUE(session.compatible_with(opt, 128, 96));
  // Any option field difference breaks compatibility.
  PipelineOptions changed = opt;
  changed.sigma = 3.0;
  EXPECT_FALSE(session.compatible_with(changed, 64, 48));
  changed = opt;
  changed.brightness += 0.01f;
  EXPECT_FALSE(session.compatible_with(changed, 64, 48));

  // "auto" resolution depends on geometry, so geometry joins the key.
  FramePipelineOptions auto_fpo;
  auto_fpo.pipeline = small_options("auto");
  auto_fpo.width = 64;
  auto_fpo.height = 48;
  FramePipeline auto_session(auto_fpo);
  EXPECT_TRUE(auto_session.compatible_with(auto_fpo.pipeline, 64, 48));
  EXPECT_FALSE(auto_session.compatible_with(auto_fpo.pipeline, 128, 96));
}

TEST(FramePipelineTest, NextResultWithoutSubmitThrows) {
  FramePipelineOptions fpo;
  fpo.pipeline = small_options("separable_float");
  FramePipeline pipeline(fpo);
  EXPECT_THROW(pipeline.next_result(), InvalidArgument);
}

TEST(FramePipelineTest, DestructionWithInFlightFramesIsSafe) {
  for (int depth : {2, 4}) {
    FramePipelineOptions fpo;
    fpo.pipeline = small_options("separable_simd");
    fpo.depth = depth;
    FramePipeline pipeline(fpo);
    for (int i = 0; i < depth; ++i) {
      pipeline.submit(random_hdr(41, 31, 800 + static_cast<std::uint64_t>(i)));
    }
    // Frames still in flight when the pipeline (and its async executor)
    // is destroyed; results are discarded, nothing hangs.
  }
}

TEST(FramePipelineTest, HasReadySignalsNonBlockingResults) {
  FramePipelineOptions fpo;
  fpo.pipeline = small_options("separable_float");
  fpo.depth = 2;
  FramePipeline pipeline(fpo);
  EXPECT_FALSE(pipeline.has_ready());
  // Depth 2 keeps two frames in flight; the third submit retires the
  // first into the ready queue.
  for (int i = 0; i < 3; ++i) {
    pipeline.submit(random_hdr(17, 13, 900 + static_cast<std::uint64_t>(i)));
  }
  EXPECT_TRUE(pipeline.has_ready());
  EXPECT_EQ(pipeline.pending(), 3u);
  while (pipeline.pending() > 0) pipeline.next_result();
}

} // namespace
} // namespace tmhls::tonemap
