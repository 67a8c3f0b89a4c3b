#include "tonemap/frame_pipeline.hpp"

#include <cstring>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "exec/cost_model.hpp"
#include "tonemap/fused_stream.hpp"

namespace tmhls::tonemap {

void validate(const FramePipelineOptions& options) {
  TMHLS_REQUIRE(options.depth >= 1,
                "FramePipelineOptions::depth must be >= 1, got " +
                    std::to_string(options.depth));
  TMHLS_REQUIRE(options.width >= 1 && options.height >= 1,
                "FramePipelineOptions::width/height must be >= 1, got " +
                    std::to_string(options.width) + "x" +
                    std::to_string(options.height));
}

FramePipeline::FramePipeline(FramePipelineOptions options)
    // Validate before the other members resolve a kernel/executor from
    // the (possibly nonsense) fields.
    : options_((validate(options), std::move(options))),
      kernel_(options_.pipeline.kernel()),
      plan_(options_.pipeline.plan(options_.width, options_.height)),
      executor_(plan_.make_executor()) {
  planned_revision_.store(plan_.model_revision, std::memory_order_release);
  // Fail fast on capability mismatches (tap bounds, fixed formats): the
  // kernel and executor are fixed for the session, so an incapable pair
  // must reject here, not from some later submit() mid-stream.
  if (!executor_.can_run(kernel_)) {
    std::string msg = "FramePipeline: backend ";
    msg += executor_.backend().name();
    msg += " cannot run the session configuration (";
    msg += std::to_string(kernel_.taps());
    msg += " taps, ";
    msg += executor_.options().use_fixed ? "fixed" : "float";
    msg += " datapath)";
    throw InvalidArgument(msg);
  }
  if (options_.depth > 1) {
    // The executor's single worker serialises the blurs in submission
    // order (the model of the paper's single accelerator); the queue holds
    // one slot per pipeline stage so submit() never blocks on its own
    // backpressure.
    exec::AsyncExecutorOptions ao;
    ao.queue_capacity = options_.depth;
    async_ = std::make_unique<exec::AsyncExecutor>(executor_, ao);
  }
  // Route whole frames through the fused streaming sweep when every
  // precondition lines up: synchronous execution (depth 1 — deeper
  // pipelines need the stage split to overlap blur with front stages),
  // nobody wants the intermediate planes (the fused form never
  // materialises them), and the session's resolved backend IS the fused
  // one on its float datapath. tone_map_fused is bit-identical to the
  // staged tone_map() at every thread count, so this is purely an
  // execution-shape change — the VideoToneMapper/streaming default
  // (depth 1) takes it automatically.
  use_fused_ = options_.depth == 1 && !options_.keep_intermediates &&
               !executor_.options().use_fixed &&
               std::strcmp(executor_.backend().name(), "fused_stream") == 0;
}

FramePipeline::~FramePipeline() = default;

void FramePipeline::submit(const img::ImageF& frame) {
  submit_with_scale(frame, options_.pipeline.normalization_scale);
}

void FramePipeline::submit(const img::ImageF& frame,
                           float normalization_scale) {
  TMHLS_REQUIRE(normalization_scale > 0.0f,
                "FramePipeline::submit: per-frame normalization scale "
                "must be positive");
  submit_with_scale(frame, normalization_scale);
}

void FramePipeline::submit_with_scale(const img::ImageF& frame,
                                      float scale) {
  TMHLS_REQUIRE(!frame.empty(), "FramePipeline::submit: empty frame");
  PipelineOptions opt = options_.pipeline;
  opt.normalization_scale = scale;

  if (options_.depth == 1) {
    if (use_fused_) {
      // Single fused sweep: the point-wise stages ride the blur pass and
      // the intermediate planes never exist (exactly what the off state
      // of keep_intermediates asks for). Bit-identical to the staged
      // path below.
      FusedToneMapResult fused = tone_map_fused(frame, opt);
      PipelineResult r;
      r.output = std::move(fused.output);
      r.input_max = fused.input_max;
      ready_.push_back(std::move(r));
      return;
    }
    // Fully synchronous: literally the blocking form — one composition of
    // the stage functions to diverge from, not two.
    PipelineResult r = tone_map(frame, opt, executor_);
    release_intermediates(r);
    ready_.push_back(std::move(r));
    return;
  }

  // Keep at most `depth` frames in flight: retiring the oldest runs its
  // back stages here, on the caller's thread, while newer blurs proceed
  // on the worker.
  while (in_flight_.size() >= static_cast<std::size_t>(options_.depth)) {
    retire_oldest();
  }

  // Front (point-wise) stages of the new frame — this is the work that
  // overlaps the in-flight mask blur of the previous frame.
  InFlight entry;
  entry.result.normalized = stages::normalize(frame, opt,
                                              &entry.result.input_max);
  entry.result.intensity = stages::intensity(entry.result.normalized);
  // The request takes its own copy of the plane: the worker must never
  // alias caller-owned storage, and one plane copy is noise next to the
  // blur itself (~2*taps MACs per pixel).
  entry.mask = async_->submit(
      exec::BlurRequest{entry.result.intensity, kernel_});
  in_flight_.push_back(std::move(entry));
}

bool FramePipeline::compatible_with(const PipelineOptions& pipeline,
                                    int width, int height) const {
  if (!(options_.pipeline == pipeline)) return false;
  // Named backends resolve geometry-free; only "auto" ranks the cost
  // model on the configured frame size, so only there can a geometry
  // mismatch change which backend a frame gets.
  if (pipeline.execution().backend != "auto") return true;
  if (options_.width != width || options_.height != height) return false;
  // Online re-planning: when the cost model learned something since this
  // session planned (its revision moved — observations arrived, a
  // calibration loaded, a routing table landed), re-plan and declare the
  // session incompatible only if the schedule actually changed. The
  // rebuild this triggers is how a serving layer converges onto the
  // measured-fastest backend; bits never change either way.
  const std::uint64_t current = exec::CostModel::global().revision();
  if (current == planned_revision_.load(std::memory_order_acquire)) {
    return true;
  }
  const exec::ExecutionPlan fresh = options_.pipeline.plan(width, height);
  const exec::ExecutorOptions current_opts = executor_.options();
  if (std::strcmp(fresh.backend->name(), executor_.backend().name()) != 0 ||
      fresh.threads != current_opts.threads ||
      fresh.bands != current_opts.bands) {
    return false;
  }
  planned_revision_.store(fresh.model_revision, std::memory_order_release);
  return true;
}

PipelineResult FramePipeline::next_result() {
  if (ready_.empty()) {
    TMHLS_REQUIRE(!in_flight_.empty(),
                  "FramePipeline::next_result: no frame pending");
    retire_oldest();
  }
  PipelineResult r = std::move(ready_.front());
  ready_.pop_front();
  return r;
}

void FramePipeline::retire_oldest() {
  InFlight entry = std::move(in_flight_.front());
  in_flight_.pop_front();
  // Propagates a worker-side error; the frame is dropped (see the
  // next_result error contract) and later frames stay in order.
  entry.result.mask = entry.mask.get();
  entry.result.masked =
      stages::masking(entry.result.normalized, entry.result.mask);
  entry.result.output = stages::adjust(entry.result.masked,
                                       options_.pipeline);
  release_intermediates(entry.result);
  ready_.push_back(std::move(entry.result));
}

void FramePipeline::release_intermediates(PipelineResult& r) const {
  if (options_.keep_intermediates) return;
  r.normalized = img::ImageF();
  r.intensity = img::ImageF();
  r.mask = img::ImageF();
  r.masked = img::ImageF();
}

} // namespace tmhls::tonemap
