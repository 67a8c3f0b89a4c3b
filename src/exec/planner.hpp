// exec::Planner — the one front door for execution planning. Everything
// that used to be scattered across call sites (auto-backend ranking,
// Backend::can_run capability gating, PipelineOptions::make_executor's
// datapath snapping, per-layer thread clamping) now funnels through
// Planner::plan(), which answers one question: for THIS frame geometry and
// THIS request, which backend runs the blur, on how many threads, over how
// many row bands. serve, stream, video, tonemap::FramePipeline and the CLI
// all consume ExecutionPlans from here (via PipelineOptions::plan), so a
// policy change — a new cost term, a routing table from schedule search —
// lands in every layer at once.
//
// Plans choose scheduling, never bits: every plan of a float-datapath
// request produces output byte-identical to separable_float at one thread,
// whatever backend/threads/bands the planner picked. That invariant is
// what makes online re-planning safe mid-stream.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exec/executor.hpp"

namespace tmhls::exec {

class CostModel;

/// The numeric-datapath request a plan resolves. `unspecified` follows the
/// backend: float for float-capable backends, fixed for fixed-only ones
/// (so naming streaming_fixed alone just works); an explicit value that
/// contradicts the backend's capabilities is an error at plan time.
enum class PlanDatapath {
  unspecified,
  float32,
  fixed_point,
};

const char* to_string(PlanDatapath datapath);

/// One planning request: frame geometry plus the caller's execution
/// constraints. The kernel rides alongside in plan() because capability
/// gating (tap bounds, fixed formats) depends on it.
struct PlanRequest {
  int width = 1024;
  int height = 768;
  /// Registry backend name, or the reserved "auto" (also the meaning of
  /// an empty string) for cost-ranked selection.
  std::string backend = "auto";
  PlanDatapath datapath = PlanDatapath::unspecified;
  /// Requested worker threads. The plan clamps them to the host's
  /// hardware threads, and to 1 for backends without the tiled_threads
  /// capability. Must be >= 1.
  int threads = 1;
  /// Fixed-point formats for fixed-datapath plans.
  tonemap::FixedBlurConfig fixed = tonemap::FixedBlurConfig::paper();
};

/// A resolved execution decision: which backend, how many threads, how
/// many row bands — plus the datapath configuration and the cost estimate
/// the decision was ranked on. Consumers either wrap it in an executor
/// (make_executor) or read the fields for reporting.
struct ExecutionPlan {
  std::shared_ptr<const Backend> backend;
  /// Effective worker threads (already clamped to the host's hardware
  /// threads and to the backend's capabilities).
  int threads = 1;
  /// Row bands for the tiled blur decomposition; 0 derives the band count
  /// from `threads` (the pre-schedule-search behaviour). exec::run_bands
  /// gives every band its own thread, so bands > threads oversubscribes —
  /// finer bands load-balance better when the blur shares cores with the
  /// pipeline's point-wise stages. Output bits are band-invariant.
  int bands = 0;
  bool use_fixed = false;
  tonemap::FixedBlurConfig fixed = tonemap::FixedBlurConfig::paper();
  /// End-to-end pipeline seconds the plan was ranked on: the measured
  /// EWMA when the cost model has observations for this (backend,
  /// geometry bucket), the analytic estimate otherwise; 0 when neither
  /// exists (uncalibrated backend named explicitly).
  double predicted_seconds = 0.0;
  /// True when the backend was cost-ranked ("auto"), false when named.
  bool auto_selected = false;
  /// True when a ScheduleExplorer routing table dictated the choice.
  bool from_routing_table = false;
  /// CostModel::revision() at plan time — the staleness token sessions
  /// compare to decide whether re-planning could change anything.
  std::uint64_t model_revision = 0;

  /// The executor-layer options this plan configures.
  ExecutorOptions executor_options() const;

  /// Wrap the plan in a PipelineExecutor.
  PipelineExecutor make_executor() const;
};

/// One schedule-search result installed for a geometry bucket: the
/// measured-fastest (backend, threads, bands) for frames of that size.
struct RoutingEntry {
  int bucket = 0; ///< exec::geometry_bucket of the frames this covers
  std::string backend;
  int threads = 1;
  int bands = 0;
  /// Measured end-to-end pipeline seconds of the winning point.
  double measured_seconds = 0.0;
};

/// Bucket-keyed routing table, as emitted by exec::explore_schedules.
struct RoutingTable {
  std::vector<RoutingEntry> entries;

  /// The entry covering `bucket`, or nullptr.
  const RoutingEntry* find(int bucket) const;
};

/// The planning facade. Thread-safe; plan() may race with cost-model
/// updates and routing-table installs (each plan sees a consistent table
/// and whatever model state the moment offers — the revision token tells
/// callers when to re-plan).
class Planner {
public:
  /// Plan against `registry` and `model`; nullptr selects the globals.
  explicit Planner(const BackendRegistry* registry = nullptr,
                   CostModel* model = nullptr);

  /// Resolve one request. Named backends validate capabilities (a fixed
  /// request on a float-only backend, or an explicit float request on a
  /// fixed-only one, throws InvalidArgument with the same messages the
  /// old make_executor produced); "auto" ranks capable candidates by
  /// measured-then-analytic end-to-end cost, preferring an installed
  /// routing-table entry for the frame's geometry bucket.
  ExecutionPlan plan(const PlanRequest& request,
                     const tonemap::GaussianKernel& kernel) const;

  /// Install a schedule-search routing table; subsequent float-datapath
  /// "auto" plans for covered buckets follow it (entries whose backend
  /// cannot run the request fall back to cost ranking).
  void install_routing_table(RoutingTable table);

  /// Drop the routing table; "auto" returns to pure cost ranking.
  void clear_routing_table();

  /// True when a routing table is installed.
  bool has_routing_table() const;

  /// The process-wide planner every layer consumes plans from.
  static Planner& global();

private:
  const BackendRegistry& registry() const;
  CostModel& model() const;

  ExecutionPlan plan_auto(const PlanRequest& request,
                          const tonemap::GaussianKernel& kernel) const;

  const BackendRegistry* registry_;
  CostModel* model_;
  mutable std::mutex mutex_;
  std::optional<RoutingTable> routing_;
};

} // namespace tmhls::exec
