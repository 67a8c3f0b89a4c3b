// Measured per-backend throughput — the calibration state behind
// Backend::estimate_cost's wall-time estimate and exec::Planner's backend
// choice (the ROADMAP's backend autotuner).
//
// The model has three layers, consulted in this order by the planner:
//   1. Online observations: per-(backend x geometry-bucket) EWMAs of
//      measured end-to-end pipeline seconds, fed by serve::ToneMapService
//      (each full-quality completion) and exec::explore_schedules. These
//      are the ground truth where they exist.
//   2. Calibrated throughput: sustained single-thread MACs/second per
//      backend plus an Amdahl serial fraction fit from multi-thread
//      records, from bench_backend_throughput JSONL.
//   3. Priors: figures measured once on the reference dev container, so
//      estimates work out of the box.
// All three persist: save_snapshot()/load_snapshot() round-trip the model
// as versioned JSONL keyed by a host fingerprint (arch + cpu count), so a
// restarted server starts warm (`tmhls_cli serve --calibration model.jsonl
// ... --save-calibration model.jsonl`).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace tmhls::exec {

/// One bench_backend_throughput measurement, as parsed from its JSONL
/// record stream.
struct ThroughputRecord {
  std::string backend;
  int threads = 1;
  int width = 0;
  int height = 0;
  int taps = 0;
  double seconds_per_frame = 0.0;
};

/// Parse a bench_backend_throughput JSONL stream (one record per line).
/// Lines of other benches and malformed lines are skipped, so a mixed
/// perf-trajectory file feeds in directly.
std::vector<ThroughputRecord> parse_throughput_jsonl(std::istream& in);

/// Geometry bucket of a frame: floor(log2(width * height)). Buckets group
/// geometries within a factor of two in pixel count — close enough that a
/// seconds-per-pixel figure measured at one geometry transfers to the
/// others in its bucket. This is the key online observations and routing
/// tables are indexed by.
int geometry_bucket(int width, int height);

/// Per-backend cost calibration, thread-safe. Unknown backends report 0
/// (no estimate) rather than a guess.
class CostModel {
public:
  /// Seeded with single-thread priors for the built-in backends, measured
  /// on the reference container (GCC 12, -O3, x86-64). Calibration
  /// replaces them with real measurements.
  CostModel();

  /// Sustained single-thread MACs/second of `backend`; 0 when unknown.
  double macs_per_second(const std::string& backend) const;

  /// Set or override one backend's throughput figure directly.
  void set_macs_per_second(const std::string& backend, double macs_per_s);

  /// Sustained point-wise stage arithmetic throughput (operations/second)
  /// pricing the pipeline's non-blur stages in estimate_pipeline_cost.
  /// Backend-invariant: the point-wise stages run the same scalar code
  /// whichever blur backend is selected. Ships as a prior; override with
  /// set_pointwise_ops_per_second from a measurement.
  double pointwise_ops_per_second() const;
  void set_pointwise_ops_per_second(double ops_per_s);

  /// Streaming plane bandwidth (bytes/second) pricing the inter-stage
  /// plane traffic the staged (non-fused) pipeline pays and a fused
  /// backend avoids. Ships as a prior; override with
  /// set_plane_bandwidth_bytes_per_second from a measurement.
  double plane_bandwidth_bytes_per_second() const;
  void set_plane_bandwidth_bytes_per_second(double bytes_per_s);

  // --- Thread scaling -------------------------------------------------
  //
  // The model used to assume linear scaling over the tiled worker count.
  // It now carries a per-backend Amdahl serial fraction s, fit from
  // multi-thread calibration records:
  //   speedup(t) = t / (1 + s * (t - 1))
  // s = 0 (the prior) reproduces the old linear assumption exactly.

  /// The Amdahl serial fraction of `backend`, in [0, 1]; 0 (linear
  /// scaling) when never fit.
  double serial_fraction(const std::string& backend) const;

  /// Override one backend's serial fraction (clamped into [0, 1]).
  void set_serial_fraction(const std::string& backend, double fraction);

  /// Predicted speedup of `backend` at `threads` workers under the fitted
  /// Amdahl term; 1 for threads <= 1.
  double thread_speedup(const std::string& backend, int threads) const;

  // --- Online observations --------------------------------------------

  /// Fold one measured end-to-end pipeline execution into the
  /// per-(backend x geometry-bucket) EWMA: `seconds` measured at
  /// `threads` effective workers is converted to a single-thread-
  /// equivalent seconds-per-pixel figure via thread_speedup, then blended
  /// 0.75 old / 0.25 new (the serving layer's EWMA convention).
  /// Non-finite or non-positive inputs are ignored. This is the serving
  /// feedback hook: ToneMapService calls it per full-quality completion
  /// when online calibration is on.
  void record_observation(const std::string& backend, int width, int height,
                          int threads, double seconds);

  /// Measured end-to-end estimate for `backend` at this geometry and
  /// thread count, from the bucket's EWMA; 0 when the bucket has no
  /// observation (the planner then falls back to the analytic estimate).
  double observed_seconds(const std::string& backend, int width, int height,
                          int threads) const;

  /// Observations folded into the (backend, geometry-bucket) EWMA; 0 when
  /// none. Coverage indicator for tools.
  std::uint64_t observation_count(const std::string& backend, int width,
                                  int height) const;

  /// Monotone counter bumped by every mutation (calibration, observation,
  /// any setter). Sessions that cached a plan re-plan only when this has
  /// moved — the cheap staleness check behind online re-planning.
  std::uint64_t revision() const;

  // --- Calibration from bench records ---------------------------------

  /// Fold measured records in: each single-thread record yields
  /// 2 * taps * width * height / seconds_per_frame MACs/s, and a backend's
  /// entry becomes its best observed figure (capability, not average).
  /// Multi-thread records additionally fit the backend's Amdahl serial
  /// fraction against the best single-thread record of the same geometry
  /// and tap count. Returns the number of backends whose throughput was
  /// updated.
  int calibrate(const std::vector<ThroughputRecord>& records);

  // --- Persistence -----------------------------------------------------

  /// The fingerprint snapshots are keyed by: cpu architecture + logical
  /// cpu count, e.g. "x86_64-c8". Calibration transfers between runs on
  /// the same class of host and is ignored elsewhere.
  static std::string host_fingerprint();

  /// Write the whole model (throughput, serial fractions, point-wise and
  /// bandwidth figures, every observation EWMA) as versioned JSONL, one
  /// record per line, first key "calibration", keyed by host_fingerprint().
  void save_snapshot(std::ostream& out) const;

  /// Apply a snapshot stream: records with a matching version and host
  /// fingerprint are applied, everything else (other hosts, other record
  /// kinds, malformed lines) is skipped. Returns the number of records
  /// applied.
  int load_snapshot(std::istream& in);

  /// Feed a mixed JSONL stream: bench_backend_throughput records
  /// calibrate throughput, calibration snapshot records load as in
  /// load_snapshot. Returns backends-calibrated + records-applied — what
  /// `--calibration FILE` accepts everywhere in the CLI.
  int absorb_jsonl(std::istream& in);

  /// The process-wide model estimate_cost and Planner::global() consult.
  static CostModel& global();

private:
  /// One (backend, bucket) observation EWMA: single-thread-equivalent
  /// seconds per pixel, plus the sample count that shaped it.
  struct Observation {
    double seconds_per_pixel = 0.0;
    std::uint64_t samples = 0;
  };

  void bump_revision();
  double serial_fraction_locked(const std::string& backend) const;
  double thread_speedup_locked(const std::string& backend,
                               int threads) const;

  mutable std::mutex mutex_;
  std::map<std::string, double> macs_per_second_;
  std::map<std::string, double> serial_fraction_;
  std::map<std::string, std::map<int, Observation>> observations_;
  double pointwise_ops_per_second_ = 0.0;
  double plane_bandwidth_bytes_per_second_ = 0.0;
  std::uint64_t revision_ = 0;
};

} // namespace tmhls::exec
