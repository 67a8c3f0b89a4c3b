#include "exec/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <thread>
#include <tuple>

#include "common/error.hpp"

namespace tmhls::exec {

namespace {

/// Snapshot format version; bump when the record shapes below change.
constexpr const char* kCalibrationVersion = "1";

/// EWMA blend of online observations: 0.75 old / 0.25 new, the serving
/// layer's convention (ToneMapService's per-shard service-time EWMA).
constexpr double kObservationBlend = 0.25;

/// Locate `"key":` in a JSONL line and return the offset just past the
/// colon, or npos. Keys are emitted unescaped by bench_common's
/// JsonRecord, so a plain substring search is exact.
std::size_t value_offset(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return std::string::npos;
  return pos + needle.size();
}

bool parse_string_field(const std::string& line, const std::string& key,
                        std::string& out) {
  std::size_t pos = value_offset(line, key);
  if (pos == std::string::npos || pos >= line.size() || line[pos] != '"') {
    return false;
  }
  const std::size_t end = line.find('"', pos + 1);
  if (end == std::string::npos) return false;
  out = line.substr(pos + 1, end - pos - 1);
  return true;
}

bool parse_number_field(const std::string& line, const std::string& key,
                        double& out) {
  const std::size_t pos = value_offset(line, key);
  if (pos == std::string::npos) return false;
  const char* begin = line.c_str() + pos;
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin) return false;
  out = v;
  return true;
}

/// Minimal string escaping matching benchkit::JsonRecord (quotes and
/// backslashes — backend names need no more).
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

double amdahl_speedup(double serial_fraction, int threads) {
  if (threads <= 1) return 1.0;
  const double t = static_cast<double>(threads);
  return t / (1.0 + serial_fraction * (t - 1.0));
}

} // namespace

std::vector<ThroughputRecord> parse_throughput_jsonl(std::istream& in) {
  std::vector<ThroughputRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    std::string bench;
    if (!parse_string_field(line, "bench", bench) ||
        bench != "backend_throughput") {
      continue;
    }
    ThroughputRecord r;
    double threads = 0.0;
    double width = 0.0;
    double height = 0.0;
    double taps = 0.0;
    if (!parse_string_field(line, "backend", r.backend) ||
        !parse_number_field(line, "threads", threads) ||
        !parse_number_field(line, "width", width) ||
        !parse_number_field(line, "height", height) ||
        !parse_number_field(line, "taps", taps) ||
        !parse_number_field(line, "seconds_per_frame",
                            r.seconds_per_frame)) {
      continue;
    }
    r.threads = static_cast<int>(threads);
    r.width = static_cast<int>(width);
    r.height = static_cast<int>(height);
    r.taps = static_cast<int>(taps);
    records.push_back(std::move(r));
  }
  return records;
}

int geometry_bucket(int width, int height) {
  TMHLS_REQUIRE(width > 0 && height > 0,
                "geometry_bucket: dimensions must be positive");
  const double pixels =
      static_cast<double>(width) * static_cast<double>(height);
  return static_cast<int>(std::floor(std::log2(pixels)));
}

CostModel::CostModel() {
  // Single-thread MACs/second priors, measured with bench_backend_throughput
  // (1024x768, 97 taps, best of 3) on the reference container. They exist so
  // estimate_cost and automatic selection work out of the box; any real
  // calibration run replaces them.
  macs_per_second_ = {
      {"separable_float", 1.50e9},
      {"separable_simd", 8.56e9},
      {"streaming_float", 0.79e9},
      {"streaming_fixed", 0.23e9},
      {"hlscode", 0.81e9},
      {"fused_stream", 9.02e9},
  };
  // Point-wise stage throughput and plane bandwidth priors, same
  // provenance as the MAC figures above (reference container, -O3):
  // scalar per-pixel arithmetic sustains a few Gop/s, and a plane-sized
  // streaming copy moves on the order of 10 GB/s.
  pointwise_ops_per_second_ = 4.0e9;
  plane_bandwidth_bytes_per_second_ = 1.2e10;
}

double CostModel::macs_per_second(const std::string& backend) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = macs_per_second_.find(backend);
  return it == macs_per_second_.end() ? 0.0 : it->second;
}

void CostModel::set_macs_per_second(const std::string& backend,
                                    double macs_per_s) {
  TMHLS_REQUIRE(macs_per_s > 0.0,
                "cost model: throughput must be positive");
  const std::lock_guard<std::mutex> lock(mutex_);
  macs_per_second_[backend] = macs_per_s;
  bump_revision();
}

double CostModel::pointwise_ops_per_second() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return pointwise_ops_per_second_;
}

void CostModel::set_pointwise_ops_per_second(double ops_per_s) {
  TMHLS_REQUIRE(ops_per_s > 0.0,
                "cost model: point-wise throughput must be positive");
  const std::lock_guard<std::mutex> lock(mutex_);
  pointwise_ops_per_second_ = ops_per_s;
  bump_revision();
}

double CostModel::plane_bandwidth_bytes_per_second() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return plane_bandwidth_bytes_per_second_;
}

void CostModel::set_plane_bandwidth_bytes_per_second(double bytes_per_s) {
  TMHLS_REQUIRE(bytes_per_s > 0.0,
                "cost model: plane bandwidth must be positive");
  const std::lock_guard<std::mutex> lock(mutex_);
  plane_bandwidth_bytes_per_second_ = bytes_per_s;
  bump_revision();
}

double CostModel::serial_fraction(const std::string& backend) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return serial_fraction_locked(backend);
}

double CostModel::serial_fraction_locked(const std::string& backend) const {
  const auto it = serial_fraction_.find(backend);
  return it == serial_fraction_.end() ? 0.0 : it->second;
}

void CostModel::set_serial_fraction(const std::string& backend,
                                    double fraction) {
  TMHLS_REQUIRE(std::isfinite(fraction),
                "cost model: serial fraction must be finite");
  const std::lock_guard<std::mutex> lock(mutex_);
  serial_fraction_[backend] = std::clamp(fraction, 0.0, 1.0);
  bump_revision();
}

double CostModel::thread_speedup(const std::string& backend,
                                 int threads) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return thread_speedup_locked(backend, threads);
}

double CostModel::thread_speedup_locked(const std::string& backend,
                                        int threads) const {
  return amdahl_speedup(serial_fraction_locked(backend), threads);
}

void CostModel::record_observation(const std::string& backend, int width,
                                   int height, int threads, double seconds) {
  if (backend.empty() || width <= 0 || height <= 0 ||
      !std::isfinite(seconds) || seconds <= 0.0) {
    return;
  }
  const double pixels =
      static_cast<double>(width) * static_cast<double>(height);
  const int bucket = geometry_bucket(width, height);
  const std::lock_guard<std::mutex> lock(mutex_);
  // Normalise to a single-thread-equivalent figure so observations taken
  // at different thread counts blend into one EWMA.
  const double st_equivalent =
      seconds * thread_speedup_locked(backend, std::max(1, threads));
  const double spp = st_equivalent / pixels;
  Observation& obs = observations_[backend][bucket];
  obs.seconds_per_pixel =
      obs.samples == 0
          ? spp
          : (1.0 - kObservationBlend) * obs.seconds_per_pixel +
                kObservationBlend * spp;
  ++obs.samples;
  bump_revision();
}

double CostModel::observed_seconds(const std::string& backend, int width,
                                   int height, int threads) const {
  if (width <= 0 || height <= 0) return 0.0;
  const int bucket = geometry_bucket(width, height);
  const double pixels =
      static_cast<double>(width) * static_cast<double>(height);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto bit = observations_.find(backend);
  if (bit == observations_.end()) return 0.0;
  const auto oit = bit->second.find(bucket);
  if (oit == bit->second.end() || oit->second.samples == 0) return 0.0;
  return oit->second.seconds_per_pixel * pixels /
         thread_speedup_locked(backend, std::max(1, threads));
}

std::uint64_t CostModel::observation_count(const std::string& backend,
                                           int width, int height) const {
  if (width <= 0 || height <= 0) return 0;
  const int bucket = geometry_bucket(width, height);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto bit = observations_.find(backend);
  if (bit == observations_.end()) return 0;
  const auto oit = bit->second.find(bucket);
  return oit == bit->second.end() ? 0 : oit->second.samples;
}

std::uint64_t CostModel::revision() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return revision_;
}

void CostModel::bump_revision() { ++revision_; }

int CostModel::calibrate(const std::vector<ThroughputRecord>& records) {
  // Best observed single-thread throughput per backend in this batch,
  // plus the best single-thread time per (backend, geometry, taps) as
  // the baseline the multi-thread records' speedups are measured from.
  std::map<std::string, double> best;
  using GeometryKey = std::tuple<std::string, int, int, int>;
  std::map<GeometryKey, double> single_thread_seconds;
  for (const ThroughputRecord& r : records) {
    if (r.seconds_per_frame <= 0.0 || r.width <= 0 || r.height <= 0 ||
        r.taps <= 0) {
      continue;
    }
    if (r.threads != 1) continue;
    const double macs = 2.0 * static_cast<double>(r.taps) *
                        static_cast<double>(r.width) *
                        static_cast<double>(r.height);
    const double mps = macs / r.seconds_per_frame;
    auto [it, inserted] = best.emplace(r.backend, mps);
    if (!inserted && mps > it->second) it->second = mps;
    const GeometryKey key{r.backend, r.width, r.height, r.taps};
    auto [sit, sinserted] =
        single_thread_seconds.emplace(key, r.seconds_per_frame);
    if (!sinserted && r.seconds_per_frame < sit->second) {
      sit->second = r.seconds_per_frame;
    }
  }
  // Amdahl fit: each multi-thread record with a single-thread baseline of
  // the same geometry and tap count yields one serial-fraction sample
  //   s = (t / S - 1) / (t - 1),  S = t1_seconds / tN_seconds
  // (the exact inversion of speedup(t) = t / (1 + s (t - 1))); a backend's
  // fraction becomes the mean of its samples, clamped into [0, 1].
  std::map<std::string, std::pair<double, int>> fraction_sums;
  for (const ThroughputRecord& r : records) {
    if (r.threads <= 1 || r.seconds_per_frame <= 0.0 || r.width <= 0 ||
        r.height <= 0 || r.taps <= 0) {
      continue;
    }
    const auto sit = single_thread_seconds.find(
        GeometryKey{r.backend, r.width, r.height, r.taps});
    if (sit == single_thread_seconds.end()) continue;
    const double speedup = sit->second / r.seconds_per_frame;
    if (speedup <= 0.0) continue;
    const double t = static_cast<double>(r.threads);
    const double s = std::clamp((t / speedup - 1.0) / (t - 1.0), 0.0, 1.0);
    auto& [sum, count] = fraction_sums[r.backend];
    sum += s;
    ++count;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [backend, mps] : best) {
    macs_per_second_[backend] = mps;
  }
  for (const auto& [backend, sum_count] : fraction_sums) {
    serial_fraction_[backend] = sum_count.first / sum_count.second;
  }
  if (!best.empty() || !fraction_sums.empty()) bump_revision();
  return static_cast<int>(best.size());
}

std::string CostModel::host_fingerprint() {
#if defined(__x86_64__) || defined(_M_X64)
  const char* arch = "x86_64";
#elif defined(__aarch64__) || defined(_M_ARM64)
  const char* arch = "aarch64";
#elif defined(__riscv)
  const char* arch = "riscv";
#else
  const char* arch = "unknown";
#endif
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  return std::string(arch) + "-c" + std::to_string(cpus);
}

void CostModel::save_snapshot(std::ostream& out) const {
  const std::string host = host_fingerprint();
  std::ostringstream line;
  line.precision(std::numeric_limits<double>::max_digits10);
  const auto prefix = [&](const char* kind) {
    line.str("");
    line << "{\"calibration\":\"" << kCalibrationVersion << "\",\"host\":\""
         << escape(host) << "\",\"kind\":\"" << kind << '"';
  };
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [backend, mps] : macs_per_second_) {
    prefix("backend");
    line << ",\"backend\":\"" << escape(backend)
         << "\",\"macs_per_second\":" << mps
         << ",\"serial_fraction\":" << serial_fraction_locked(backend)
         << "}";
    out << line.str() << '\n';
  }
  prefix("pointwise");
  line << ",\"ops_per_second\":" << pointwise_ops_per_second_ << "}";
  out << line.str() << '\n';
  prefix("plane_bandwidth");
  line << ",\"bytes_per_second\":" << plane_bandwidth_bytes_per_second_
       << "}";
  out << line.str() << '\n';
  for (const auto& [backend, buckets] : observations_) {
    for (const auto& [bucket, obs] : buckets) {
      if (obs.samples == 0) continue;
      prefix("observation");
      line << ",\"backend\":\"" << escape(backend)
           << "\",\"bucket\":" << bucket
           << ",\"seconds_per_pixel\":" << obs.seconds_per_pixel
           << ",\"samples\":" << obs.samples << "}";
      out << line.str() << '\n';
    }
  }
}

int CostModel::load_snapshot(std::istream& in) {
  const std::string host = host_fingerprint();
  int applied = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::string version;
    if (!parse_string_field(line, "calibration", version) ||
        version != kCalibrationVersion) {
      continue;
    }
    std::string record_host;
    if (!parse_string_field(line, "host", record_host) ||
        record_host != host) {
      continue; // a different machine's calibration does not transfer
    }
    std::string kind;
    if (!parse_string_field(line, "kind", kind)) continue;
    if (kind == "backend") {
      std::string backend;
      double mps = 0.0;
      if (!parse_string_field(line, "backend", backend) ||
          !parse_number_field(line, "macs_per_second", mps) || mps <= 0.0 ||
          !std::isfinite(mps)) {
        continue;
      }
      double fraction = 0.0;
      parse_number_field(line, "serial_fraction", fraction);
      if (!std::isfinite(fraction)) fraction = 0.0;
      const std::lock_guard<std::mutex> lock(mutex_);
      macs_per_second_[backend] = mps;
      serial_fraction_[backend] = std::clamp(fraction, 0.0, 1.0);
      bump_revision();
      ++applied;
    } else if (kind == "pointwise") {
      double ops = 0.0;
      if (!parse_number_field(line, "ops_per_second", ops) || ops <= 0.0 ||
          !std::isfinite(ops)) {
        continue;
      }
      const std::lock_guard<std::mutex> lock(mutex_);
      pointwise_ops_per_second_ = ops;
      bump_revision();
      ++applied;
    } else if (kind == "plane_bandwidth") {
      double bytes = 0.0;
      if (!parse_number_field(line, "bytes_per_second", bytes) ||
          bytes <= 0.0 || !std::isfinite(bytes)) {
        continue;
      }
      const std::lock_guard<std::mutex> lock(mutex_);
      plane_bandwidth_bytes_per_second_ = bytes;
      bump_revision();
      ++applied;
    } else if (kind == "observation") {
      std::string backend;
      double bucket = 0.0;
      double spp = 0.0;
      double samples = 0.0;
      if (!parse_string_field(line, "backend", backend) ||
          !parse_number_field(line, "bucket", bucket) ||
          !parse_number_field(line, "seconds_per_pixel", spp) ||
          !parse_number_field(line, "samples", samples) || spp <= 0.0 ||
          !std::isfinite(spp) || samples < 1.0) {
        continue;
      }
      const std::lock_guard<std::mutex> lock(mutex_);
      Observation& obs =
          observations_[backend][static_cast<int>(bucket)];
      obs.seconds_per_pixel = spp;
      obs.samples = static_cast<std::uint64_t>(samples);
      bump_revision();
      ++applied;
    }
  }
  return applied;
}

int CostModel::absorb_jsonl(std::istream& in) {
  // The stream is consumed twice (bench records, then snapshot records),
  // so buffer it once.
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::istringstream bench_pass(buffer.str());
  int applied = calibrate(parse_throughput_jsonl(bench_pass));
  std::istringstream snapshot_pass(buffer.str());
  applied += load_snapshot(snapshot_pass);
  return applied;
}

CostModel& CostModel::global() {
  static CostModel* model = new CostModel();
  return *model;
}

} // namespace tmhls::exec
