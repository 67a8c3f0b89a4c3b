// tmbench — the workload program behind perfbench/run.py.
//
//   tmbench run   --workload W --seed N --seconds S --trace 0|1
//   tmbench setup --workload W --seed N
//   tmbench selftest
//
// `run` generates the workload's inputs from the seed, computes the golden
// outputs, drives the workload through the library's public APIs for S
// seconds and prints ONE JSON line of raw observations (per-job columns,
// counters, layer probes). All statistics — medians, tails, ratios — are
// computed from those observations in benchlib.py, so the arithmetic
// lives in one place that selftest.py covers.
//
// `setup` measures one cold start of the workload's top object (the first
// tone_map_image call, Server plus connect, or open_stream) in a fresh
// process; run.py runs it several times and reports the median.
//
// With --trace 1, every other job is traced: the benchmark reads the clock
// around each call it makes into a layer (encode, send, decode, stage
// functions) and records the layer counters. The untraced jobs of the same
// run are the reference for the tracing overhead. Traced serve_remote runs
// add a rate ladder after the measured window. Nothing inside the library
// is instrumented.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <latch>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "image/image.hpp"
#include "image/plane_pool.hpp"
#include "imageio/synthetic.hpp"
#include "serve/service.hpp"
#include "stream/session.hpp"
#include "tonemap/fused_stream.hpp"
#include "tonemap/pipeline.hpp"
#include "transport/client.hpp"
#include "transport/framing.hpp"
#include "transport/server.hpp"
#include "transport/socket.hpp"
#include "transport/wire.hpp"
#include "video/video_tonemapper.hpp"

namespace {

using namespace tmhls;
using Clock = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

void sleep_until_s(double t) {
  const double wait = t - now_s();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

// --- Deterministic load generation ------------------------------------------

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Uniform double in (0, 1]: never 0, so -log() below stays finite.
double uniform_open0(std::uint64_t& state) {
  return (static_cast<double>(splitmix64(state) >> 11) + 1.0) * 0x1.0p-53;
}

/// Open-loop Poisson arrivals: `count` send times (seconds after the phase
/// start) with exponential gaps of mean 1/rate, a pure function of
/// (seed, rate, count). The count is fixed rather than the duration so
/// every run of a workload has the same sample count, and so the same
/// tail percentile.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     int count) {
  std::uint64_t state = seed;
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(count));
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    t += -std::log(uniform_open0(state)) / rate;
    times.push_back(t);
  }
  return times;
}

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash = (hash ^ p[i]) * 0x100000001B3ULL;
  }
  return hash;
}

std::uint64_t hash_frames(const std::vector<img::ImageF>& frames) {
  std::uint64_t h = kFnvOffset;
  for (const img::ImageF& f : frames) {
    const int dims[3] = {f.width(), f.height(), f.channels()};
    h = fnv1a(dims, sizeof dims, h);
    h = fnv1a(f.samples().data(), f.sample_count() * sizeof(float), h);
  }
  return h;
}

std::uint64_t hash_doubles(const std::vector<double>& values,
                           std::uint64_t h = kFnvOffset) {
  return fnv1a(values.data(), values.size() * sizeof(double), h);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The workload's distinct input frames: scene kinds in rotation, each
/// scene seeded from (workload seed, index).
std::vector<img::ImageF> make_frames(std::uint64_t seed, int width,
                                     int height, int count) {
  static constexpr io::SceneKind kKinds[] = {
      io::SceneKind::window_interior, io::SceneKind::light_probe,
      io::SceneKind::gradient_bars, io::SceneKind::night_street};
  std::vector<img::ImageF> frames;
  for (int i = 0; i < count; ++i) {
    frames.push_back(io::generate_hdr_scene(
        kKinds[i % 4], width, height,
        seed * 1000003ULL + static_cast<std::uint64_t>(i)));
  }
  return frames;
}

bool same_bytes(const img::ImageF& a, const img::ImageF& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         a.channels() == b.channels() &&
         std::memcmp(a.samples().data(), b.samples().data(),
                     a.sample_count() * sizeof(float)) == 0;
}

/// PipelineOptions defaults, except backend "auto" — the planner's front
/// door.
tonemap::PipelineOptions auto_options(int threads) {
  tonemap::PipelineOptions opt;
  opt.backend = "auto";
  opt.threads = threads;
  return opt;
}

/// The golden reference for one frame: the staged pipeline on the
/// separable_float reference blur.
img::ImageF reference_output(const img::ImageF& frame) {
  tonemap::PipelineOptions ref;
  ref.backend = "separable_float";
  return tonemap::tone_map(frame, ref).output;
}

// --- Workload geometry ------------------------------------------------------

struct Geometry {
  int width;
  int height;
  int distinct_frames;
};

constexpr Geometry kFrameGeometry{1024, 768, 4};
constexpr Geometry kServeGeometry{512, 384, 8};
constexpr Geometry kStreamGeometry{512, 384, 8};

constexpr double kLightRate = 15.0;  // jobs/s, ~25% of loopback capacity
constexpr double kHeavyRate = 40.0;  // jobs/s, ~60% of loopback capacity
constexpr int kConnections = 2;
constexpr double kLadderStart = 45.0;  // jobs/s
constexpr double kLadderStep = 5.0;
constexpr int kLadderSteps = 9;        // up to 85 jobs/s
constexpr double kLadderSeconds = 2.0;
constexpr double kStreamFps = 15.0;
constexpr int kLightStreams = 2;
constexpr int kHeavyStreams = 3;
constexpr int kClipFrames = 75;  // 5 s at 15 fps: one stream session

// The remote workloads alternate light and heavy segments of this length,
// so a busy spell on the shared host lands on both points alike.
constexpr double kSegmentSeconds = 5.0;

/// Segments in a measured window: an even number, at least one per point.
int segment_count(double seconds) {
  return std::max(2, static_cast<int>(seconds / kSegmentSeconds) / 2 * 2);
}
constexpr double kSocketTimeout = 30.0;

// --- Result record ----------------------------------------------------------

/// Column-oriented per-job observations plus scalar values, printed as one
/// JSON object.
class Record {
public:
  void set(const std::string& key, double value) { values_[key] = value; }
  void add(const std::string& key, double value) { values_[key] += value; }
  void label(const std::string& key, const std::string& value) {
    labels_[key] = value;
  }
  void push(const std::string& column, double value) {
    columns_[column].push_back(value);
  }

  std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"labels\":{";
    const char* sep = "";
    for (const auto& [k, v] : labels_) {
      os << sep << '"' << k << "\":\"" << v << '"';
      sep = ",";
    }
    os << "},\"values\":{";
    sep = "";
    for (const auto& [k, v] : values_) {
      os << sep << '"' << k << "\":" << v;
      sep = ",";
    }
    os << "},\"columns\":{";
    sep = "";
    for (const auto& [k, col] : columns_) {
      os << sep << '"' << k << "\":[";
      const char* s2 = "";
      for (const double v : col) {
        os << s2 << v;
        s2 = ",";
      }
      os << ']';
      sep = ",";
    }
    os << "}}";
    return os.str();
  }

private:
  std::map<std::string, std::string> labels_;
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> columns_;
};

struct ProcessSample {
  double cpu_s = 0;
  std::uint64_t plane_allocs = 0;
};

ProcessSample sample_process() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime),
          img::plane_allocation_count()};
}

/// Process-level counters over the measured window: CPU (user + sys, every
/// thread of the process — server included), fresh plane allocations and
/// peak RSS.
void record_process(Record& rec, const ProcessSample& before,
                    const ProcessSample& after) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rec.set("proc.cpu_ms", (after.cpu_s - before.cpu_s) * 1e3);
  rec.set("proc.peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  rec.set("image.fresh_allocs",
          static_cast<double>(after.plane_allocs - before.plane_allocs));
}

/// The server's plane-pool and error counters (both pools: the service's
/// and the stream sessions').
void record_server(Record& rec, const transport::Server& server) {
  const img::PoolStats ps = server.service().pool_stats();
  const img::PoolStats qs = server.sessions().pool_stats();
  rec.set("image.pool_acquires",
          static_cast<double>(ps.acquires + qs.acquires));
  rec.set("image.pool_hits", static_cast<double>(ps.pool_hits + qs.pool_hits));
  rec.set("transport.errors_sent",
          static_cast<double>(server.stats().errors_sent));
}

void label_plans(Record& rec, const Geometry& g) {
  for (const int threads : {1, 4}) {
    const exec::ExecutionPlan plan =
        auto_options(threads).plan(g.width, g.height);
    const std::string t = "t" + std::to_string(threads);
    rec.label("plan.backend." + t, plan.backend->name());
    rec.label("plan.threads." + t, std::to_string(plan.threads));
  }
}

/// Layer probe (traced runs only): each public stage function of the
/// tonemap and exec layers, timed on the workload's own frames. Runs after
/// the measured window so it cannot disturb it.
void probe_layers(Record& rec, const std::vector<img::ImageF>& frames,
                  int reps) {
  const int w = frames.front().width();
  const int h = frames.front().height();
  const tonemap::PipelineOptions opt1 = auto_options(1);
  const tonemap::PipelineOptions opt4 = auto_options(4);
  const exec::PipelineExecutor ex1 = opt1.make_executor(w, h);
  const exec::PipelineExecutor ex4 = opt4.make_executor(w, h);
  const tonemap::GaussianKernel kernel = opt1.kernel();
  const auto timed = [&rec](const std::string& column, auto&& fn) {
    const double t0 = now_s();
    auto result = fn();
    rec.push(column, (now_s() - t0) * 1e3);
    return result;
  };
  const std::size_t n = std::min<std::size_t>(frames.size(), 4);
  for (int r = 0; r < reps; ++r) {
    const img::ImageF& hdr = frames[static_cast<std::size_t>(r) % n];
    const img::ImageF normalized = timed("probe.normalize_ms", [&] {
      return tonemap::stages::normalize(hdr, opt1);
    });
    const img::ImageF intensity = timed("probe.intensity_ms", [&] {
      return tonemap::stages::intensity(normalized);
    });
    const img::ImageF mask = timed("probe.blur_ms.t1", [&] {
      return tonemap::stages::mask(intensity, kernel, ex1);
    });
    timed("probe.blur_ms.t4",
          [&] { return tonemap::stages::mask(intensity, kernel, ex4); });
    const img::ImageF masked = timed("probe.masking_ms", [&] {
      return tonemap::stages::masking(normalized, mask);
    });
    timed("probe.adjust_ms",
          [&] { return tonemap::stages::adjust(masked, opt1); });
    timed("probe.fused_ms.t1",
          [&] { return tonemap::tone_map_fused(hdr, opt1).output; });
    timed("probe.fused_ms.t4",
          [&] { return tonemap::tone_map_fused(hdr, opt4).output; });
  }
  for (int i = 0; i < 200; ++i) {
    const double t0 = now_s();
    [[maybe_unused]] const exec::ExecutionPlan plan = opt1.plan(w, h);
    rec.push("probe.plan_us", (now_s() - t0) * 1e6);
  }
}

// --- frame_paper ------------------------------------------------------------

/// In-process, one caller, closed loop: tone_map_image on 1024x768 frames
/// with the 97-tap kernel, alternating threads=1 (point "light") and
/// threads=4 (point "heavy") frames.
void run_frame_paper(Record& rec, std::uint64_t seed, double seconds,
                     bool trace) {
  const Geometry g = kFrameGeometry;
  const std::vector<img::ImageF> frames =
      make_frames(seed, g.width, g.height, g.distinct_frames);
  std::vector<img::ImageF> golden;
  for (const img::ImageF& f : frames) golden.push_back(reference_output(f));
  rec.label("input_hash", hex(hash_frames(frames)));
  const std::string order = "closed-loop t1/t4 alternation";
  rec.label("schedule_hash", hex(fnv1a(order.data(), order.size())));
  label_plans(rec, g);

  const tonemap::PipelineOptions opt[2] = {auto_options(1), auto_options(4)};
  for (const auto& o : opt) {  // warm-up: lazy planner/pool state
    if (!same_bytes(tonemap::tone_map_image(frames[0], o), golden[0])) {
      rec.add("mismatches", 1);
    }
  }

  const ProcessSample before = sample_process();
  const double end = now_s() + seconds;
  int jobs = 0;
  for (int i = 0; now_s() < end; ++i) {
    const int point = i % 2;
    const std::size_t k = static_cast<std::size_t>(i / 2) % frames.size();
    // The in-process call has no layer boundary the benchmark can time
    // apart, so traced and untraced frames run alike; the stage functions
    // are timed by probe_layers instead.
    const bool traced = trace && (i / 2) % 2 == 1;
    const double t0 = now_s();
    const img::ImageF out = tonemap::tone_map_image(frames[k], opt[point]);
    const double t1 = now_s();
    rec.push("job.point", point);
    rec.push("job.traced", traced ? 1 : 0);
    rec.push("job.latency_ms", (t1 - t0) * 1e3);
    rec.push("job.full_quality", 1);
    if (!same_bytes(out, golden[k])) rec.add("mismatches", 1);
    ++jobs;
  }
  record_process(rec, before, sample_process());
  rec.set("attempted", jobs);
  if (trace) probe_layers(rec, frames, 4);
}

// --- serve_remote -----------------------------------------------------------

/// One open-loop request's observations. The sender thread writes the send
/// fields, the receiver thread the reply fields; the two sets never
/// overlap and are read only after both threads are joined.
struct JobObservation {
  double sched = 0;
  double lateness = 0;
  double encode = 0;
  double send = 0;
  std::size_t request_bytes = 0;
  bool send_failed = false;
  bool replied = false;
  bool error = false;
  bool shed = false;
  bool expired = false;
  bool mismatch = false;
  bool full_quality = false;
  double done = 0;
  double decode = 0;
  double queue = 0;
  double service = 0;
  std::size_t reply_bytes = 0;
};

void sender_loop(transport::Socket& socket, int connection,
                 const std::vector<img::ImageF>& frames, double t0,
                 std::vector<JobObservation>& jobs, std::uint64_t id_base,
                 bool trace) {
  // One prebuilt request per distinct frame, so the send path copies no
  // frame: only the request id changes between sends.
  std::vector<transport::wire::Request> requests(frames.size());
  for (std::size_t k = 0; k < frames.size(); ++k) {
    requests[k].job.frame = frames[k];
    requests[k].job.options = auto_options(1);
  }
  for (std::size_t j = static_cast<std::size_t>(connection); j < jobs.size();
       j += kConnections) {
    JobObservation& job = jobs[j];
    const bool traced = trace && (j / kConnections) % 2 == 1;
    sleep_until_s(t0 + job.sched);
    transport::wire::Request& req = requests[j % frames.size()];
    req.request_id = id_base + j;
    const double ta = now_s();
    const std::vector<std::uint8_t> bytes =
        transport::wire::encode_request(req);
    const double tb = now_s();
    const transport::SendStatus status = socket.send_all(bytes);
    if (traced) {
      job.lateness = ta - (t0 + job.sched);
      job.encode = tb - ta;
      job.send = now_s() - tb;
      job.request_bytes = bytes.size();
    }
    if (status != transport::SendStatus::ok) {
      job.send_failed = true;
      return;
    }
  }
}

void receiver_loop(transport::Socket& socket, std::size_t expected,
                   const std::vector<img::ImageF>& golden,
                   std::vector<JobObservation>& jobs, std::uint64_t id_base,
                   bool trace) {
  namespace wire = transport::wire;
  for (std::size_t n = 0; n < expected; ++n) {
    transport::InboundMessage msg;
    if (transport::read_message(socket, msg) !=
        transport::ReadMessageStatus::ok) {
      return;  // the missing replies count as failures
    }
    const double ta = now_s();
    if (msg.header.type == wire::MessageType::error) {
      const wire::ErrorReply err = wire::decode_error(msg.payload);
      const std::size_t j = static_cast<std::size_t>(err.request_id - id_base);
      if (j >= jobs.size()) return;
      jobs[j].replied = true;
      jobs[j].error = true;
      jobs[j].shed = err.code == wire::ErrorCode::overloaded;
      jobs[j].expired = err.code == wire::ErrorCode::deadline_exceeded;
      continue;
    }
    if (msg.header.type != wire::MessageType::response) return;
    const wire::Response resp = wire::decode_response(msg.payload);
    const double tb = now_s();
    const std::size_t j = static_cast<std::size_t>(resp.request_id - id_base);
    if (j >= jobs.size()) return;
    JobObservation& job = jobs[j];
    job.replied = true;
    job.done = tb;
    job.queue = resp.result.queue_seconds;
    job.service = resp.result.service_seconds;
    if (trace) {
      job.decode = tb - ta;
      job.reply_bytes = msg.payload.size() + wire::kHeaderBytes;
    }
    job.full_quality = resp.result.degrade == serve::DegradeLevel::none;
    if (job.full_quality &&
        !same_bytes(resp.result.output, golden[j % golden.size()])) {
      job.mismatch = true;
    }
  }
}

/// One open-loop phase at a fixed rate over every connection; returns once
/// every reply has arrived (or its connection broke). Per-job rows go to
/// the columns `rows` + "point", "latency_ms", ...; failure counts and the
/// attempt count to the values `counts` + "errors", ....
void run_phase(Record& rec, int point, double rate, int count,
               std::uint64_t seed, std::vector<transport::Socket>& sockets,
               const std::vector<img::ImageF>& frames,
               const std::vector<img::ImageF>& golden, bool trace,
               std::uint64_t& schedule_hash, const std::string& rows = "job.",
               const std::string& counts = "") {
  const std::vector<double> sched = poisson_schedule(seed, rate, count);
  schedule_hash = hash_doubles(sched, schedule_hash);
  std::vector<JobObservation> jobs(sched.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) jobs[j].sched = sched[j];
  const std::uint64_t id_base = static_cast<std::uint64_t>(point) << 32;
  const double t0 = now_s() + 0.05;
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kConnections; ++c) {
      const std::size_t expected =
          (jobs.size() + static_cast<std::size_t>(kConnections - 1 - c)) /
          kConnections;
      threads.emplace_back([&, c] {
        sender_loop(sockets[static_cast<std::size_t>(c)], c, frames, t0,
                    jobs, id_base, trace);
      });
      threads.emplace_back([&, c, expected] {
        receiver_loop(sockets[static_cast<std::size_t>(c)], expected, golden,
                      jobs, id_base, trace);
      });
    }
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobObservation& job = jobs[j];
    const bool traced = trace && (j / kConnections) % 2 == 1;
    if (!job.replied || job.send_failed) rec.add(counts + "errors", 1);
    if (job.error && !job.shed && !job.expired) rec.add(counts + "errors", 1);
    if (job.shed) rec.add(counts + "shed", 1);
    if (job.expired) rec.add(counts + "expired", 1);
    if (job.mismatch) rec.add(counts + "mismatches", 1);
    if (!job.replied || job.error) continue;
    rec.push(rows + "point", point);
    rec.push(rows + "traced", traced ? 1 : 0);
    rec.push(rows + "latency_ms", (job.done - (t0 + job.sched)) * 1e3);
    rec.push(rows + "full_quality", job.full_quality ? 1 : 0);
    rec.push(rows + "queue_ms", job.queue * 1e3);
    rec.push(rows + "service_ms", job.service * 1e3);
    rec.push(rows + "lateness_ms", job.lateness * 1e3);
    rec.push(rows + "encode_ms", job.encode * 1e3);
    rec.push(rows + "send_ms", job.send * 1e3);
    rec.push(rows + "decode_ms", job.decode * 1e3);
    rec.push(rows + "bytes",
             static_cast<double>(job.request_bytes + job.reply_bytes));
  }
  rec.add(counts + "attempted", static_cast<double>(jobs.size()));
}

/// Blocking round trip of one job on a raw connection (warm-up and setup).
bool round_trip(transport::Socket& socket, const img::ImageF& frame,
                std::uint64_t id) {
  namespace wire = transport::wire;
  wire::Request req;
  req.request_id = id;
  req.job.frame = frame;
  req.job.options = auto_options(1);
  if (socket.send_all(wire::encode_request(req)) != transport::SendStatus::ok) {
    return false;
  }
  transport::InboundMessage msg;
  return transport::read_message(socket, msg) ==
             transport::ReadMessageStatus::ok &&
         msg.header.type == wire::MessageType::response &&
         wire::decode_response(msg.payload).request_id == id;
}

std::vector<transport::Socket> connect_all(const transport::Server& server) {
  std::vector<transport::Socket> sockets;
  for (int c = 0; c < kConnections; ++c) {
    sockets.push_back(transport::Socket::connect("127.0.0.1", server.port()));
    sockets.back().set_recv_timeout(kSocketTimeout);
    sockets.back().set_send_timeout(kSocketTimeout);
  }
  return sockets;
}

/// The full stack over loopback: a default transport::Server, two TCP
/// connections, open-loop Poisson arrivals in 5-second segments that
/// alternate between the light and the heavy rate.
void run_serve_remote(Record& rec, std::uint64_t seed, double seconds,
                      bool trace) {
  const Geometry g = kServeGeometry;
  const std::vector<img::ImageF> frames =
      make_frames(seed, g.width, g.height, g.distinct_frames);
  std::vector<img::ImageF> golden;
  for (const img::ImageF& f : frames) golden.push_back(reference_output(f));
  rec.label("input_hash", hex(hash_frames(frames)));
  label_plans(rec, g);

  transport::Server server;
  std::vector<transport::Socket> sockets = connect_all(server);
  for (int r = 0; r < 2; ++r) {  // warm-up: lazy service/session state
    for (std::size_t c = 0; c < sockets.size(); ++c) {
      if (!round_trip(sockets[c], frames[c], 1000 + c)) rec.add("errors", 1);
    }
  }

  const ProcessSample before = sample_process();
  std::uint64_t schedule_hash = kFnvOffset;
  const double rates[2] = {kLightRate, kHeavyRate};
  const int segments = segment_count(seconds);
  for (int seg = 0; seg < segments; ++seg) {
    const double rate = rates[seg % 2];
    run_phase(rec, seg % 2, rate,
              static_cast<int>(std::lround(rate * kSegmentSeconds)),
              seed * 64 + static_cast<std::uint64_t>(seg), sockets, frames,
              golden, trace, schedule_hash);
  }
  record_process(rec, before, sample_process());
  rec.label("schedule_hash", hex(schedule_hash));

  const serve::ServiceStats ss = server.service().stats();
  std::uint64_t builds = 0;
  for (const serve::ShardStats& s : ss.shards) builds += s.session_builds;
  rec.set("serve.session_builds", static_cast<double>(builds));
  rec.set("serve.completed", static_cast<double>(ss.completed));
  rec.set("serve.rebalanced", static_cast<double>(ss.rebalanced));
  rec.set("serve.shed", static_cast<double>(ss.shed));
  rec.set("serve.degraded", static_cast<double>(ss.degraded));
  rec.set("serve.expired", static_cast<double>(ss.expired));
  record_server(rec, server);
  if (!trace) return;
  // Rate ladder, traced runs only: short open-loop steps of rising rate;
  // run.py reports the highest rate whose step meets the tail limit
  // without a growing backlog or a failed job.
  std::uint64_t ladder_hash = kFnvOffset;
  for (int i = 0; i < kLadderSteps; ++i) {
    const double rate = kLadderStart + i * kLadderStep;
    const std::string step = "ladder." + std::to_string(i) + ".";
    rec.set(step + "rate", rate);
    run_phase(rec, i, rate,
              static_cast<int>(std::lround(rate * kLadderSeconds)),
              seed * 64 + 32 + static_cast<std::uint64_t>(i), sockets, frames,
              golden, false, ladder_hash, "ladder.", step);
  }
  probe_layers(rec, frames, 8);
}

// --- stream_video -----------------------------------------------------------

stream::StreamConfig stream_config() {
  stream::StreamConfig sc;
  sc.pipeline = auto_options(1);
  sc.width = kStreamGeometry.width;
  sc.height = kStreamGeometry.height;
  sc.frame_interval_seconds = 1.0 / kStreamFps;
  return sc;
}

/// The stream's golden trajectory: a local VideoToneMapper on the
/// reference backend, fed the same frame sequence.
std::vector<img::ImageF> stream_golden(const std::vector<img::ImageF>& frames,
                                       int count) {
  const stream::StreamConfig sc = stream_config();
  video::VideoToneMapperOptions vopt;
  vopt.pipeline = sc.pipeline;
  vopt.pipeline.backend = "separable_float";
  vopt.adaptation_rate = sc.adaptation_rate;
  vopt.pipeline_depth = 1;
  vopt.frame_width = sc.width;
  vopt.frame_height = sc.height;
  video::VideoToneMapper mapper(vopt);
  std::vector<img::ImageF> out;
  for (int k = 0; k < count; ++k) {
    mapper.submit(frames[static_cast<std::size_t>(k) % frames.size()]);
    out.push_back(mapper.next_result());
  }
  return out;
}

struct FrameObservation {
  double latency = 0;
  double service = 0;
  double stall = 0;
  double lateness = 0;
  bool delivered = false;
  bool full_quality = false;
  bool mismatch = false;
};

struct StreamOutcome {
  std::vector<FrameObservation> frames;
  std::uint64_t frames_shed = 0;
  std::uint64_t frames_expired = 0;
  std::uint64_t rung_switches = 0;
  std::uint64_t gaps = 0;
  bool error = false;
};

/// One paced clip of `count` frames on its own stream session
/// (open_stream ... close_stream), sending frames 0..count-1, so every clip
/// shares one golden trajectory. Frame k is due at t0 + offset + k / fps,
/// with one frame outstanding (the next frame is sent once the previous
/// one is delivered, or when it falls due, whichever is later). Odd frames
/// are traced when `trace` is set.
void stream_loop(std::uint16_t port, int count, double offset,
                 const std::vector<img::ImageF>& frames,
                 const std::vector<img::ImageF>& golden, bool trace,
                 std::latch& ready, double& t0, StreamOutcome& out) {
  out.frames.resize(static_cast<std::size_t>(count));
  bool arrived = false;
  try {
    transport::ClientOptions co;
    co.port = port;
    co.request_timeout_seconds = kSocketTimeout;
    transport::Client client(co);
    const std::uint64_t id = client.open_stream(stream_config());
    ready.arrive_and_wait();
    arrived = true;
    for (int k = 0; k < count; ++k) {
      FrameObservation& f = out.frames[static_cast<std::size_t>(k)];
      const double due = t0 + offset + k / kStreamFps;
      sleep_until_s(due);
      const bool traced = trace && k % 2 == 1;
      const double ta = traced ? now_s() : 0.0;
      client.send_stream_frame(
          id, static_cast<std::uint64_t>(k),
          frames[static_cast<std::size_t>(k) % frames.size()]);
      if (traced) {
        f.lateness = ta - due;
        f.stall = now_s() - ta;
      }
      transport::ClientStreamResult r = client.next_stream_result();
      f.latency = now_s() - due;
      if (r.sequence != static_cast<std::uint64_t>(k)) {
        ++out.gaps;
        continue;
      }
      f.delivered = true;
      f.service = r.service_seconds;
      f.full_quality = r.rung == serve::DegradeLevel::none;
      f.mismatch = f.full_quality &&
                   !same_bytes(r.output, golden[static_cast<std::size_t>(k)]);
    }
    const transport::wire::StreamClosed closed = client.close_stream(id);
    out.frames_shed = closed.frames_shed;
    out.frames_expired = closed.frames_expired;
    out.rung_switches = closed.rung_switches;
  } catch (const std::exception& e) {
    std::cerr << "stream: " << e.what() << '\n';
    out.error = true;
    if (!arrived) ready.arrive_and_wait();
  }
}

/// One clip on `streams` concurrent sessions, staggered within the frame
/// period.
void run_stream_clip(Record& rec, int point, int streams,
                     transport::Server& server,
                     const std::vector<img::ImageF>& frames,
                     const std::vector<img::ImageF>& golden, bool trace) {
  const int count = static_cast<int>(golden.size());
  std::vector<StreamOutcome> outcomes(static_cast<std::size_t>(streams));
  std::latch ready(streams + 1);
  double t0 = 0;
  {
    std::vector<std::jthread> threads;
    for (int s = 0; s < streams; ++s) {
      const double offset = s / (kStreamFps * streams);
      threads.emplace_back([&, s, offset] {
        stream_loop(server.port(), count, offset, frames, golden, trace,
                    ready, t0, outcomes[static_cast<std::size_t>(s)]);
      });
    }
    t0 = now_s() + 0.05;  // written before the latch releases the streams
    ready.arrive_and_wait();
  }
  for (const StreamOutcome& o : outcomes) {
    std::size_t delivered = 0;
    for (std::size_t k = 0; k < o.frames.size(); ++k) {
      const FrameObservation& f = o.frames[k];
      if (!f.delivered) continue;
      ++delivered;
      if (f.mismatch) rec.add("mismatches", 1);
      rec.push("job.point", point);
      rec.push("job.traced", trace && k % 2 == 1 ? 1 : 0);
      rec.push("job.latency_ms", f.latency * 1e3);
      rec.push("job.full_quality", f.full_quality ? 1 : 0);
      rec.push("job.service_ms", f.service * 1e3);
      rec.push("job.stall_ms", f.stall * 1e3);
      rec.push("job.lateness_ms", f.lateness * 1e3);
    }
    rec.add("gaps", static_cast<double>(o.gaps));
    // Frames neither delivered, shed, expired nor counted as gaps were
    // lost to a broken stream; a stream that broke counts at least once.
    const std::uint64_t accounted =
        delivered + o.frames_shed + o.frames_expired + o.gaps;
    const std::uint64_t lost =
        accounted < o.frames.size() ? o.frames.size() - accounted : 0;
    rec.add("errors", static_cast<double>(
                          o.error ? std::max<std::uint64_t>(lost, 1) : lost));
    rec.add("shed", static_cast<double>(o.frames_shed));
    rec.add("expired", static_cast<double>(o.frames_expired));
    rec.add("stream.rung_switches", static_cast<double>(o.rung_switches));
  }
  rec.add("attempted", static_cast<double>(streams) * count);
}

/// Wire-v3 sessions over loopback, paced at 15 fps with one frame
/// outstanding, in 5-second clips (one session each) that alternate
/// between two streams (point "light") and three (point "heavy", about
/// 60% of the host's CPU).
void run_stream_video(Record& rec, std::uint64_t seed, double seconds,
                      bool trace) {
  const Geometry g = kStreamGeometry;
  const int segments = segment_count(seconds);
  const int streams[2] = {kLightStreams, kHeavyStreams};
  const std::vector<img::ImageF> frames =
      make_frames(seed, g.width, g.height, g.distinct_frames);
  const std::vector<img::ImageF> golden = stream_golden(frames, kClipFrames);
  rec.label("input_hash", hex(hash_frames(frames)));
  std::vector<double> pacing;
  for (int seg = 0; seg < segments; ++seg) {
    const int n = streams[seg % 2];
    for (int s = 0; s < n; ++s) {
      for (int k = 0; k < kClipFrames; ++k) {
        pacing.push_back(seg * kSegmentSeconds + s / (kStreamFps * n) +
                         k / kStreamFps);
      }
    }
  }
  rec.label("schedule_hash", hex(hash_doubles(pacing)));
  label_plans(rec, g);

  transport::Server server;
  {  // warm-up: one short stream
    std::latch ready(2);
    double t0 = 0;
    StreamOutcome warm;
    std::jthread th([&] {
      stream_loop(server.port(), 2, 0, frames, golden, false, ready, t0,
                  warm);
    });
    t0 = now_s();
    ready.arrive_and_wait();
  }

  const ProcessSample before = sample_process();
  for (int seg = 0; seg < segments; ++seg) {
    run_stream_clip(rec, seg % 2, streams[seg % 2], server, frames, golden,
                    trace);
  }
  record_process(rec, before, sample_process());
  record_server(rec, server);
  if (trace) probe_layers(rec, frames, 8);
}

// --- setup ------------------------------------------------------------------

/// Wall time from constructing the workload's top object until its first
/// cold job completes. Input generation is excluded.
double measure_setup(const std::string& workload, std::uint64_t seed) {
  if (workload == "frame_paper") {
    const Geometry g = kFrameGeometry;
    const img::ImageF frame = make_frames(seed, g.width, g.height, 1)[0];
    const double t0 = now_s();
    const img::ImageF out = tonemap::tone_map_image(frame, auto_options(1));
    const double t1 = now_s();
    TMHLS_REQUIRE(!out.empty(), "setup: empty output");
    return t1 - t0;
  }
  if (workload == "serve_remote") {
    const Geometry g = kServeGeometry;
    const img::ImageF frame = make_frames(seed, g.width, g.height, 1)[0];
    const double t0 = now_s();
    transport::Server server;
    std::vector<transport::Socket> sockets = connect_all(server);
    TMHLS_REQUIRE(round_trip(sockets[0], frame, 1), "setup: round trip failed");
    return now_s() - t0;
  }
  if (workload == "stream_video") {
    const Geometry g = kStreamGeometry;
    const img::ImageF frame = make_frames(seed, g.width, g.height, 1)[0];
    transport::Server server;
    transport::Client client("127.0.0.1", server.port());
    const double t0 = now_s();
    const std::uint64_t id = client.open_stream(stream_config());
    client.send_stream_frame(id, 0, frame);
    const transport::ClientStreamResult r = client.next_stream_result();
    const double t1 = now_s();
    TMHLS_REQUIRE(r.sequence == 0, "setup: wrong first frame");
    client.close_stream(id);
    return t1 - t0;
  }
  throw InvalidArgument("unknown workload: " + workload);
}

// --- selftest ---------------------------------------------------------------

int selftest() {
  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "FAIL: " << what << '\n';
      ++failures;
    }
  };
  const std::vector<double> a = poisson_schedule(7, 40.0, 20000);
  const std::vector<double> b = poisson_schedule(7, 40.0, 20000);
  const std::vector<double> c = poisson_schedule(8, 40.0, 20000);
  check(a == b, "same seed gives the same schedule");
  check(a != c, "another seed gives another schedule");
  check(a.size() == 20000, "schedule has the requested count");
  check(std::is_sorted(a.begin(), a.end()) && a.front() > 0,
        "schedule is increasing and starts after the phase start");
  const double mean_gap = a.back() / static_cast<double>(a.size());
  check(std::abs(mean_gap * 40.0 - 1.0) < 0.03, "mean gap is 1/rate");
  // Exponential gaps: the coefficient of variation is 1.
  double sum = 0, sq = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double gap = a[i] - (i ? a[i - 1] : 0.0);
    sum += gap;
    sq += gap * gap;
  }
  const double n = static_cast<double>(a.size());
  const double mean = sum / n;
  const double cv = std::sqrt(sq / n - mean * mean) / mean;
  check(std::abs(cv - 1.0) < 0.05, "gaps are exponential (cv ~ 1)");
  check(hash_doubles(a) == hash_doubles(b) &&
            hash_doubles(a) != hash_doubles(c),
        "schedule hash tracks the schedule");
  const std::vector<img::ImageF> f1 = make_frames(3, 32, 24, 2);
  const std::vector<img::ImageF> f2 = make_frames(3, 32, 24, 2);
  const std::vector<img::ImageF> f3 = make_frames(4, 32, 24, 2);
  check(hash_frames(f1) == hash_frames(f2), "same seed gives the same frames");
  check(hash_frames(f1) != hash_frames(f3), "another seed gives other frames");
  check(same_bytes(f1[0], f2[0]) && !same_bytes(f1[0], f1[1]),
        "byte comparison");
  std::cout << "tmbench selftest: " << (failures == 0 ? "ok" : "FAILED")
            << '\n';
  return failures == 0 ? 0 : 1;
}

std::string arg(int argc, char** argv, const std::string& key,
                const std::string& fallback) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (argv[i] == key) return argv[i + 1];
  }
  return fallback;
}

} // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "selftest") return selftest();
    const std::string workload = arg(argc, argv, "--workload", "");
    const std::uint64_t seed = std::stoull(arg(argc, argv, "--seed", "1"));
    if (cmd == "setup") {
      std::cout.precision(17);
      std::cout << "{\"setup_s\":" << measure_setup(workload, seed) << "}\n";
      return 0;
    }
    if (cmd != "run") {
      std::cerr << "usage: tmbench run|setup|selftest --workload W --seed N "
                   "[--seconds S] [--trace 0|1]\n";
      return 2;
    }
    const double seconds = std::stod(arg(argc, argv, "--seconds", "10"));
    const bool trace = arg(argc, argv, "--trace", "0") == "1";
    TMHLS_REQUIRE(seconds > 0, "--seconds must be positive");
    Record rec;
    for (const char* key : {"attempted", "errors", "mismatches", "shed",
                            "expired", "gaps"}) {
      rec.set(key, 0);
    }
    if (workload == "frame_paper") {
      run_frame_paper(rec, seed, seconds, trace);
    } else if (workload == "serve_remote") {
      run_serve_remote(rec, seed, seconds, trace);
    } else if (workload == "stream_video") {
      run_stream_video(rec, seed, seconds, trace);
    } else {
      throw InvalidArgument("unknown workload: " + workload);
    }
    std::cout << rec.json() << '\n';
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "tmbench: " << e.what() << '\n';
    return 1;
  }
}
