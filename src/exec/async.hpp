// Asynchronous request/future execution on top of PipelineExecutor — the
// host-side analogue of the paper's DMA/PL overlap: a submit() hands the
// mask blur to an owned worker thread and returns immediately, so the
// caller's thread can run the point-wise PS stages of the next frame while
// the blur of the previous one is in flight (tonemap::FramePipeline).
#pragma once

#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "exec/executor.hpp"

namespace tmhls::img::detail {
class PlaneRecycler;
}

namespace tmhls::exec {

/// One asynchronous blur request: the 1-channel intensity plane to blur
/// and the Gaussian kernel to blur it with.
struct BlurRequest {
  img::ImageF intensity;
  tonemap::GaussianKernel kernel;
};

/// Configuration of an AsyncExecutor's admission queue. There is always
/// exactly one worker: blurs run in submission order — the model of the
/// paper's single accelerator; each blur may still be internally
/// multi-threaded via ExecutorOptions::threads.
struct AsyncExecutorOptions {
  /// Bound on requests waiting in the queue (not yet picked up by the
  /// worker). submit() blocks when the queue is full — backpressure
  /// instead of unbounded buffering.
  int queue_capacity = 8;
};

/// Validation of AsyncExecutorOptions: throws InvalidArgument naming the
/// offending field unless queue_capacity >= 1.
void validate(const AsyncExecutorOptions& options);

/// An executor with an asynchronous submit/future interface: requests are
/// queued (bounded) and executed by one owned worker thread on the wrapped
/// PipelineExecutor. Every future obtained from submit() becomes ready
/// eventually — the destructor completes all accepted requests before
/// returning, so destroying an AsyncExecutor with work in flight is safe.
///
/// Thread safety: submit() may be called from any number of threads
/// concurrently. The wrapped PipelineExecutor is used by the worker while
/// callers may use it too; executors are immutable after construction, and
/// the backends' run_blur is const and stateless, so this is safe by
/// construction.
class AsyncExecutor {
public:
  explicit AsyncExecutor(PipelineExecutor executor,
                         AsyncExecutorOptions options = {});
  /// Completes every accepted request (the worker drains the queue), then
  /// joins the worker.
  ~AsyncExecutor();

  AsyncExecutor(const AsyncExecutor&) = delete;
  AsyncExecutor& operator=(const AsyncExecutor&) = delete;

  /// Enqueue a blur; returns the future of its result. Blocks while the
  /// queue is at capacity. An error thrown by the backend (e.g. a kernel
  /// beyond its static bound) is delivered through the future.
  std::future<img::ImageF> submit(BlurRequest request);

  /// The synchronous executor the worker runs requests on.
  const PipelineExecutor& executor() const { return executor_; }
  const AsyncExecutorOptions& options() const { return options_; }

private:
  struct Task {
    BlurRequest request;
    std::promise<img::ImageF> promise;
  };

  void worker_loop();

  PipelineExecutor executor_;
  AsyncExecutorOptions options_;
  /// The creating thread's plane recycler, snapshotted at construction
  /// and re-installed in the worker: blur outputs allocated by the pool
  /// behind a FramePipeline or service shard stay pool-backed even though
  /// they materialise on this executor's own thread. Null when the
  /// creating thread was unpooled.
  std::shared_ptr<img::detail::PlaneRecycler> inherited_recycler_;

  std::mutex mutex_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  std::thread worker_;
};

} // namespace tmhls::exec
