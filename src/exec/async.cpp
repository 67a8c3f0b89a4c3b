#include "exec/async.hpp"

#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "image/plane_pool.hpp"

namespace tmhls::exec {

void validate(const AsyncExecutorOptions& options) {
  TMHLS_REQUIRE(options.queue_capacity >= 1,
                "AsyncExecutorOptions::queue_capacity must be >= 1, got " +
                    std::to_string(options.queue_capacity));
}

AsyncExecutor::AsyncExecutor(PipelineExecutor executor,
                             AsyncExecutorOptions options)
    : executor_(std::move(executor)), options_(options),
      inherited_recycler_(img::detail::current_recycler()) {
  validate(options_);
  worker_ = std::thread([this] { worker_loop(); });
}

AsyncExecutor::~AsyncExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  worker_.join();
}

std::future<img::ImageF> AsyncExecutor::submit(BlurRequest request) {
  std::future<img::ImageF> future;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    TMHLS_REQUIRE(!stopping_, "AsyncExecutor::submit after shutdown");
    queue_not_full_.wait(lock, [this] {
      return stopping_ ||
             queue_.size() <
                 static_cast<std::size_t>(options_.queue_capacity);
    });
    TMHLS_REQUIRE(!stopping_, "AsyncExecutor::submit after shutdown");
    Task task{std::move(request), std::promise<img::ImageF>{}};
    future = task.promise.get_future();
    queue_.push_back(std::move(task));
  }
  queue_not_empty_.notify_one();
  return future;
}

void AsyncExecutor::worker_loop() {
  // The worker runs under the plane-pool scope of the thread that built
  // this executor, so blur results allocate from the same pool as every
  // other plane of that pipeline/shard (see inherited_recycler_).
  const img::detail::ScopedRecycler pool_scope(inherited_recycler_);
  for (;;) {
    std::optional<Task> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_not_empty_.wait(lock,
                            [this] { return stopping_ || !queue_.empty(); });
      // Shutdown drains the queue: every accepted request completes, so
      // futures handed out by submit() never dangle unresolved.
      if (queue_.empty()) return;
      task.emplace(std::move(queue_.front()));
      queue_.pop_front();
    }
    queue_not_full_.notify_one();
    try {
      // Fault site "exec.async.task": a delay stalls this executor with
      // the task picked up (the stalled-executor scenario); a throw
      // surfaces through the task's future like any blur error.
      fault::inject("exec.async.task");
      task->promise.set_value(
          executor_.blur(task->request.intensity, task->request.kernel));
    } catch (...) {
      task->promise.set_exception(std::current_exception());
    }
  }
}

} // namespace tmhls::exec
