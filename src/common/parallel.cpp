#include "src/common/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace moheco {

struct ThreadPool::Impl {
  /// Per-shard claim cursor, cache-line aligned so neighbouring shards do
  /// not false-share under concurrent claiming.
  struct alignas(64) ShardCursor {
    std::atomic<std::size_t> next{0};
  };

  std::vector<std::thread> workers;
  std::mutex mutex;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  const std::function<void(int, std::size_t)>* fn = nullptr;
  const std::vector<std::size_t>* queues = nullptr;
  std::size_t num_queues = 0;
  ShardCursor* cursors = nullptr;
  std::size_t generation = 0;
  int active = 0;
  bool stop = false;
  std::exception_ptr error;

  void run_item(int id, std::size_t item) {
    try {
      (*fn)(id, item);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex);
      if (!error) error = std::current_exception();
    }
  }

  void drain_sharded(int id) {
    // Own queue first (pass 0), then steal round-robin.  Cursors only grow,
    // so a queue drained during an earlier pass stays drained.
    const std::size_t home = static_cast<std::size_t>(id) % num_queues;
    for (std::size_t pass = 0; pass < num_queues; ++pass) {
      const std::size_t q = (home + pass) % num_queues;
      const std::vector<std::size_t>& queue = queues[q];
      for (;;) {
        const std::size_t k =
            cursors[q].next.fetch_add(1, std::memory_order_relaxed);
        if (k >= queue.size()) break;
        run_item(id, queue[k]);
      }
    }
  }

  void worker_main(int id) {
    std::size_t seen_generation = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv_work.wait(lock, [&] {
          return stop || generation != seen_generation;
        });
        if (stop) return;
        seen_generation = generation;
      }
      drain_sharded(id);
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (--active == 0) cv_done.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(int threads) : impl_(new Impl) {
  num_workers_ = threads > 0
                     ? threads
                     : static_cast<int>(std::thread::hardware_concurrency());
  if (num_workers_ < 1) num_workers_ = 1;
  impl_->workers.reserve(static_cast<std::size_t>(num_workers_));
  for (int i = 0; i < num_workers_; ++i) {
    impl_->workers.emplace_back([this, i] { impl_->worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (auto& t : impl_->workers) t.join();
  delete impl_;
}

void ThreadPool::parallel_for_sharded(
    std::span<const std::vector<std::size_t>> queues,
    const std::function<void(int, std::size_t)>& fn) {
  if (queues.empty()) return;
  std::size_t total = 0;
  for (const auto& q : queues) total += q.size();
  if (total == 0) return;
  auto cursors = std::make_unique<Impl::ShardCursor[]>(queues.size());
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->fn = &fn;
    impl_->queues = queues.data();
    impl_->num_queues = queues.size();
    impl_->cursors = cursors.get();
    impl_->error = nullptr;
    impl_->active = num_workers_;
    ++impl_->generation;
  }
  impl_->cv_work.notify_all();
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->cv_done.wait(lock, [this] { return impl_->active == 0; });
  impl_->fn = nullptr;
  impl_->queues = nullptr;
  impl_->num_queues = 0;
  impl_->cursors = nullptr;
  if (impl_->error) std::rethrow_exception(impl_->error);
}

}  // namespace moheco
