#pragma once
// Small persistent worker pool for sharding epoch hot loops.
//
// The only primitive is parallel_for(n, fn): run fn(0..n-1) with the
// calling thread participating, returning once every invocation has
// finished. Work is handed out through an atomic index, so the mapping
// of index -> thread is nondeterministic — callers preserve determinism
// by writing into index-addressed slots and reducing sequentially in
// index order afterwards (see RanController::serve_epoch).
//
// Claim protocol. Each parallel_for is a job with a new generation.
// One atomic claim word packs the job's generation (high 32 bits) with
// its next unclaimed index (low 32 bits). A worker reads the generation,
// fn and n together under the mutex, then claims index i only by a
// compare-and-swap from (generation, i) to (generation, i + 1) with
// i < n. A worker that wakes late, after its job has finished and the
// next parallel_for has re-armed the word, finds another generation
// there and claims nothing: it never runs an index of a job it did not
// read, and never calls a finished job's fn. (A claim could only be
// misattributed if a worker slept through exactly 2^32 jobs between
// reading its generation and its compare-and-swap.)
//
// Guarantee. Every claimed index stays counted in `pending_` until its
// fn(i) has returned, and parallel_for returns only once `pending_` is
// 0. Since no claim can succeed after the last index is taken, once
// parallel_for returns no worker is running fn or can call it again, so
// fn may be a temporary.

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace slices {

class ThreadPool {
 public:
  /// `concurrency` counts the calling thread: ThreadPool(1) spawns no
  /// workers and parallel_for runs inline; ThreadPool(4) spawns 3.
  explicit ThreadPool(std::size_t concurrency) {
    const std::size_t workers = concurrency > 1 ? concurrency - 1 : 0;
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Calling thread + workers.
  [[nodiscard]] std::size_t concurrency() const noexcept { return threads_.size() + 1; }

  /// Run fn(i) for every i in [0, n). Blocks until all invocations have
  /// returned; afterwards no worker calls fn again. fn must not throw
  /// and must not call parallel_for on the same pool reentrantly.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    if (threads_.empty() || n == 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    assert(n <= kIndexMask && "parallel_for size exceeds the claim word's index bits");
    std::uint64_t tag = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      assert(pending_.load(std::memory_order_relaxed) == 0 && "reentrant parallel_for");
      ++generation_;
      tag = generation_ << kIndexBits;
      job_fn_ = &fn;
      job_n_ = n;
      pending_.store(n, std::memory_order_relaxed);
      claim_.store(tag, std::memory_order_relaxed);
    }
    wake_cv_.notify_all();
    drain(tag, &fn, n);
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return pending_.load(std::memory_order_acquire) == 0; });
  }

 private:
  static constexpr unsigned kIndexBits = 32;
  static constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kIndexBits) - 1;

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      wake_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      const std::function<void(std::size_t)>* fn = job_fn_;
      const std::size_t n = job_n_;
      lock.unlock();
      drain(seen << kIndexBits, fn, n);
      lock.lock();
    }
  }

  /// Claims and runs indices of the job tagged `tag` until it has none
  /// left or a later job owns the claim word. `fn` is dereferenced only
  /// after a successful claim, i.e. while its job is still pending.
  void drain(std::uint64_t tag, const std::function<void(std::size_t)>* fn, std::size_t n) {
    std::uint64_t word = claim_.load(std::memory_order_relaxed);
    while ((word & ~kIndexMask) == tag && (word & kIndexMask) < n) {
      if (!claim_.compare_exchange_weak(word, word + 1, std::memory_order_relaxed)) continue;
      (*fn)(static_cast<std::size_t>(word & kIndexMask));
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_all();
      }
      word = claim_.load(std::memory_order_relaxed);
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;
  const std::function<void(std::size_t)>* job_fn_ = nullptr;
  std::size_t job_n_ = 0;
  std::atomic<std::uint64_t> claim_{0};  // generation << kIndexBits | next index
  std::atomic<std::size_t> pending_{0};  // indices of the current job whose fn has not returned
};

}  // namespace slices
