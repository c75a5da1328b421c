// Shared worker-thread pool: the single execution substrate for every
// parallel loop in the repository (GEMM row blocks, Monte-Carlo sample
// chunks, per-endpoint path enumeration, experiment sweeps).
//
// Design rules:
//   * One persistent pool, started lazily on first use, so hot loops never
//     pay per-call std::thread spawn/join cost.
//   * The caller always participates in parallel_for, so work completes even
//     with zero workers, and `set_threads(1)` degenerates to plain serial
//     execution (bit-identical to the single-threaded code path).
//   * Nested parallel regions run inline on the current thread instead of
//     re-entering the pool, so a parallel_for body may freely call code that
//     is itself parallelized (e.g. sweep tasks calling pooled GEMM) without
//     deadlock or oversubscription.
//   * Parallelism must never change results: callers are responsible for
//     deterministic work partitioning (see core/monte_carlo.cpp for the
//     chunked-RNG scheme); the pool guarantees only that fn(b, e) is invoked
//     exactly once per chunk.
//
// The worker count defaults to hardware_concurrency (capped at 8, like the
// old per-call GEMM threading) and can be overridden by the REPRO_THREADS
// environment variable or set_threads().
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

namespace repro::util {

class ThreadPool {
 public:
  // The global shared pool.  Workers are spawned on first parallel call.
  static ThreadPool& instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total concurrency (caller + workers) used by parallel_for; always >= 1.
  // Reconfiguring joins the existing workers first, so it must not race with
  // in-flight parallel work (intended for startup and tests).  Calling it
  // from inside a parallel region — a parallel_for body or a submitted pool
  // task — would self-join and deadlock, so that misuse throws
  // std::logic_error instead.
  void set_threads(std::size_t n);
  std::size_t threads() const;

  // Runs fn over disjoint subranges that exactly cover [begin, end),
  // distributing grain-sized chunks dynamically over the pool.  Blocks until
  // everything completed.  The first exception thrown by fn is rethrown on
  // the calling thread (remaining chunks are skipped).
  //
  // fn may be handed a merged run of consecutive chunks (in particular, the
  // serial fast path — one configured thread, a single chunk, or a nested
  // call — is one fn(begin, end) call), so determinism-sensitive callers
  // must iterate indices inside fn rather than treat [b, e) as one unit of
  // reduction (see core/monte_carlo.cpp for the per-chunk-slot pattern).
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  // Queues a task and returns its future.  With a single configured thread
  // the task runs synchronously.  Do not block on a future from inside a
  // pool task: workers do not steal while waiting.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    enqueue([task] { (*task)(); });
    return task->get_future();
  }

  // True when the current thread is executing inside a parallel region
  // (worker thread or a caller participating in parallel_for).
  static bool in_parallel_region();

 private:
  ThreadPool();
  void enqueue(std::function<void()> task);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Convenience wrappers over ThreadPool::instance().
void set_threads(std::size_t n);
std::size_t thread_count();

// Strictly parsed REPRO_THREADS override (nullptr = variable unset).  The
// whole string must be a positive integer — trailing garbage ("8x") and
// lists ("4,8") yield nullopt, which means "fall back to the hardware
// default", never a silently truncated parse.  Values are capped at 256.
// Exposed for unit testing; the pool applies it once at construction.
std::optional<std::size_t> env_thread_override(const char* value);
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace repro::util
