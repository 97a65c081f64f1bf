// Batch execution engine: a persistent worker pool with reusable per-worker
// routing workspaces.
//
// The paper's aggregate quantities are means over millions of independent
// (attacker, destination) computations (Appendix H ran them under MPI on a
// BlueGene). The seed implementation spawned and joined fresh std::threads
// on every sweep call and allocated five RoutingOutcome vectors per pair;
// BatchExecutor amortizes both: workers start once (lazily) and live for
// the executor's lifetime, each owning a routing::EngineWorkspace whose
// buffers persist across batches, and work is handed out in index chunks so
// the scheduling counter is touched once per chunk instead of once per
// pair. This is the seam every future scaling direction (sharding, async
// batches, multi-topology backends) plugs into.
//
// Determinism contract: the executor itself assigns chunks dynamically —
// *which* worker computes a given index is racy by design. Callers that
// need thread-count-independent results must make their accumulation
// associative (integer partial sums per worker, or one result slot per
// index); analyze_sweep and the campaign driver do exactly that.
#ifndef SBGP_SIM_BATCH_EXECUTOR_H
#define SBGP_SIM_BATCH_EXECUTOR_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "routing/workspace.h"

namespace sbgp::sim {

/// Number of worker threads to use by default.
[[nodiscard]] inline std::size_t default_threads() {
  const auto hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

/// One task invocation that threw during run_isolated: which unit, which
/// worker ran it, the exception itself, and its rendered message (what()
/// for std::exception, "unknown exception" otherwise). Failures never
/// cancel other units — every index still executes exactly once.
struct UnitFailure {
  std::size_t index = 0;
  std::size_t worker = 0;
  std::string message;
  std::exception_ptr error;
};

class BatchExecutor {
 public:
  /// A task invoked as task(worker, index): `index` in [0, count) is the
  /// work item; `worker` identifies the calling worker so the task may use
  /// workspace(worker) and a per-worker accumulator slot without locking.
  using Task = std::function<void(std::size_t worker, std::size_t index)>;

  /// Creates an executor with `threads` workers (0 = default_threads()).
  /// No threads are spawned until the first run() that needs them.
  explicit BatchExecutor(std::size_t threads = 0);

  /// Joins all workers. Must not race with an in-flight run().
  ~BatchExecutor();

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Process-wide shared executor (lazily constructed, default_threads()
  /// workers). This is what analyze_sweep and run_campaign use unless
  /// told otherwise.
  [[nodiscard]] static BatchExecutor& shared();

  [[nodiscard]] std::size_t num_workers() const noexcept {
    return num_workers_;
  }

  /// The worker limit a run() with `max_workers` will actually use — the
  /// size callers should give their per-worker accumulator arrays.
  [[nodiscard]] std::size_t effective_workers(
      std::size_t max_workers) const noexcept {
    return max_workers == 0 ? num_workers_
                            : std::min(max_workers, num_workers_);
  }

  /// Long-lived workspace of one worker (index < num_workers()). Valid for
  /// the executor's lifetime; only worker `worker` may touch it during a
  /// run.
  [[nodiscard]] routing::EngineWorkspace& workspace(std::size_t worker) {
    return workspaces_[worker];
  }

  /// Runs task(worker, i) for every i in [0, count) across at most
  /// `max_workers` workers (0 = all). The calling thread participates as
  /// worker 0 (the pool holds num_workers() - 1 threads), so a
  /// single-worker run degenerates to an inline loop with no pool
  /// involvement at all. Blocks until the batch completes. If any task
  /// throws, a shared stop flag halts the remaining workers at the next
  /// item boundary and the first exception is rethrown here. Serialized:
  /// concurrent run() calls queue on an internal mutex.
  void run(std::size_t count, const Task& task, std::size_t max_workers = 0);

  /// Failure-isolation variant of run(): a throwing task does NOT halt the
  /// batch. Every index in [0, count) executes exactly once; each throwing
  /// invocation is captured as a UnitFailure instead of propagating, and
  /// the collected failures come back sorted by unit index (empty on a
  /// clean batch). This is the mode fault-tolerant campaigns run on: one
  /// bad unit costs its own result, never the batch.
  [[nodiscard]] std::vector<UnitFailure> run_isolated(
      std::size_t count, const Task& task, std::size_t max_workers = 0);

 private:
  struct Job {
    std::size_t count = 0;
    std::size_t chunk = 1;
    std::size_t limit = 0;  // participating workers
    const Task* task = nullptr;
    /// Per-worker failure sinks; nullptr = fail-fast mode (run()).
    std::vector<std::vector<UnitFailure>>* failures = nullptr;
    std::atomic<std::size_t> next{0};
  };

  void ensure_started();
  void worker_main(std::size_t id);
  void drain(Job& job, std::size_t worker);
  /// Publishes a filled-in Job to the pool, participates as worker 0, and
  /// waits for completion. Caller holds run_mutex_.
  void run_job(Job& job, std::size_t workers);

  std::size_t num_workers_;
  std::vector<routing::EngineWorkspace> workspaces_;

  std::mutex run_mutex_;  // serializes run() callers

  std::mutex mutex_;
  std::condition_variable work_cv_;   // wakes workers: new job / shutdown
  std::condition_variable done_cv_;   // wakes the caller: batch finished
  Job* job_ = nullptr;
  std::uint64_t job_seq_ = 0;
  std::size_t active_ = 0;
  bool shutdown_ = false;
  std::exception_ptr error_;
  std::atomic<bool> stop_{false};

  bool started_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace sbgp::sim

#endif  // SBGP_SIM_BATCH_EXECUTOR_H
