#include "sim/batch_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "routing/model.h"
#include "sim/experiment.h"
#include "sim/pair_analysis.h"
#include "test_support.h"
#include "topology/generator.h"

namespace sbgp::sim {
namespace {

using routing::SecurityModel;
using test::random_deployment;

TEST(BatchExecutor, CoversAllIndicesOnce) {
  BatchExecutor exec(4);
  std::vector<std::atomic<int>> hits(997);
  exec.run(hits.size(), [&](std::size_t, std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(BatchExecutor, WorkerIdsStayWithinLimit) {
  BatchExecutor exec(8);
  EXPECT_EQ(exec.num_workers(), 8u);
  EXPECT_EQ(exec.effective_workers(0), 8u);
  EXPECT_EQ(exec.effective_workers(3), 3u);
  EXPECT_EQ(exec.effective_workers(99), 8u);
  std::atomic<std::size_t> max_worker{0};
  exec.run(
      1000,
      [&](std::size_t worker, std::size_t) {
        std::size_t prev = max_worker.load();
        while (worker > prev &&
               !max_worker.compare_exchange_weak(prev, worker)) {
        }
      },
      /*max_workers=*/3);
  EXPECT_LT(max_worker.load(), 3u);
}

TEST(BatchExecutor, ZeroCountIsANoop) {
  BatchExecutor exec(2);
  int calls = 0;
  exec.run(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(BatchExecutor, PropagatesExceptionsAndSurvivesThem) {
  BatchExecutor exec(4);
  EXPECT_THROW(exec.run(100,
                        [&](std::size_t, std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The pool must remain usable after a failed batch.
  std::atomic<int> ok{0};
  exec.run(50, [&](std::size_t, std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 50);
}

TEST(BatchExecutor, ExceptionHaltsRemainingWork) {
  // With the stop flag, a batch much larger than the failure point must not
  // run to completion: workers bail at the next item boundary. Run on one
  // worker for a deterministic count.
  BatchExecutor exec(1);
  std::atomic<int> processed{0};
  EXPECT_THROW(exec.run(10'000,
                        [&](std::size_t, std::size_t i) {
                          processed.fetch_add(1);
                          if (i == 5) throw std::runtime_error("halt");
                        }),
               std::runtime_error);
  EXPECT_EQ(processed.load(), 6);
}

TEST(BatchExecutor, RunIsolatedExecutesEveryIndexDespiteFailures) {
  BatchExecutor exec(4);
  std::vector<std::atomic<int>> hits(503);
  const auto failures =
      exec.run_isolated(hits.size(), [&](std::size_t, std::size_t i) {
        hits[i].fetch_add(1);
        if (i % 7 == 0) throw std::runtime_error("unit " + std::to_string(i));
      });
  // Every index ran exactly once — a failure costs its own unit, never
  // the batch.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  ASSERT_EQ(failures.size(), (hits.size() + 6) / 7);
  // Failures come back sorted by index with the throwing unit's message
  // and the exception itself.
  for (std::size_t f = 0; f < failures.size(); ++f) {
    EXPECT_EQ(failures[f].index, f * 7);
    EXPECT_LT(failures[f].worker, 4u);
    EXPECT_EQ(failures[f].message, "unit " + std::to_string(f * 7));
    ASSERT_TRUE(failures[f].error != nullptr);
    EXPECT_THROW(std::rethrow_exception(failures[f].error),
                 std::runtime_error);
  }
}

TEST(BatchExecutor, RunIsolatedCleanBatchReturnsNoFailures) {
  BatchExecutor exec(3);
  std::atomic<int> calls{0};
  const auto failures = exec.run_isolated(
      200, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_TRUE(failures.empty());
  EXPECT_EQ(calls.load(), 200);
  EXPECT_TRUE(exec.run_isolated(0, [&](std::size_t, std::size_t) {
                     ++calls;
                   }).empty());
  EXPECT_EQ(calls.load(), 200);
}

TEST(BatchExecutor, RunIsolatedSingleWorkerCapturesInIndexOrder) {
  // The inline 1-worker fast path must match the pool semantics: all
  // indices execute, captures are in index order.
  BatchExecutor exec(1);
  std::vector<int> hits(50, 0);
  const auto failures =
      exec.run_isolated(hits.size(), [&](std::size_t worker, std::size_t i) {
        EXPECT_EQ(worker, 0u);
        ++hits[i];
        if (i == 3 || i == 41) throw std::invalid_argument("pick");
      });
  for (const int h : hits) EXPECT_EQ(h, 1);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_EQ(failures[0].index, 3u);
  EXPECT_EQ(failures[1].index, 41u);
  EXPECT_EQ(failures[0].message, "pick");
}

TEST(BatchExecutor, RunIsolatedRecordsNonStdExceptions) {
  BatchExecutor exec(2);
  const auto failures = exec.run_isolated(4, [&](std::size_t, std::size_t i) {
    if (i == 2) throw 42;  // NOLINT: deliberately not a std::exception
  });
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].index, 2u);
  EXPECT_EQ(failures[0].message, "unknown exception");
  EXPECT_THROW(std::rethrow_exception(failures[0].error), int);
}

TEST(BatchExecutor, RunAndRunIsolatedInterleaveOnOnePool) {
  // Fail-fast and isolation are per-call modes of one pool, not pool
  // state: a strict batch after an isolated one still rethrows, and the
  // pool survives both.
  BatchExecutor exec(4);
  const auto failures = exec.run_isolated(
      100, [&](std::size_t, std::size_t i) {
        if (i % 2 == 0) throw std::runtime_error("even");
      });
  EXPECT_EQ(failures.size(), 50u);
  EXPECT_THROW(exec.run(100,
                        [&](std::size_t, std::size_t i) {
                          if (i == 10) throw std::runtime_error("strict");
                        }),
               std::runtime_error);
  std::atomic<int> ok{0};
  exec.run(64, [&](std::size_t, std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 64);
}

TEST(BatchExecutor, WorkspacesPersistAcrossBatches) {
  BatchExecutor exec(2);
  const auto topo = topology::generate_small_internet(200, 5);
  const auto run_batch = [&] {
    exec.run(64, [&](std::size_t worker, std::size_t i) {
      routing::compute_routing(
          topo.graph,
          {static_cast<routing::AsId>(i % topo.graph.num_ases()),
           routing::kNoAs, SecurityModel::kInsecure},
          {}, exec.workspace(worker));
    });
  };
  // Prime every workspace to the graph size, then capture buffer addresses:
  // back-to-back batches must reuse the same storage (no reallocation in
  // steady state).
  for (std::size_t w = 0; w < exec.num_workers(); ++w) {
    routing::compute_routing(topo.graph, {0, routing::kNoAs,
                                          SecurityModel::kInsecure},
                             {}, exec.workspace(w));
  }
  std::vector<const std::uint8_t*> before(exec.num_workers(), nullptr);
  for (std::size_t w = 0; w < exec.num_workers(); ++w) {
    before[w] = exec.workspace(w).fixed.data();
    ASSERT_NE(before[w], nullptr);
  }
  run_batch();
  run_batch();
  for (std::size_t w = 0; w < exec.num_workers(); ++w) {
    EXPECT_EQ(exec.workspace(w).fixed.data(), before[w])
        << "workspace " << w << " reallocated between batches";
  }
}

// ---------------------------------------------------------------------------
// Sweep determinism on the executor.
// ---------------------------------------------------------------------------

class ExecutorRunnerTest : public ::testing::Test {
 protected:
  ExecutorRunnerTest() : topo_(topology::generate_small_internet(300, 17)) {
    util::Rng rng(9);
    dep_ = random_deployment(topo_.graph.num_ases(), 0.35, rng);
    attackers_ = sample_ases(non_stub_ases(topo_.graph), 6, 21);
    destinations_ = sample_ases(all_ases(topo_.graph), 6, 22);
  }

  /// Totals of one fused sweep of the fixture's attackers on `dests`.
  PairStats sweep(AnalysisSet analyses, SecurityModel model,
                  const routing::Deployment& dep, const RunnerOptions& opts,
                  const std::vector<routing::AsId>& dests) const {
    PairAnalysisConfig cfg;
    cfg.analyses = analyses;
    cfg.model = model;
    return analyze_sweep(topo_.graph, make_sweep_plan(attackers_, dests), cfg,
                         dep, opts)
        .total;
  }

  /// H_{M,D}(S) over the fixture's pairs and deployment.
  security::MetricBounds metric(SecurityModel model,
                                const RunnerOptions& opts) const {
    return sweep(Analysis::kHappiness, model, dep_, opts, destinations_)
        .happiness.bounds();
  }

  topology::GeneratedTopology topo_;
  routing::Deployment dep_;
  std::vector<routing::AsId> attackers_;
  std::vector<routing::AsId> destinations_;
};

TEST_F(ExecutorRunnerTest, MetricIsThreadCountIndependent) {
  std::vector<security::MetricBounds> results;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    BatchExecutor exec(threads);
    RunnerOptions opts;
    opts.executor = &exec;
    for (const auto model : routing::kAllSecurityModels) {
      results.push_back(metric(model, opts));
    }
  }
  // Bit-for-bit equality across thread counts, model by model.
  const std::size_t models = std::size(routing::kAllSecurityModels);
  for (std::size_t t = 1; t < 3; ++t) {
    for (std::size_t i = 0; i < models; ++i) {
      EXPECT_EQ(results[i].lower, results[t * models + i].lower);
      EXPECT_EQ(results[i].upper, results[t * models + i].upper);
    }
  }
}

TEST_F(ExecutorRunnerTest, PartitionsAreThreadCountIndependent) {
  std::vector<security::PartitionShares> results;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    BatchExecutor exec(threads);
    RunnerOptions opts;
    opts.executor = &exec;
    results.push_back(sweep(Analysis::kPartitions,
                            SecurityModel::kSecurityFirst,
                            routing::Deployment(topo_.graph.num_ases()), opts,
                            destinations_)
                          .partitions.shares());
  }
  for (std::size_t t = 1; t < results.size(); ++t) {
    EXPECT_EQ(results[0].doomed, results[t].doomed);
    EXPECT_EQ(results[0].protectable, results[t].protectable);
    EXPECT_EQ(results[0].immune, results[t].immune);
  }
}

TEST_F(ExecutorRunnerTest, BackToBackRunnerCallsReuseWorkersAndAgree) {
  BatchExecutor exec(4);
  RunnerOptions opts;
  opts.executor = &exec;
  const auto first = metric(SecurityModel::kSecurityThird, opts);
  // A different analysis in between dirties every workspace slot...
  const auto downgrades = sweep(Analysis::kDowngrades,
                                SecurityModel::kSecurityThird, dep_, opts,
                                destinations_)
                              .downgrades;
  EXPECT_GT(downgrades.sources, 0u);
  // ...and the repeated call must still reproduce the first result.
  const auto second = metric(SecurityModel::kSecurityThird, opts);
  EXPECT_EQ(first.lower, second.lower);
  EXPECT_EQ(first.upper, second.upper);
}

TEST_F(ExecutorRunnerTest, ThrowingTaskPropagatesThroughRunner) {
  BatchExecutor exec(4);
  RunnerOptions opts;
  opts.executor = &exec;
  // destination == attacker pairs are filtered out, so force a failure via
  // an out-of-range destination instead.
  const std::vector<routing::AsId> bad_dests{
      static_cast<routing::AsId>(topo_.graph.num_ases() + 7)};
  EXPECT_THROW((void)sweep(Analysis::kHappiness, SecurityModel::kSecurityThird,
                           dep_, opts, bad_dests),
               std::invalid_argument);
  // The executor survives for the next (valid) call.
  const auto ok = metric(SecurityModel::kSecurityThird, opts);
  EXPECT_LE(ok.lower, ok.upper);
}

TEST_F(ExecutorRunnerTest, SharedExecutorMatchesPrivateExecutor) {
  RunnerOptions shared_opts;  // default: BatchExecutor::shared()
  BatchExecutor exec(3);
  RunnerOptions private_opts;
  private_opts.executor = &exec;
  const auto a = metric(SecurityModel::kSecuritySecond, shared_opts);
  const auto b = metric(SecurityModel::kSecuritySecond, private_opts);
  EXPECT_EQ(a.lower, b.lower);
  EXPECT_EQ(a.upper, b.upper);
}

}  // namespace
}  // namespace sbgp::sim
