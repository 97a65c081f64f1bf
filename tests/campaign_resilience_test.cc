// Fault-tolerant campaign execution: failure isolation per (trial, spec)
// cell, determinism of injected failures across worker counts,
// checkpoint/resume byte-identity through the campaign cache, cache-write
// fault recovery, and sharded execution + merge-only assembly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/batch_executor.h"
#include "sim/campaign.h"
#include "sim/campaign_cache.h"
#include "sim/campaign_io.h"
#include "sim/fault_injection.h"
#include "topology/registry.h"

namespace sbgp::sim {
namespace {

namespace fs = std::filesystem;

using routing::SecurityModel;

/// Fresh per-test scratch directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = fs::temp_directory_path() /
            (std::string("sbgp_resilience_test_") + info->name());
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// Three trials x two specs = six cells: enough grid for partial failures
/// and a two-way shard split to be interesting, small enough to stay fast.
CampaignSpec resilience_campaign() {
  CampaignSpec campaign;
  campaign.label = "resilience-test";
  campaign.topology = "tiny-500";
  campaign.trials = 3;
  campaign.seed = 777;

  ExperimentSpec heavy;
  heavy.scenario = "t1-t2";
  heavy.model = SecurityModel::kSecurityThird;
  heavy.analyses = AnalysisSet::all();
  heavy.num_attackers = 3;
  heavy.num_destinations = 3;
  campaign.experiments.push_back(heavy);

  ExperimentSpec light;
  light.scenario = "empty";
  light.model = SecurityModel::kInsecure;
  light.analyses = Analysis::kHappiness;
  light.num_attackers = 2;
  light.num_destinations = 2;
  campaign.experiments.push_back(light);
  return campaign;
}

/// The unit-fault spec every fault test here shares. Seed 11 happens to
/// fail a strict, non-empty subset of the six cells (asserted in the
/// tests via predicted_failures, not assumed).
FaultSpec unit_faults() {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 11;
  spec.unit_rate = 0.5;
  return spec;
}

/// The (trial, spec) cells a fault spec dooms, predicted from the same
/// pure function the campaign uses — the injector is deterministic, so
/// tests can know the outcome in advance.
std::set<std::pair<std::size_t, std::size_t>> predicted_failures(
    const CampaignSpec& campaign, const FaultSpec& faults, FaultSite site) {
  const FaultInjector injector(faults);
  const std::uint64_t topo_fp =
      topology::spec_fingerprint(topology::topology_params(campaign.topology));
  std::set<std::pair<std::size_t, std::size_t>> doomed;
  for (std::size_t t = 0; t < campaign.trials; ++t) {
    for (std::size_t s = 0; s < campaign.experiments.size(); ++s) {
      const CacheKey key = {
          topo_fp, topology::trial_seed(campaign.seed, campaign.topology, t),
          spec_fingerprint(campaign.experiments[s])};
      if (injector.should_fire(site, cache_key_fingerprint(key))) {
        doomed.insert({t, s});
      }
    }
  }
  return doomed;
}

std::set<std::pair<std::size_t, std::size_t>> failed_cell_set(
    const CampaignResult& result) {
  std::set<std::pair<std::size_t, std::size_t>> cells;
  for (const auto& f : result.failed_cells) {
    cells.insert({f.trial, f.spec_index});
  }
  return cells;
}

std::string serialized(const std::vector<CampaignTrialRow>& rows) {
  std::ostringstream os;
  write_trial_rows_csv(os, rows);
  return os.str();
}

TEST(CampaignResilience, InjectedFaultsFailExactlyThePredictedCells) {
  CampaignSpec campaign = resilience_campaign();
  const CampaignResult undisturbed = run_campaign(campaign);

  campaign.fault_spec = unit_faults();
  const auto doomed = predicted_failures(campaign, campaign.fault_spec,
                                         FaultSite::kAnalysisUnit);
  // The shared fault seed must make this test non-trivial in both
  // directions; if the engine's fingerprints ever change, pick a new seed.
  ASSERT_FALSE(doomed.empty());
  ASSERT_LT(doomed.size(),
            campaign.trials * campaign.experiments.size());

  const CampaignResult faulted = run_campaign(campaign);
  EXPECT_EQ(failed_cell_set(faulted), doomed);
  for (const auto& f : faulted.failed_cells) {
    EXPECT_NE(f.error.find("injected fault"), std::string::npos) << f.error;
  }
  // Surviving rows are exactly the undisturbed rows of the other cells —
  // a failing neighbor cell never contaminates a healthy one.
  std::vector<CampaignTrialRow> expected_rows;
  for (const auto& row : undisturbed.trial_rows) {
    if (doomed.count({row.trial, row.spec_index}) == 0) {
      expected_rows.push_back(row);
    }
  }
  EXPECT_EQ(faulted.trial_rows, expected_rows);
  // failed_trials on the aggregated rows accounts for every doomed cell.
  for (const auto& row : faulted.rows) {
    std::size_t expected_failed = 0;
    for (const auto& cell : doomed) {
      if (cell.second == row.spec_index) ++expected_failed;
    }
    EXPECT_EQ(row.failed_trials, expected_failed);
    EXPECT_EQ(row.trials + row.failed_trials, campaign.trials);
  }
}

TEST(CampaignResilience, InjectedFailuresAreWorkerCountIndependent) {
  CampaignSpec campaign = resilience_campaign();
  campaign.fault_spec = unit_faults();
  std::vector<CampaignResult> results;
  for (const std::size_t threads : {1u, 4u}) {
    BatchExecutor exec(threads);
    RunnerOptions opts;
    opts.executor = &exec;
    results.push_back(run_campaign(campaign, opts));
  }
  EXPECT_EQ(results[0].failed_cells, results[1].failed_cells);
  EXPECT_EQ(results[0].trial_rows, results[1].trial_rows);
  EXPECT_EQ(results[0].rows, results[1].rows);
}

TEST(CampaignResilience, FaultedRunThenResumeMatchesUndisturbedByteForByte) {
  // The tentpole property end to end: a fault-injected run checkpoints
  // its surviving cells; an unchanged re-run with the same cache serves
  // those as hits, recomputes only the previously failed cells, and the
  // final rows serialize byte-identically to a never-disturbed run.
  const CampaignResult undisturbed = run_campaign(resilience_campaign());

  const TempDir dir;
  CampaignSpec campaign = resilience_campaign();
  campaign.cache_dir = dir.str();
  campaign.fault_spec = unit_faults();
  const auto doomed = predicted_failures(campaign, campaign.fault_spec,
                                         FaultSite::kAnalysisUnit);
  ASSERT_FALSE(doomed.empty());

  const CampaignResult faulted = run_campaign(campaign);
  EXPECT_EQ(failed_cell_set(faulted), doomed);

  campaign.fault_spec = {};
  const CampaignResult resumed = run_campaign(campaign);
  EXPECT_TRUE(resumed.failed_cells.empty());
  // Everything the faulted run completed was checkpointed and is now a
  // hit; only the doomed cells miss and recompute.
  EXPECT_EQ(resumed.cache_hits, faulted.trial_rows.size());
  EXPECT_EQ(resumed.cache_misses, doomed.size());
  EXPECT_EQ(serialized(resumed.trial_rows), serialized(undisturbed.trial_rows));
  EXPECT_EQ(resumed.rows, undisturbed.rows);
}

TEST(CampaignResilience, FailedCellsAreNeverCached) {
  const TempDir dir;
  CampaignSpec campaign = resilience_campaign();
  campaign.cache_dir = dir.str();
  campaign.fault_spec = unit_faults();
  const CampaignResult faulted = run_campaign(campaign);
  ASSERT_FALSE(faulted.failed_cells.empty());
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    if (e.path().extension() == ".csv") ++entries;
  }
  // One entry per completed cell, none for the failed ones.
  EXPECT_EQ(entries, faulted.trial_rows.size());
}

TEST(CampaignResilience, StoreFaultsLoseOnlyTheCheckpointNotTheRows) {
  const TempDir dir;
  CampaignSpec campaign = resilience_campaign();
  campaign.cache_dir = dir.str();
  campaign.fault_spec.enabled = true;
  campaign.fault_spec.seed = 11;
  campaign.fault_spec.store_rate = 1.0;

  const CampaignResult cold = run_campaign(campaign);
  // Every install failed, every row survived.
  EXPECT_TRUE(cold.failed_cells.empty());
  EXPECT_EQ(cold.cache_store_failures, cold.trial_rows.size());
  EXPECT_EQ(cold.trial_rows, run_campaign(resilience_campaign()).trial_rows);

  // Nothing was persisted, so an undisturbed re-run recomputes all cells
  // and checkpoints them this time.
  campaign.fault_spec = {};
  const CampaignResult warm = run_campaign(campaign);
  EXPECT_EQ(warm.cache_hits, 0u);
  EXPECT_EQ(warm.cache_store_failures, 0u);
  EXPECT_EQ(warm.trial_rows, cold.trial_rows);
  const CampaignResult warm2 = run_campaign(campaign);
  EXPECT_EQ(warm2.cache_hits, warm2.trial_rows.size());
}

TEST(CampaignResilience, TwoShardsPartitionTheCellsAndMergeOnlyReassembles) {
  const CampaignResult whole = run_campaign(resilience_campaign());
  const std::size_t cells = whole.trial_rows.size();

  const TempDir dir;
  std::vector<CampaignResult> shards;
  for (std::size_t i = 0; i < 2; ++i) {
    CampaignSpec campaign = resilience_campaign();
    campaign.cache_dir = dir.str();
    campaign.shard_index = i;
    campaign.shard_count = 2;
    shards.push_back(run_campaign(campaign));
    EXPECT_TRUE(shards.back().failed_cells.empty());
  }
  // The shards partition the cell set: disjoint, covering, and each
  // shard's rows are the corresponding subset of the unsharded run's.
  EXPECT_EQ(shards[0].trial_rows.size() + shards[1].trial_rows.size(), cells);
  for (const auto& shard : shards) {
    for (const auto& row : shard.trial_rows) {
      EXPECT_NE(std::find(whole.trial_rows.begin(), whole.trial_rows.end(),
                          row),
                whole.trial_rows.end());
    }
  }
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (const auto& shard : shards) {
    for (const auto& row : shard.trial_rows) {
      EXPECT_TRUE(seen.insert({row.trial, row.spec_index}).second)
          << "cell computed by both shards";
    }
  }

  // Merge-only assembly over the shared cache rebuilds the full row set
  // byte-identically to the unsharded run, without touching the engine.
  CampaignSpec merge = resilience_campaign();
  merge.cache_dir = dir.str();
  merge.merge_only = true;
  const CampaignResult merged = run_campaign(merge);
  EXPECT_TRUE(merged.failed_cells.empty());
  EXPECT_EQ(merged.cache_hits, cells);
  EXPECT_EQ(merged.cache_misses, 0u);
  EXPECT_EQ(serialized(merged.trial_rows), serialized(whole.trial_rows));
  EXPECT_EQ(merged.rows, whole.rows);
}

TEST(CampaignResilience, MergeOnlyReportsMissingCellsInsteadOfComputing) {
  const TempDir dir;
  CampaignSpec campaign = resilience_campaign();
  campaign.cache_dir = dir.str();
  campaign.merge_only = true;
  const CampaignResult empty = run_campaign(campaign);
  EXPECT_TRUE(empty.trial_rows.empty());
  const std::size_t cells = campaign.trials * campaign.experiments.size();
  ASSERT_EQ(empty.failed_cells.size(), cells);
  for (const auto& f : empty.failed_cells) {
    EXPECT_NE(f.error.find("not in cache"), std::string::npos) << f.error;
  }
}

TEST(CampaignResilience, ShardingAndMergeOnlyRequireACacheDir) {
  CampaignSpec sharded = resilience_campaign();
  sharded.shard_count = 2;
  EXPECT_THROW((void)run_campaign(sharded), std::invalid_argument);
  sharded.shard_index = 5;
  EXPECT_THROW((void)run_campaign(sharded), std::invalid_argument);

  CampaignSpec merge = resilience_campaign();
  merge.merge_only = true;
  EXPECT_THROW((void)run_campaign(merge), std::invalid_argument);
}

}  // namespace
}  // namespace sbgp::sim
