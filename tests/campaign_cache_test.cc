// Campaign result cache tests: fingerprint stability and per-field
// sensitivity, store/lookup round trips, corrupted-entry rejection, and
// the end-to-end warm-run contract (all hits, zero engine work, rows
// byte-identical to the cold run).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

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
            (std::string("sbgp_cache_test_") + info->name());
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// The two-spec mini-campaign the cache tests run end to end.
CampaignSpec cached_campaign(const std::string& cache_dir) {
  CampaignSpec campaign;
  campaign.label = "cache-test";
  campaign.topology = "tiny-500";
  campaign.trials = 2;
  campaign.seed = 321;
  campaign.cache_dir = cache_dir;

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

/// A synthetic row for direct store/lookup tests (no engine involved).
CampaignTrialRow synthetic_row(std::uint64_t topology_seed) {
  CampaignTrialRow r;
  r.topology = "tiny-500";
  r.trial = 1;
  r.topology_seed = topology_seed;
  r.spec_index = 2;
  r.row.label = "synthetic";
  r.row.step_label = "step";
  r.row.model = SecurityModel::kSecuritySecond;
  r.row.stats.pairs = 12;
  r.row.stats.happiness.happy_lower = 7;
  r.row.stats.happiness.happy_upper = 9;
  r.row.stats.happiness.sources = 11;
  return r;
}

TEST(SpecFingerprint, GeneratorParamsSensitiveToEveryField) {
  const topology::GeneratorParams base;
  const std::uint64_t fp = topology::spec_fingerprint(base);
  EXPECT_EQ(fp, topology::spec_fingerprint(base)) << "must be deterministic";

  using Mutator = std::function<void(topology::GeneratorParams&)>;
  const std::vector<std::pair<const char*, Mutator>> mutators = {
      {"num_ases", [](auto& p) { p.num_ases += 1; }},
      {"num_tier1", [](auto& p) { p.num_tier1 += 1; }},
      {"num_tier2", [](auto& p) { p.num_tier2 += 1; }},
      {"num_tier3", [](auto& p) { p.num_tier3 += 1; }},
      {"num_content_providers", [](auto& p) { p.num_content_providers += 1; }},
      {"stub_fraction", [](auto& p) { p.stub_fraction += 0.01; }},
      {"stub_x_fraction", [](auto& p) { p.stub_x_fraction += 0.01; }},
      {"tier1_stub_fraction", [](auto& p) { p.tier1_stub_fraction += 0.01; }},
      {"t2_peer_prob", [](auto& p) { p.t2_peer_prob += 0.01; }},
      {"t3_peer_prob", [](auto& p) { p.t3_peer_prob += 0.01; }},
      {"t2_t3_peer_prob", [](auto& p) { p.t2_t3_peer_prob += 0.01; }},
      {"smdg_mean_peers", [](auto& p) { p.smdg_mean_peers += 0.01; }},
      {"cp_t2_peer_prob", [](auto& p) { p.cp_t2_peer_prob += 0.01; }},
      {"cp_t3_peer_prob", [](auto& p) { p.cp_t3_peer_prob += 0.01; }},
      {"cp_cp_peer_prob", [](auto& p) { p.cp_cp_peer_prob += 0.01; }},
      {"seed", [](auto& p) { p.seed += 1; }},
  };
  for (const auto& [name, mutate] : mutators) {
    topology::GeneratorParams changed = base;
    mutate(changed);
    EXPECT_NE(topology::spec_fingerprint(changed), fp)
        << "fingerprint insensitive to field " << name;
  }
}

TEST(SpecFingerprint, ExperimentSpecSensitiveToEveryField) {
  const ExperimentSpec base;
  const std::uint64_t fp = spec_fingerprint(base);
  EXPECT_EQ(fp, spec_fingerprint(base)) << "must be deterministic";

  using Mutator = std::function<void(ExperimentSpec&)>;
  const std::vector<std::pair<const char*, Mutator>> mutators = {
      {"label", [](auto& s) { s.label = "renamed"; }},
      {"scenario", [](auto& s) { s.scenario = "t2-only"; }},
      {"rollout_step", [](auto& s) { s.rollout_step = 0; }},
      {"stub_mode",
       [](auto& s) { s.stub_mode = deployment::StubMode::kSimplex; }},
      {"model", [](auto& s) { s.model = SecurityModel::kSecurityFirst; }},
      {"lp", [](auto& s) { s.lp = routing::LocalPrefPolicy::lp_k(2); }},
      {"lp.k", [](auto& s) { s.lp = routing::LocalPrefPolicy::lp_k(3); }},
      {"analyses", [](auto& s) { s.analyses |= Analysis::kDowngrades; }},
      {"hysteresis", [](auto& s) { s.hysteresis = true; }},
      {"attackers", [](auto& s) { s.attackers = {4, 5}; }},
      {"destinations", [](auto& s) { s.destinations = {6}; }},
      {"num_attackers", [](auto& s) { s.num_attackers += 1; }},
      {"num_destinations", [](auto& s) { s.num_destinations += 1; }},
      {"sample_seed", [](auto& s) { s.sample_seed += 1; }},
      {"traffic.kind",
       [](auto& s) { s.traffic.kind = TrafficModel::Kind::kGravity; }},
      {"traffic.seed", [](auto& s) { s.traffic.seed += 1; }},
      {"traffic.max_mass", [](auto& s) { s.traffic.max_mass *= 2; }},
      {"traffic.scale", [](auto& s) { s.traffic.scale += 1; }},
  };
  for (const auto& [name, mutate] : mutators) {
    ExperimentSpec changed = base;
    mutate(changed);
    EXPECT_NE(spec_fingerprint(changed), fp)
        << "fingerprint insensitive to field " << name;
  }

  // The AS-list hashing keeps boundary placement unambiguous.
  ExperimentSpec split_a = base;
  split_a.attackers = {1, 2};
  split_a.destinations = {3};
  ExperimentSpec split_b = base;
  split_b.attackers = {1};
  split_b.destinations = {2, 3};
  EXPECT_NE(spec_fingerprint(split_a), spec_fingerprint(split_b));
}

TEST(SpecFingerprint, CampaignSpecSensitiveToEveryField) {
  CampaignSpec base;
  base.experiments.emplace_back();
  const std::uint64_t fp = spec_fingerprint(base);
  EXPECT_EQ(fp, spec_fingerprint(base)) << "must be deterministic";

  using Mutator = std::function<void(CampaignSpec&)>;
  const std::vector<std::pair<const char*, Mutator>> mutators = {
      {"label", [](auto& c) { c.label = "renamed"; }},
      {"topology", [](auto& c) { c.topology = "tiny-500"; }},
      {"trials", [](auto& c) { c.trials += 1; }},
      {"seed", [](auto& c) { c.seed += 1; }},
      {"experiments.size", [](auto& c) { c.experiments.emplace_back(); }},
      {"experiments[0]",
       [](auto& c) { c.experiments[0].sample_seed += 1; }},
      {"target_stderr", [](auto& c) { c.target_stderr = 0.25; }},
      {"wave_size", [](auto& c) { c.wave_size = 2; }},
      {"max_trials", [](auto& c) { c.max_trials = 64; }},
  };
  for (const auto& [name, mutate] : mutators) {
    CampaignSpec changed = base;
    mutate(changed);
    EXPECT_NE(spec_fingerprint(changed), fp)
        << "fingerprint insensitive to field " << name;
  }
}

TEST(CampaignCache, StoreLookupRoundTrip) {
  const TempDir dir;
  CampaignCache cache(dir.str());
  const CacheKey key{111, 222, 333};
  EXPECT_EQ(cache.lookup(key), std::nullopt);
  EXPECT_EQ(cache.stats().misses, 1u);

  const CampaignTrialRow row = synthetic_row(/*topology_seed=*/222);
  cache.store(key, row);
  EXPECT_EQ(cache.stats().stores, 1u);

  const auto found = cache.lookup(key);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, row.row);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Any key component change is a different entry.
  EXPECT_EQ(cache.lookup({112, 222, 333}), std::nullopt);
  EXPECT_EQ(cache.lookup({111, 223, 333}), std::nullopt);
  EXPECT_EQ(cache.lookup({111, 222, 334}), std::nullopt);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(CampaignCache, RejectsCorruptedEntries) {
  const TempDir dir;
  CampaignCache cache(dir.str());
  const CacheKey key{1, 2, 3};
  cache.store(key, synthetic_row(/*topology_seed=*/2));

  // Garbage content: unparseable.
  {
    std::ofstream out(dir.path() / cache_entry_name(key));
    out << "not,a,campaign,row\n";
  }
  EXPECT_EQ(cache.lookup(key), std::nullopt);
  EXPECT_EQ(cache.stats().corrupt, 1u);

  // Valid file whose row count is wrong.
  {
    std::ofstream out(dir.path() / cache_entry_name(key));
    write_trial_rows_csv(out, {synthetic_row(2), synthetic_row(2)});
  }
  EXPECT_EQ(cache.lookup(key), std::nullopt);
  EXPECT_EQ(cache.stats().corrupt, 2u);

  // Valid single row that disagrees with the key's trial seed (a file
  // renamed or copied under the wrong key).
  {
    std::ofstream out(dir.path() / cache_entry_name(key));
    write_trial_rows_csv(out, {synthetic_row(/*topology_seed=*/999)});
  }
  EXPECT_EQ(cache.lookup(key), std::nullopt);
  EXPECT_EQ(cache.stats().corrupt, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(CampaignCache, WarmRunServesEveryCellAndMatchesColdBytes) {
  const TempDir dir;
  const CampaignSpec campaign = cached_campaign(dir.str());
  const std::size_t cells = campaign.trials * campaign.experiments.size();

  const CampaignResult cold = run_campaign(campaign);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, cells);

  const CampaignResult warm = run_campaign(campaign);
  EXPECT_EQ(warm.cache_hits, cells);
  EXPECT_EQ(warm.cache_misses, 0u);

  ASSERT_EQ(warm.trial_rows.size(), cold.trial_rows.size());
  EXPECT_EQ(warm.trial_rows, cold.trial_rows);
  EXPECT_EQ(warm.rows, cold.rows);

  const auto serialize = [](const CampaignResult& r) {
    std::ostringstream csv;
    write_trial_rows_csv(csv, r.trial_rows);
    return csv.str();
  };
  EXPECT_EQ(serialize(warm), serialize(cold));

  // An uncached run of the same campaign agrees too: the cache changes
  // where rows come from, never what they hold.
  CampaignSpec uncached = campaign;
  uncached.cache_dir.clear();
  const CampaignResult direct = run_campaign(uncached);
  EXPECT_EQ(direct.trial_rows, cold.trial_rows);
  EXPECT_EQ(direct.cache_hits, 0u);
  EXPECT_EQ(direct.cache_misses, 0u);
}

TEST(CampaignCache, AnySpecOrSeedChangeMisses) {
  const TempDir dir;
  const CampaignSpec campaign = cached_campaign(dir.str());
  const std::size_t cells = campaign.trials * campaign.experiments.size();
  (void)run_campaign(campaign);

  // A different master seed derives different trial seeds: all cells miss.
  CampaignSpec reseeded = campaign;
  reseeded.seed += 1;
  const CampaignResult r1 = run_campaign(reseeded);
  EXPECT_EQ(r1.cache_hits, 0u);
  EXPECT_EQ(r1.cache_misses, cells);

  // A changed spec field misses for that spec's cells only.
  CampaignSpec respecced = campaign;
  respecced.experiments[0].sample_seed += 1;
  const CampaignResult r2 = run_campaign(respecced);
  EXPECT_EQ(r2.cache_hits, campaign.trials);    // untouched spec 1
  EXPECT_EQ(r2.cache_misses, campaign.trials);  // re-sampled spec 0

  // More trials of the same campaign reuse every already-stored cell.
  CampaignSpec extended = campaign;
  extended.trials += 1;
  const CampaignResult r3 = run_campaign(extended);
  EXPECT_EQ(r3.cache_hits, cells);
  EXPECT_EQ(r3.cache_misses, extended.experiments.size());
}

TEST(CampaignCache, AdaptiveRunsWarmFromTheirOwnCellsOnly) {
  // Adaptive runs mix target_stderr/wave_size/max_trials into their cell
  // keys: an identical adaptive re-run is fully warm and byte-identical,
  // but neither a fixed run nor an adaptive run with a different stopping
  // config can be served those cells — a cached row must never cross
  // adaptive configurations, whose schedules (and thus aggregate meaning)
  // differ.
  const TempDir dir;
  CampaignSpec adaptive = cached_campaign(dir.str());
  adaptive.target_stderr = 0.5;
  adaptive.wave_size = 2;

  const CampaignResult cold = run_campaign(adaptive);
  EXPECT_EQ(cold.cache_hits, 0u);
  const std::size_t scheduled = cold.cache_misses;
  EXPECT_EQ(scheduled, cold.trial_rows.size());

  const CampaignResult warm = run_campaign(adaptive);
  EXPECT_EQ(warm.cache_hits, scheduled);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.trial_rows, cold.trial_rows);
  EXPECT_EQ(warm.rows, cold.rows);

  // A fixed run over the same cache dir keeps its historical keys and
  // sees none of the adaptive cells.
  const CampaignSpec fixed = cached_campaign(dir.str());
  const CampaignResult fixed_run = run_campaign(fixed);
  EXPECT_EQ(fixed_run.cache_hits, 0u);

  // A different stopping target is a different adaptive config: cold too.
  CampaignSpec retargeted = adaptive;
  retargeted.target_stderr = 0.9;
  const CampaignResult other = run_campaign(retargeted);
  EXPECT_EQ(other.cache_hits, 0u);
}

TEST(CampaignCache, InstallLeavesEntryNextToItsLockFile) {
  const TempDir dir;
  CampaignCache cache(dir.str());
  const CacheKey key{111, 222, 333};
  cache.store(key, synthetic_row(/*topology_seed=*/222));
  const std::string entry = cache_entry_name(key);
  EXPECT_TRUE(fs::exists(dir.path() / entry));
  EXPECT_TRUE(fs::exists(dir.path() / (entry + ".lock")));
  // No temp file survives a successful install.
  for (const auto& e : fs::directory_iterator(dir.path())) {
    EXPECT_EQ(e.path().filename().string().find(".tmp"), std::string::npos)
        << e.path();
  }
}

TEST(CampaignCache, EntryCutInsideItsLastFieldIsCorrupt) {
  // A torn copy (the EXDEV fallback is not atomic) can end inside the last
  // counter and still parse: "14743\n" cut by two bytes reads "1474".
  const TempDir dir;
  CampaignCache cache(dir.str());
  const CacheKey key{111, 222, 333};
  CampaignTrialRow row = synthetic_row(/*topology_seed=*/222);
  row.row.stats.root_causes.happy_deployed = 14743;
  row.row.stats.w_root_causes.happy_deployed = 14743;
  cache.store(key, row);
  const fs::path entry = dir.path() / cache_entry_name(key);
  fs::resize_file(entry, fs::file_size(entry) - 2);

  EXPECT_EQ(cache.lookup(key), std::nullopt);
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // The next install does not trust the torn entry: it replaces it.
  cache.store(key, row);
  EXPECT_EQ(cache.stats().stores, 2u);
  EXPECT_EQ(cache.stats().already_present, 0u);
  const auto found = cache.lookup(key);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, row.row);
}

TEST(CampaignCache, SecondInstallOfAValidEntryIsSkipped) {
  const TempDir dir;
  CampaignCache cache(dir.str());
  const CacheKey key{111, 222, 333};
  const CampaignTrialRow row = synthetic_row(/*topology_seed=*/222);
  cache.store(key, row);
  // A concurrent writer (another shard) beat us to it: skip, count, keep
  // the existing bytes.
  cache.store(key, row);
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_EQ(cache.stats().already_present, 1u);
  ASSERT_TRUE(cache.lookup(key).has_value());
}

TEST(CampaignCache, InstallReplacesACorruptExistingEntry) {
  const TempDir dir;
  CampaignCache cache(dir.str());
  const CacheKey key{111, 222, 333};
  const CampaignTrialRow row = synthetic_row(/*topology_seed=*/222);
  {
    std::ofstream out(dir.path() / cache_entry_name(key));
    out << "torn copy\n";
  }
  // The "already present" skip must not trust a file that would be
  // rejected at lookup; the install replaces it.
  cache.store(key, row);
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_EQ(cache.stats().already_present, 0u);
  const auto found = cache.lookup(key);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, row.row);
}

TEST(CampaignCache, InjectedStoreFaultThrowsAndPersistsNothing) {
  const TempDir dir;
  CampaignCache cache(dir.str());
  FaultSpec spec;
  spec.enabled = true;
  spec.store_rate = 1.0;
  const FaultInjector injector(spec);
  cache.set_fault_injector(&injector);
  const CacheKey key{111, 222, 333};
  EXPECT_THROW(cache.store(key, synthetic_row(222)), FaultInjected);
  EXPECT_EQ(cache.stats().stores, 0u);
  EXPECT_FALSE(fs::exists(dir.path() / cache_entry_name(key)));
  // Detached, the same store succeeds.
  cache.set_fault_injector(nullptr);
  cache.store(key, synthetic_row(222));
  EXPECT_EQ(cache.stats().stores, 1u);
}

TEST(CampaignCache, KeyFingerprintIsStableAndSensitive) {
  const CacheKey key{111, 222, 333};
  const std::uint64_t fp = cache_key_fingerprint(key);
  EXPECT_EQ(fp, cache_key_fingerprint(key));
  EXPECT_NE(fp, cache_key_fingerprint({112, 222, 333}));
  EXPECT_NE(fp, cache_key_fingerprint({111, 223, 333}));
  EXPECT_NE(fp, cache_key_fingerprint({111, 222, 334}));
}

TEST(CampaignCache, EntryNameFormatIsPinned) {
  // Existing caches hit only while this spelling holds byte for byte.
  EXPECT_EQ(cache_entry_name({0x1, 0xfedcba9876543210ull, 0xabc}),
            "t0000000000000001-sfedcba9876543210-e0000000000000abc.csv");
}

TEST(CampaignCache, CorruptedEntryIsRecomputedEndToEnd) {
  const TempDir dir;
  const CampaignSpec campaign = cached_campaign(dir.str());
  const std::size_t cells = campaign.trials * campaign.experiments.size();
  const CampaignResult cold = run_campaign(campaign);

  // Truncate one stored entry mid-row.
  std::vector<fs::path> entries;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    // Entries live next to their .lock advisory files; only the .csv
    // files are rows.
    if (e.path().extension() == ".csv") entries.push_back(e.path());
  }
  ASSERT_EQ(entries.size(), cells);
  std::sort(entries.begin(), entries.end());
  {
    std::ifstream in(entries.front());
    std::string header;
    std::getline(in, header);
    std::string row;
    std::getline(in, row);
    in.close();
    std::ofstream out(entries.front());
    out << header << '\n' << row.substr(0, row.size() / 2) << '\n';
  }

  const CampaignResult warm = run_campaign(campaign);
  EXPECT_EQ(warm.cache_hits, cells - 1);
  EXPECT_EQ(warm.cache_misses, 1u);
  EXPECT_EQ(warm.trial_rows, cold.trial_rows);

  // The recomputation re-stored the entry; the next run is fully warm.
  const CampaignResult warm2 = run_campaign(campaign);
  EXPECT_EQ(warm2.cache_hits, cells);
  EXPECT_EQ(warm2.trial_rows, cold.trial_rows);
}

TEST(CampaignCache, FileBackedTopologyKeysOnContentHash) {
  // A file-backed topology's cache keys hang off the file's *content*
  // fingerprint: a warm re-run of the unchanged file is fully served, a
  // one-byte edit — even inside a comment — invalidates every cell, and
  // reverting the edit brings the original cells back.
  const TempDir dir;
  const fs::path data = dir.path() / "mini.txt";
  fs::create_directories(dir.path());
  std::ifstream fixture(std::string(SBGP_TEST_DATA_DIR) + "/mini-caida.txt",
                        std::ios::binary);
  ASSERT_TRUE(fixture);
  std::ostringstream buffer;
  buffer << fixture.rdbuf();
  const std::string original = buffer.str();
  ASSERT_FALSE(original.empty());
  const auto write_file = [&](const std::string& content) {
    std::ofstream out(data, std::ios::binary);
    out << content;
  };
  write_file(original);

  const std::uint64_t fp =
      topology::register_topology_file("cache-test-file", data.string());
  EXPECT_EQ(fp, topology::topology_fingerprint("cache-test-file"));

  CampaignSpec campaign = cached_campaign((dir.path() / "cache").string());
  campaign.topology = "cache-test-file";
  for (auto& spec : campaign.experiments) {
    spec.num_attackers = 2;
    spec.num_destinations = 2;
  }
  const std::size_t cells = campaign.trials * campaign.experiments.size();

  const CampaignResult cold = run_campaign(campaign);
  EXPECT_EQ(cold.cache_misses, cells);
  const CampaignResult warm = run_campaign(campaign);
  EXPECT_EQ(warm.cache_hits, cells);
  EXPECT_EQ(warm.trial_rows, cold.trial_rows);

  // One byte appended to a comment: same graph, different content hash.
  write_file(original + "# x\n");
  const std::uint64_t edited_fp =
      topology::register_topology_file("cache-test-file", data.string());
  EXPECT_NE(edited_fp, fp);
  const CampaignResult edited = run_campaign(campaign);
  EXPECT_EQ(edited.cache_hits, 0u);
  EXPECT_EQ(edited.cache_misses, cells);

  // Reverting restores the fingerprint, so the original cells hit again.
  write_file(original);
  EXPECT_EQ(topology::register_topology_file("cache-test-file", data.string()),
            fp);
  const CampaignResult reverted = run_campaign(campaign);
  EXPECT_EQ(reverted.cache_hits, cells);
  EXPECT_EQ(reverted.trial_rows, cold.trial_rows);
}

}  // namespace
}  // namespace sbgp::sim
