// Campaign benchmark program: runs one workload per process.
//
// Every workload is a sim::CampaignSpec run through sim::run_campaign, the
// repository's one seam, on an explicit BatchExecutor(--workers). The
// process sets the workload up several times (each set-up ends with an
// untimed warm-up iteration), then runs timed iterations for --seconds,
// streaming rows through a RowSink that timestamps them. It checks every
// row against the paper's invariants and against the warm-up's rows, and
// prints one JSON line of raw samples; benchmark/run.py turns them into
// metrics.
//
// With --trace the process then replays the first iteration layer by layer
// — topology, resolver, traffic plan, sweep, fused pair, engine, bucket
// queue, cache, row I/O, executor — calling each module's public functions
// in the nesting run_campaign uses. Spans live in memory and are written to
// <workdir>/trace-<workload>.json at exit; the per-layer metrics are self
// times and counts taken from them. The replay's per-(trial, spec)
// PairStats must equal the campaign's rows, and its per-pair layers the
// sweep's per-destination stats, so it measures the same work.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "routing/bucket_queue.h"
#include "routing/engine.h"
#include "routing/workspace.h"
#include "sim/batch_executor.h"
#include "sim/campaign.h"
#include "sim/campaign_cache.h"
#include "sim/campaign_io.h"
#include "sim/experiment.h"
#include "sim/pair_analysis.h"
#include "topology/io.h"
#include "topology/registry.h"
#include "util/hash.h"

namespace {

using namespace sbgp;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr std::uint64_t kDefaultSeed = 20130812;
// Set-ups per process: at least kMinSetups, more while they take less than
// kSetupSeconds in all; run.py reports their median as setup_s.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 15;
constexpr double kSetupSeconds = 3.0;
constexpr std::size_t kMinIterations = 3;
// Destination groups per cell the uncached pair replays (it recomputes every
// baseline, so it is the slowest layer); the others replay the whole cell.
constexpr std::size_t kUncachedGroups = 2;
constexpr std::size_t kDispatchReps = 2000;
constexpr std::size_t kMaxCheckMessages = 20;
constexpr std::string_view kFileTopology = "fullstage-64k";
constexpr std::string_view kParseTopology = "bench-trace-parse";

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- workloads ---------------------------------------------------------------

sim::ExperimentSpec make_spec(std::string scenario,
                              routing::SecurityModel model,
                              sim::AnalysisSet analyses,
                              std::size_t pairs_side,
                              sim::TrafficModel traffic = {}) {
  sim::ExperimentSpec spec;
  spec.scenario = std::move(scenario);
  spec.model = model;
  spec.analyses = analyses;
  spec.num_attackers = pairs_side;
  spec.num_destinations = pairs_side;
  spec.traffic = traffic;
  return spec;
}

/// One heavy all-analyses spec next to four light happiness-only specs on
/// tiny-500: the mixed-size campaign of bench_perf_engine's BM_Campaign.
sim::CampaignSpec mixed_campaign(std::uint64_t seed) {
  sim::CampaignSpec c;
  c.topology = "tiny-500";
  c.seed = seed;
  c.experiments.push_back(make_spec("t1-t2",
                                    routing::SecurityModel::kSecurityThird,
                                    sim::AnalysisSet::all(), 12));
  for (const char* scenario :
       {"t1-stubs", "t2-only", "top13-t2-stubs", "nonstub"}) {
    c.experiments.push_back(make_spec(scenario,
                                      routing::SecurityModel::kSecuritySecond,
                                      sim::Analysis::kHappiness, 4));
  }
  c.target_stderr = 0.001;
  c.wave_size = 4;
  c.max_trials = 48;
  return c;
}

struct Workload {
  sim::CampaignSpec campaign;
  bool fresh_cache = false;    // every iteration starts from an empty cache
  bool prefill_cache = false;  // set-up fills the cache iterations read
  std::string as_rel_path;     // file-backed topology written once
};

std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed,
                                      const fs::path& tmp) {
  Workload w;
  auto& c = w.campaign;
  if (name == "sweep-8k") {
    // Almost every attacked outcome is a seeded delta off the cached
    // per-destination baseline; topology, cache and I/O do little.
    c.topology = "bench-8k";
    c.trials = 3;
    c.seed = seed;
    c.experiments.push_back(make_spec(
        "t1-t2", routing::SecurityModel::kSecurityThird,
        sim::Analysis::kHappiness | sim::Analysis::kCollateral |
            sim::Analysis::kRootCause,
        40));
  } else if (name == "fullstage-64k") {
    // Signed origins force the full staged engine with secure stages; the
    // per-AS state outgrows L2, and set-up pays a CAIDA-format parse.
    const sim::TrafficModel gravity =
        sim::parse_traffic_model("gravity,seed=7");
    c.topology = std::string(kFileTopology);
    c.trials = 2;
    c.seed = seed;
    c.experiments.push_back(make_spec("t1-t2",
                                      routing::SecurityModel::kSecurityFirst,
                                      sim::AnalysisSet::all(), 12, gravity));
    c.experiments.push_back(make_spec(
        "t1-t2", routing::SecurityModel::kSecuritySecond,
        sim::Analysis::kHappiness | sim::Analysis::kPartitions |
            sim::Analysis::kDowngrades,
        12, gravity));
    w.as_rel_path = (tmp / "fullstage-64k.as-rel").string();
  } else if (name == "small-adaptive") {
    // Per-cell overhead dominates: trial generation, resolution, dispatch,
    // wave barriers, cache installs and row serialization.
    c = mixed_campaign(seed);
    w.fresh_cache = true;
  } else if (name == "warm-rerun") {
    // Every cell is a cache hit: the read side of small-adaptive.
    c = mixed_campaign(seed);
    c.cache_dir = (tmp / "warm-cache").string();
    w.prefill_cache = true;
  } else {
    return std::nullopt;
  }
  return w;
}

// --- checks ------------------------------------------------------------------

struct Checks {
  std::size_t run = 0;
  std::size_t failed = 0;
  std::vector<std::string> messages;  // the first few failures

  void expect(bool ok, std::string_view what) {
    ++run;
    if (!ok) {
      ++failed;
      if (messages.size() < kMaxCheckMessages) messages.emplace_back(what);
    }
  }
};

/// The paper's per-row invariants, on both the counted and the weighted
/// statistics: happy_lower <= happy_upper <= sources, and the three
/// partitions add up to all sources.
void check_row(const sim::CampaignTrialRow& tr, Checks& checks) {
  const auto happy_ok = [](const security::HappyTotals& h) {
    return h.happy_lower <= h.happy_upper && h.happy_upper <= h.sources;
  };
  const auto partition_ok = [](const security::PartitionCounts& p) {
    return p.doomed + p.protectable + p.immune == p.sources;
  };
  const auto& s = tr.row.stats;
  checks.expect(happy_ok(s.happiness) && happy_ok(s.w_happiness),
                "row invariant: happy_lower <= happy_upper <= sources");
  checks.expect(partition_ok(s.partitions) && partition_ok(s.w_partitions),
                "row invariant: doomed + protectable + immune == sources");
}

bool any_weighted(const sim::CampaignSpec& c) {
  return std::any_of(c.experiments.begin(), c.experiments.end(),
                     [](const auto& e) { return !e.traffic.is_trivial(); });
}

std::string trial_csv(const std::vector<sim::CampaignTrialRow>& rows) {
  std::ostringstream os;
  sim::write_trial_rows_csv(os, rows);
  return os.str();
}

// --- one campaign iteration --------------------------------------------------

struct Iteration {
  sim::CampaignResult result;
  double wall_s = 0.0;
  double first_row_ms = 0.0;
  std::size_t pairs = 0;  // delivered: sum of row.stats.pairs over sink rows
  std::vector<Clock::time_point> row_times;
  Clock::time_point start;
  Clock::time_point end;
  std::string streamed_csv;  // what the sink's CSV appender wrote
};

class Runner {
 public:
  Runner(Workload w, sim::BatchExecutor& exec, fs::path tmp)
      : w_(std::move(w)), tmp_(std::move(tmp)) {
    opts_.executor = &exec;
  }

  [[nodiscard]] const Workload& workload() const { return w_; }

  /// Untimed preparation a user also pays: registering the file-backed
  /// topology, filling the cache a warm re-run reads, and one warm-up
  /// iteration, whose rows become the reference every later one matches.
  double setup() {
    if (w_.prefill_cache) fs::remove_all(w_.campaign.cache_dir);
    const auto t0 = Clock::now();
    if (!w_.as_rel_path.empty()) {
      (void)topology::register_topology_file(std::string(kFileTopology),
                                             w_.as_rel_path);
    }
    if (w_.prefill_cache) (void)sim::run_campaign(w_.campaign, opts_);
    Iteration warm = run();
    const double elapsed = seconds_between(t0, Clock::now());
    if (reference_.empty()) reference_ = std::move(warm.result.trial_rows);
    return elapsed;
  }

  /// One run_campaign call, timed from the call to its return.
  Iteration run() {
    sim::CampaignSpec campaign = w_.campaign;
    if (w_.fresh_cache) {
      campaign.cache_dir =
          (tmp_ / ("cache-" + std::to_string(fresh_caches_++))).string();
    }
    // Rows stream through a CSV appender into memory: a file's page-cache
    // writeback made the timings of the millisecond-scale workloads bimodal.
    std::ostringstream csv;
    sim::TrialRowCsvAppender appender(csv, any_weighted(campaign));
    Iteration it;
    it.row_times.reserve(campaign.experiments.size() *
                         std::max(campaign.trials, campaign.max_trials));
    const sim::RowSink sink = [&](const sim::CampaignTrialRow& tr) {
      it.row_times.push_back(Clock::now());
      it.pairs += tr.row.stats.pairs;
      appender.append(tr);
    };
    it.start = Clock::now();
    it.result = sim::run_campaign(campaign, opts_, sink);
    it.end = Clock::now();
    it.wall_s = seconds_between(it.start, it.end);
    if (!it.row_times.empty()) {
      it.first_row_ms = 1e3 * seconds_between(it.start, it.row_times.front());
    }
    it.streamed_csv = csv.str();
    if (w_.fresh_cache) fs::remove_all(campaign.cache_dir);
    return it;
  }

  /// Output checks of one timed iteration; `deep` also compares the
  /// streamed CSV byte for byte with the end-of-run writer.
  void check(const Iteration& it, bool deep, Checks& checks) const {
    const auto& r = it.result;
    checks.expect(r.failed_cells.empty(), "campaign reported failed cells");
    checks.expect(r.trial_rows == reference_,
                  "rows differ from the warm-up iteration's rows");
    for (const auto& tr : r.trial_rows) check_row(tr, checks);
    const std::size_t cells = r.trial_rows.size() + r.failed_cells.size();
    if (w_.prefill_cache) {
      checks.expect(r.cache_hits == cells && r.cache_misses == 0,
                    "warm re-run missed the cache");
    }
    if (w_.fresh_cache) {
      checks.expect(r.cache_hits == 0 && r.cache_misses == cells,
                    "fresh-cache iteration hit the cache");
    }
    if (deep) {
      checks.expect(it.streamed_csv == trial_csv(r.trial_rows),
                    "streamed CSV differs from write_trial_rows_csv");
    }
  }

  [[nodiscard]] const std::vector<sim::CampaignTrialRow>& reference() const {
    return reference_;
  }

 private:
  Workload w_;
  fs::path tmp_;
  sim::RunnerOptions opts_;
  std::size_t fresh_caches_ = 0;
  std::vector<sim::CampaignTrialRow> reference_;
};

// --- tracing -----------------------------------------------------------------

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  std::size_t parent = kNoParent;
  std::size_t count = 1;  // operations the span covers
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
};

/// In-memory span recorder for the single-threaded replay. Spans nest by
/// scope: a span's parent is the innermost span open when it began.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::size_t count = 1)
        : t_(t), id_(t.open(std::move(name), count)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::size_t id_;
  };

  /// A span recorded after the fact (the traced run_campaign call and its
  /// sink rows, timestamped on worker threads), parented to `parent`.
  void add(std::string name, Clock::time_point start, Clock::time_point end,
           std::size_t parent) {
    spans_.push_back({std::move(name), start, end, parent, 1});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus its children's.
  [[nodiscard]] std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = seconds_between(spans_[i].start, spans_[i].end);
    }
    for (const Span& s : spans_) {
      if (s.parent != Span::kNoParent) {
        self[s.parent] -= seconds_between(s.start, s.end);
      }
    }
    return self;
  }

 private:
  std::size_t open(std::string name, std::size_t count) {
    const std::size_t parent = stack_.empty() ? Span::kNoParent : stack_.back();
    spans_.push_back({std::move(name), Clock::now(), {}, parent, count});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t id) {
    spans_[id].end = Clock::now();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Self time per operation of every span with this name, in seconds (0
/// when no such span ran).
double per_op_seconds(const Tracer& tracer, const std::vector<double>& self,
                      std::string_view name) {
  double total = 0.0;
  std::size_t ops = 0;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    if (tracer.spans()[i].name == name) {
      total += self[i];
      ops += tracer.spans()[i].count;
    }
  }
  return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct ReplayCounts {
  std::size_t attacked = 0;    // engine queries replayed
  std::size_t applicable = 0;  // of which routing_seed_applicable
};

/// Replays one (trial, spec) cell layer by layer and checks that every
/// layer reproduces the campaign's row.
void replay_cell(const topology::AsGraph& g, const sim::ResolvedExperiment& re,
                 const sim::CampaignTrialRow& row, const sim::CacheKey& key,
                 sim::CampaignCache& cache, sim::BatchExecutor& exec,
                 routing::EngineWorkspace& ws, Tracer& tracer,
                 ReplayCounts& counts, Checks& checks) {
  const Tracer::Scope cell(tracer, "cell");
  sim::SweepPlan plan;
  {
    const Tracer::Scope s(tracer, "traffic.plan");
    plan = sim::make_sweep_plan(re.attackers, re.destinations, re.traffic);
  }
  const std::size_t pairs = plan.num_pairs();
  const routing::Deployment& dep = *re.deployment;
  {
    const Tracer::Scope s(tracer, "sweep", pairs);
    const auto res = sim::analyze_sweep(g, plan, re.cfg, dep, {0, &exec});
    checks.expect(res.total == row.row.stats,
                  "replay: analyze_sweep differs from the campaign row");
  }
  sim::SweepResult sweep;
  {
    const Tracer::Scope s(tracer, "sweep.1w", pairs);
    sweep = sim::analyze_sweep(g, plan, re.cfg, dep, {1, &exec});
  }
  checks.expect(sweep.total == row.row.stats,
                "replay: 1-worker analyze_sweep differs from the row");

  // The fused pair on one workspace with a sweep context, in the campaign's
  // destination-major order: the work run_campaign's units do.
  const auto weight = [](const sim::DestinationGroup& grp, std::size_t k) {
    return grp.weights.empty() ? std::uint64_t{1} : grp.weights[k];
  };
  std::vector<sim::PairStats> cached(plan.groups.size());
  {
    const Tracer::Scope s(tracer, "pair.cached", pairs);
    const std::uint64_t token = sim::next_sweep_context();
    for (std::size_t gi = 0; gi < plan.groups.size(); ++gi) {
      const auto& grp = plan.groups[gi];
      for (std::size_t k = 0; k < grp.attackers.size(); ++k) {
        sim::accumulate_pair_into(g, grp.destination, grp.attackers[k],
                                  re.cfg, dep, ws, token, weight(grp, k),
                                  cached[gi]);
      }
    }
  }
  checks.expect(cached == sweep.per_destination,
                "replay: per-pair PairStats differ from the sweep's");

  routing::RoutingOutcome base;
  routing::RoutingOutcome full;
  routing::RoutingOutcome seeded;
  routing::BucketQueue queue;
  std::vector<std::pair<std::uint32_t, topology::AsId>> keys;
  for (std::size_t gi = 0; gi < plan.groups.size(); ++gi) {
    const auto& grp = plan.groups[gi];
    const topology::AsId d = grp.destination;
    if (gi < kUncachedGroups) {
      sim::PairStats uncached;
      {
        const Tracer::Scope s(tracer, "pair.uncached", grp.attackers.size());
        for (std::size_t k = 0; k < grp.attackers.size(); ++k) {
          sim::accumulate_pair_into(g, d, grp.attackers[k], re.cfg, dep, ws,
                                    0, weight(grp, k), uncached);
        }
      }
      checks.expect(uncached == cached[gi],
                    "replay: uncached pair differs from the cached pair");
    }

    {
      const Tracer::Scope s(tracer, "engine.baseline");
      routing::compute_routing_into(g, {d, routing::kNoAs, re.cfg.model}, dep,
                                    ws, base);
    }
    // Bucket queue: push then pop the baseline's (length, AsId) keys.
    keys.clear();
    for (topology::AsId v = 0; v < g.num_ases(); ++v) {
      if (base.has_route(v)) keys.emplace_back(base.length(v), v);
    }
    bool ordered = true;
    {
      const Tracer::Scope s(tracer, "queue", 2 * keys.size());
      queue.clear();
      for (const auto& [len, v] : keys) queue.push(len, v);
      std::pair<std::uint32_t, topology::AsId> prev{0, 0};
      while (!queue.empty()) {
        const auto item = queue.pop();
        ordered = ordered && prev <= item;
        prev = item;
      }
    }
    checks.expect(ordered, "replay: bucket queue popped out of order");

    for (const topology::AsId m : grp.attackers) {
      const routing::Query q{d, m, re.cfg.model};
      {
        const Tracer::Scope s(tracer, "engine.full");
        routing::compute_routing_into(g, q, dep, ws, full);
      }
      ++counts.attacked;
      if (!routing::routing_seed_applicable(q, dep)) continue;
      ++counts.applicable;
      {
        const Tracer::Scope s(tracer, "engine.seeded");
        routing::compute_routing_seeded_into(g, q, dep, ws, base, seeded);
      }
      checks.expect(seeded == full,
                    "replay: seeded outcome differs from the full engine");
    }
  }

  {
    const Tracer::Scope s(tracer, "cache.store");
    cache.store(key, row);
  }
  {
    const Tracer::Scope s(tracer, "cache.lookup_hit");
    const auto hit = cache.lookup(key);
    checks.expect(hit.has_value() && *hit == row.row,
                  "replay: cache lookup did not return the stored row");
  }
  {
    sim::CacheKey absent = key;
    absent.spec_fingerprint ^= 1;
    const Tracer::Scope s(tracer, "cache.lookup_miss");
    checks.expect(!cache.lookup(absent).has_value(),
                  "replay: cache served an absent key");
  }
}

using Layers = std::vector<std::pair<std::string, double>>;

/// Traced run: one campaign call with timestamped sink rows, then the
/// layer-by-layer replay of the reference (first) iteration.
Layers trace_workload(Runner& runner, sim::BatchExecutor& exec,
                      std::size_t workers, double untraced_wall_s,
                      const fs::path& tmp, Tracer& tracer, Checks& checks) {
  const auto& campaign = runner.workload().campaign;
  const auto& rows = runner.reference();

  const Iteration traced = runner.run();
  const std::size_t campaign_span = tracer.spans().size();
  tracer.add("campaign", traced.start, traced.end, Span::kNoParent);
  for (const auto t : traced.row_times) {
    tracer.add("campaign.row", t, t, campaign_span);
  }
  runner.check(traced, false, checks);
  const double campaign_s = traced.wall_s;

  const fs::path cache_dir = tmp / "trace-cache";
  fs::remove_all(cache_dir);
  sim::CampaignCache cache(cache_dir.string());
  routing::EngineWorkspace ws;
  ReplayCounts counts;
  const std::uint64_t topo_fp =
      topology::topology_fingerprint(campaign.topology);

  std::map<std::size_t, std::vector<const sim::CampaignTrialRow*>> by_trial;
  for (const auto& r : rows) by_trial[r.trial].push_back(&r);
  {
    const Tracer::Scope replay(tracer, "replay");
    for (const auto& [trial, trial_rows] : by_trial) {
      const Tracer::Scope t(tracer, "trial");
      topology::GeneratedTopology topo;
      {
        const Tracer::Scope s(tracer, "topology.generate");
        topo =
            topology::generate_trial(campaign.topology, campaign.seed, trial);
      }
      topology::TierInfo tiers;
      {
        const Tracer::Scope s(tracer, "topology.classify");
        tiers = topo.classify();
      }
      if (trial == by_trial.begin()->first) {
        // The as-rel parse every file-backed run pays, on this workload's
        // first graph (writing the file is scaffolding, not traced).
        const fs::path path = tmp / "trace-parse.as-rel";
        {
          std::ofstream out(path, std::ios::binary | std::ios::trunc);
          topology::write_as_rel(out, topo.graph);
        }
        const Tracer::Scope s(tracer, "topology.parse");
        (void)topology::register_topology_file(std::string(kParseTopology),
                                               path.string());
      }
      sim::ExperimentResolver resolver(topo.graph, tiers, topo.sample_salt);
      for (const sim::CampaignTrialRow* row : trial_rows) {
        const auto& spec = campaign.experiments[row->spec_index];
        sim::ResolvedExperiment re;
        {
          const Tracer::Scope s(tracer, "experiment.resolve");
          re = resolver.resolve(spec);
        }
        const sim::CacheKey key{topo_fp, row->topology_seed,
                                sim::spec_fingerprint(spec)};
        replay_cell(topo.graph, re, *row, key, cache, exec, ws, tracer, counts,
                    checks);
      }
    }

    const bool weighted = any_weighted(campaign);
    std::ostringstream os;
    {
      const Tracer::Scope s(tracer, "io.append", rows.size());
      sim::TrialRowCsvAppender appender(os, weighted);
      for (const auto& r : rows) appender.append(r);
    }
    {
      const std::string text = os.str();
      const Tracer::Scope s(tracer, "io.read", rows.size());
      std::istringstream is(text);
      checks.expect(sim::read_trial_rows_csv(is) == rows,
                    "replay: CSV round trip changed the rows");
    }
    {
      const Tracer::Scope s(tracer, "io.aggregate", rows.size());
      const auto agg = sim::aggregate_trial_rows(rows);
      checks.expect(agg.size() == traced.result.rows.size(),
                    "replay: aggregation produced a different spec count");
    }
    {
      const Tracer::Scope s(tracer, "executor.dispatch", kDispatchReps);
      for (std::size_t i = 0; i < kDispatchReps; ++i) {
        exec.run(workers, [](std::size_t, std::size_t) {}, workers);
      }
    }
  }
  fs::remove_all(cache_dir);

  const auto self = tracer.self_seconds();
  const auto us = [&](std::string_view name) {
    return 1e6 * per_op_seconds(tracer, self, name);
  };
  std::vector<double> gaps;
  for (std::size_t i = 1; i < traced.row_times.size(); ++i) {
    gaps.push_back(
        1e3 * seconds_between(traced.row_times[i - 1], traced.row_times[i]));
  }
  std::vector<std::size_t> trials;
  for (const auto& r : traced.result.trial_rows) trials.push_back(r.trial);
  std::sort(trials.begin(), trials.end());
  trials.erase(std::unique(trials.begin(), trials.end()), trials.end());
  const std::size_t lookups =
      traced.result.cache_hits + traced.result.cache_misses;

  const double seed_ratio =
      counts.attacked == 0 ? 0.0
                           : static_cast<double>(counts.applicable) /
                                 static_cast<double>(counts.attacked);
  // Engine cost per attacked query on the path a cached pair takes: the
  // seeded delta where it applies, the full engine elsewhere.
  const double engine_path_us = seed_ratio * us("engine.seeded") +
                                (1.0 - seed_ratio) * us("engine.full");
  const double campaign_us_per_pair =
      traced.pairs == 0 ? 0.0
                        : 1e6 * campaign_s / static_cast<double>(traced.pairs);
  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };

  return {
      {"topology.generate_ms", 1e-3 * us("topology.generate")},
      {"topology.classify_ms", 1e-3 * us("topology.classify")},
      {"topology.parse_ms", 1e-3 * us("topology.parse")},
      {"experiment.resolve_ms", 1e-3 * us("experiment.resolve")},
      {"traffic.plan_us", us("traffic.plan")},
      {"engine.baseline_us", us("engine.baseline")},
      {"engine.full_us", us("engine.full")},
      {"engine.seeded_us", us("engine.seeded")},
      {"engine.seed_applicable_ratio", seed_ratio},
      {"queue.ns_per_op", 1e3 * us("queue")},
      {"pair.cached_us", us("pair.cached")},
      {"pair.uncached_us", us("pair.uncached")},
      {"sweep.us_per_pair_1w", us("sweep.1w")},
      {"sweep.us_per_pair", us("sweep")},
      {"executor.scaling_eff",
       ratio(us("sweep.1w"), static_cast<double>(workers) * us("sweep"))},
      {"executor.dispatch_us", us("executor.dispatch")},
      {"campaign.us_per_pair", campaign_us_per_pair},
      {"campaign.cells",
       static_cast<double>(traced.result.trial_rows.size() +
                           traced.result.failed_cells.size())},
      {"campaign.realized_trials", static_cast<double>(trials.size())},
      {"campaign.row_gap_ms_p50", median(gaps)},
      {"cache.lookup_hit_us", us("cache.lookup_hit")},
      {"cache.lookup_miss_us", us("cache.lookup_miss")},
      {"cache.store_ms", 1e-3 * us("cache.store")},
      {"cache.hit_ratio",
       ratio(static_cast<double>(traced.result.cache_hits),
             static_cast<double>(lookups))},
      {"io.append_us", us("io.append")},
      {"io.read_us", us("io.read")},
      {"io.aggregate_us", us("io.aggregate")},
      {"ladder.pair_over_engine", ratio(us("pair.cached"), engine_path_us)},
      {"ladder.sweep_over_pair", ratio(us("sweep.1w"), us("pair.cached"))},
      {"ladder.campaign_over_sweep",
       ratio(campaign_us_per_pair, us("sweep"))},
      {"trace_overhead_frac", campaign_s / untraced_wall_s - 1.0},
  };
}

// --- output ------------------------------------------------------------------

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T>
std::string json_array(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_number(static_cast<double>(values[i]));
  }
  return out + "]";
}

void write_trace(const fs::path& path, const Tracer& tracer,
                 const std::string& workload) {
  std::ofstream out(path, std::ios::trunc);
  const auto origin =
      tracer.spans().empty() ? Clock::time_point{} : tracer.spans()[0].start;
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  };
  out << "{\"workload\": " << json_string(workload) << ", \"spans\": [";
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i
        << ", \"name\": " << json_string(s.name) << ", \"start_ns\": "
        << ns(s.start) << ", \"end_ns\": " << ns(s.end) << ", \"parent\": "
        << (s.parent == Span::kNoParent ? std::string("null")
                                        : std::to_string(s.parent))
        << ", \"count\": " << s.count
        << ", \"workload\": " << json_string(workload)
        << ", \"iteration\": 0}";
  }
  out << "\n]}\n";
}

std::string compiler_version() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Peak resident set of this process image, in MiB: Linux's VmHWM. Not
/// getrusage's ru_maxrss, which keeps the high-water mark of the process
/// that forked us across exec, so a small workload would report its
/// parent's (the Python runner's) footprint.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// --- main --------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  std::size_t workers = 0;
  std::string workdir;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: sbgp_bench --workload NAME --workers W --workdir DIR\n"
               "                  [--seed N] [--seconds S] [--trace]\n"
               "workloads: sweep-8k, fullstage-64k, small-adaptive, "
               "warm-rerun\n",
               error.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--trace") {
      o.trace = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(arg));
    const std::string value(argv[++i]);
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--workers") {
        o.workers = std::stoul(value);
      } else if (arg == "--workdir") {
        o.workdir = value;
      } else {
        usage("unknown argument " + std::string(arg));
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + std::string(arg));
    }
  }
  if (o.workload.empty() || o.workdir.empty()) {
    usage("--workload and --workdir are required");
  }
  if (o.workers == 0) usage("--workers must be >= 1");
  if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
  return o;
}

int run(const Options& o) {
  const fs::path workdir(o.workdir);
  const fs::path tmp = workdir / "tmp";
  fs::remove_all(tmp);
  fs::create_directories(tmp);

  auto workload = make_workload(o.workload, o.seed, tmp);
  if (!workload) usage("unknown workload '" + o.workload + "'");
  if (!workload->as_rel_path.empty()) {
    // Scaffolding, excluded from set-up: a synthetic graph in the CAIDA
    // serial-2 format, parsed by the same code a real snapshot goes through.
    auto params = topology::scaled_params(64000);
    params.seed = o.seed;
    const auto topo = topology::generate_internet(params);
    std::ofstream out(workload->as_rel_path,
                      std::ios::binary | std::ios::trunc);
    topology::write_as_rel(out, topo.graph);
  }

  sim::BatchExecutor exec(o.workers);
  Runner runner(std::move(*workload), exec, tmp);
  Checks checks;

  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setup_s.size() < kMinSetups ||
         (setup_total < kSetupSeconds && setup_s.size() < kMaxSetups)) {
    setup_s.push_back(runner.setup());
    setup_total += setup_s.back();
  }

  std::vector<double> wall_s;
  std::vector<double> first_row_ms;
  std::vector<std::size_t> pairs;
  std::size_t attempted = 0;
  std::size_t failed_cells = 0;
  const auto timed_start = Clock::now();
  while (wall_s.size() < kMinIterations ||
         seconds_between(timed_start, Clock::now()) < o.seconds) {
    const Iteration it = runner.run();
    runner.check(it, wall_s.empty(), checks);
    wall_s.push_back(it.wall_s);
    first_row_ms.push_back(it.first_row_ms);
    pairs.push_back(it.pairs);
    attempted += it.result.trial_rows.size() + it.result.failed_cells.size();
    failed_cells += it.result.failed_cells.size();
  }

  Layers layers;
  if (o.trace) {
    Tracer tracer;
    layers = trace_workload(runner, exec, o.workers, median(wall_s), tmp,
                            tracer, checks);
    write_trace(workdir / ("trace-" + o.workload + ".json"), tracer,
                o.workload);
  }
  const double rss_mb = peak_rss_mb();
  const std::string csv = trial_csv(runner.reference());
  fs::remove_all(tmp);

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(util::fnv1a(csv)));
  std::string out = "{";
  out += "\"workload\": " + json_string(o.workload);
  out += ", \"seed\": " + std::to_string(o.seed);
  out += ", \"workers\": " + std::to_string(o.workers);
  out += ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"compiler\": " + json_string(compiler_version());
  out += ", \"build_type\": " + json_string(SBGP_BENCH_BUILD_TYPE);
  out += ", \"setup_s\": " + json_array(setup_s);
  out += ", \"wall_s\": " + json_array(wall_s);
  out += ", \"first_row_ms\": " + json_array(first_row_ms);
  out += ", \"pairs\": " + json_array(pairs);
  out += ", \"cells_attempted\": " + std::to_string(attempted);
  out += ", \"cells_failed\": " + std::to_string(failed_cells);
  out += ", \"rows\": " + std::to_string(runner.reference().size());
  out += ", \"peak_rss_mb\": " + json_number(rss_mb);
  out += ", \"digest\": " + json_string(digest);
  out += ", \"checks_run\": " + std::to_string(checks.run);
  out += ", \"checks_failed\": " + std::to_string(checks.failed);
  out += ", \"check_messages\": [";
  for (std::size_t i = 0; i < checks.messages.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(checks.messages[i]);
  }
  out += "], \"layers\": {";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(layers[i].first) + ": " +
           json_number(layers[i].second);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return checks.failed == 0 && failed_cells == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena: with glibc's per-thread arenas, peak RSS depended on
  // which worker happened to allocate what and varied by 20% between
  // identical runs. The engine's hot path does not allocate.
  mallopt(M_ARENA_MAX, 1);
  const Options options = parse_args(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
