// Performance micro-benchmarks (google-benchmark).
//
// The paper's methodology hinges on computing routing outcomes for huge
// numbers of (attacker, destination, deployment) triples (Appendix B/H
// used MPI on a BlueGene). These benchmarks document the per-outcome cost
// of the staged engine and its supporting analyses as a function of graph
// size, plus the thread-scaling of the metric estimator.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "deployment/scenario.h"
#include "routing/baseline.h"
#include "routing/engine.h"
#include "routing/reach.h"
#include "routing/workspace.h"
#include "security/happiness.h"
#include "security/partition.h"
#include "sim/batch_executor.h"
#include "sim/campaign.h"
#include "sim/experiment.h"
#include "sim/pair_analysis.h"
#include "sim/runner.h"
#include "topology/generator.h"
#include "topology/registry.h"

namespace {

using namespace sbgp;

const topology::GeneratedTopology& topo_for(std::int64_t n) {
  static auto t1k = topology::generate_small_internet(1000, 1);
  static auto t4k = [] {
    topology::GeneratorParams p;
    p.num_ases = 4000;
    return topology::generate_internet(p);
  }();
  static auto t10k = [] {
    topology::GeneratorParams p;
    p.num_ases = 10'000;
    return topology::generate_internet(p);
  }();
  if (n <= 1000) return t1k;
  if (n <= 4000) return t4k;
  return t10k;
}

/// Registry topologies (fixed params + seed): the graphs the perf
/// trajectory in BENCH_engine.json is tracked on across revisions.
const topology::GeneratedTopology& registry_topo(std::int64_t n) {
  static auto tiny = topology::generate_trial("tiny-500", 20130812, 0);
  static auto small = topology::generate_trial("small-2k", 20130812, 0);
  static auto bench = topology::generate_trial("bench-8k", 20130812, 0);
  if (n <= 500) return tiny;
  if (n <= 2000) return small;
  return bench;
}

routing::Deployment half_secure(const topology::AsGraph& g) {
  routing::Deployment dep(g.num_ases());
  for (topology::AsId v = 0; v < g.num_ases(); v += 2) dep.secure.insert(v);
  return dep;
}

void BM_RoutingOutcome(benchmark::State& state) {
  const auto& topo = topo_for(state.range(0));
  const auto dep = half_secure(topo.graph);
  const auto model = static_cast<routing::SecurityModel>(state.range(1));
  topology::AsId d = 0;
  const auto n = static_cast<topology::AsId>(topo.graph.num_ases());
  for (auto _ : state) {
    const routing::Query q{d, static_cast<topology::AsId>((d + 7) % n), model};
    benchmark::DoNotOptimize(routing::compute_routing(topo.graph, q, dep));
    d = (d + 13) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RoutingOutcome)
    ->ArgsProduct({{1000, 4000, 10000}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMillisecond);

void BM_PerceivableDistances(benchmark::State& state) {
  const auto& topo = topo_for(state.range(0));
  topology::AsId d = 0;
  const auto n = static_cast<topology::AsId>(topo.graph.num_ases());
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::perceivable_distances(topo.graph, d));
    d = (d + 13) % n;
  }
}
BENCHMARK(BM_PerceivableDistances)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_PartitionClassification(benchmark::State& state) {
  const auto& topo = topo_for(state.range(0));
  const auto model = static_cast<routing::SecurityModel>(state.range(1));
  topology::AsId d = 0;
  const auto n = static_cast<topology::AsId>(topo.graph.num_ases());
  for (auto _ : state) {
    benchmark::DoNotOptimize(security::classify_sources(
        topo.graph, d, static_cast<topology::AsId>((d + 7) % n), model));
    d = (d + 13) % n;
  }
}
BENCHMARK(BM_PartitionClassification)
    ->ArgsProduct({{10000}, {1, 2, 3}})
    ->Unit(benchmark::kMillisecond);

void BM_LpkBaseline(benchmark::State& state) {
  const auto& topo = topo_for(10000);
  topology::AsId d = 0;
  const auto n = static_cast<topology::AsId>(topo.graph.num_ases());
  const auto lp = routing::LocalPrefPolicy::lp_k(
      static_cast<std::uint16_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::compute_baseline(
        topo.graph, d, static_cast<topology::AsId>((d + 7) % n), lp));
    d = (d + 13) % n;
  }
}
BENCHMARK(BM_LpkBaseline)->Arg(2)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_RoutingOutcomeWorkspace(benchmark::State& state) {
  // Same query stream as BM_RoutingOutcome, but into a long-lived
  // workspace: the steady-state (allocation-free) per-outcome cost.
  const auto& topo = topo_for(state.range(0));
  const auto dep = half_secure(topo.graph);
  const auto model = static_cast<routing::SecurityModel>(state.range(1));
  routing::EngineWorkspace ws(topo.graph.num_ases());
  topology::AsId d = 0;
  const auto n = static_cast<topology::AsId>(topo.graph.num_ases());
  for (auto _ : state) {
    const routing::Query q{d, static_cast<topology::AsId>((d + 7) % n), model};
    benchmark::DoNotOptimize(routing::compute_routing(topo.graph, q, dep, ws));
    d = (d + 13) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RoutingOutcomeWorkspace)
    ->ArgsProduct({{1000, 4000, 10000}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMillisecond);

void BM_MetricEstimation(benchmark::State& state) {
  // End-to-end cost of one H_{M,D}(S) estimate with the given thread count,
  // on the persistent BatchExecutor (workers and workspaces reused across
  // iterations — the repeated-runner-call steady state). Args: (graph size,
  // threads).
  const auto& topo = topo_for(state.range(0));
  const auto dep = half_secure(topo.graph);
  const auto attackers =
      sim::sample_ases(sim::non_stub_ases(topo.graph), 12, 3);
  const auto dests = sim::sample_ases(sim::all_ases(topo.graph), 12, 4);
  sim::BatchExecutor executor(static_cast<std::size_t>(state.range(1)));
  sim::RunnerOptions opts;
  opts.executor = &executor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::estimate_metric(topo.graph, attackers, dests,
                             routing::SecurityModel::kSecurityThird, dep,
                             opts));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * attackers.size() *
                                dests.size()));
}
BENCHMARK(BM_MetricEstimation)
    ->ArgsProduct({{1000, 10000}, {1, 4, 16}})
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

// --- Fused vs. separate analyses -------------------------------------------
//
// The Table 3 / Figure 16 access pattern: several statistics of the same
// (attacker, destination, deployment, model) pairs. The fused pipeline
// computes the shared routing outcomes once per pair; the separate path
// calls one single-analysis runner per statistic, recomputing them.
// Engine computations per pair: 3 analyses (downgrades + collateral + root
// causes) cost 8 separate vs. 3 fused; all 5 cost 10 vs. 3. Compare
// items_per_second at equal args. Args: (number of analyses: 3 or 5,
// registry topology size: 500 or 8000).

sim::PairAnalysisConfig fused_config(std::int64_t analyses) {
  sim::PairAnalysisConfig cfg;
  cfg.analyses = sim::Analysis::kDowngrades | sim::Analysis::kCollateral |
                 sim::Analysis::kRootCause;
  if (analyses >= 5) {
    cfg.analyses |= sim::Analysis::kHappiness | sim::Analysis::kPartitions;
  }
  cfg.model = routing::SecurityModel::kSecurityThird;
  return cfg;
}

void BM_AnalysesFused(benchmark::State& state) {
  const auto& topo = registry_topo(state.range(1));
  const auto dep = half_secure(topo.graph);
  const auto attackers = sim::sample_ases(sim::non_stub_ases(topo.graph), 8, 3);
  const auto dests = sim::sample_ases(sim::all_ases(topo.graph), 8, 4);
  const auto cfg = fused_config(state.range(0));
  sim::BatchExecutor executor;
  sim::RunnerOptions opts;
  opts.executor = &executor;
  const auto plan = sim::make_sweep_plan(attackers, dests);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::analyze_sweep(topo.graph, plan, cfg, dep, opts));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * attackers.size() *
                                dests.size()));
}
BENCHMARK(BM_AnalysesFused)->ArgsProduct({{3, 5}, {500, 8000}})
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

void BM_AnalysesSeparate(benchmark::State& state) {
  const auto& topo = registry_topo(state.range(1));
  const auto dep = half_secure(topo.graph);
  const auto attackers = sim::sample_ases(sim::non_stub_ases(topo.graph), 8, 3);
  const auto dests = sim::sample_ases(sim::all_ases(topo.graph), 8, 4);
  const auto model = routing::SecurityModel::kSecurityThird;
  const bool all_five = state.range(0) >= 5;
  sim::BatchExecutor executor;
  sim::RunnerOptions opts;
  opts.executor = &executor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::total_downgrades(topo.graph, attackers, dests, model, dep, opts));
    benchmark::DoNotOptimize(
        sim::total_collateral(topo.graph, attackers, dests, model, dep, opts));
    benchmark::DoNotOptimize(sim::total_root_causes(topo.graph, attackers,
                                                    dests, model, dep, opts));
    if (all_five) {
      benchmark::DoNotOptimize(
          sim::estimate_metric(topo.graph, attackers, dests, model, dep, opts));
      benchmark::DoNotOptimize(sim::average_partitions(
          topo.graph, attackers, dests, model,
          routing::LocalPrefPolicy::standard(), opts));
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * attackers.size() *
                                dests.size()));
}
BENCHMARK(BM_AnalysesSeparate)->ArgsProduct({{3, 5}, {500, 8000}})
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

// --- Deployment membership (util::AsSet) -----------------------------------
//
// Deployment::validates() is the innermost branch of every candidate scan
// the engine performs, so AsSet::contains must stay a flat bitmap word
// test. The linear id stream mirrors the engine's access pattern (neighbor
// lists are sorted); items_per_second = membership tests per second.
// Args: (registry topology size).
void BM_AsSetContains(benchmark::State& state) {
  const auto& topo = registry_topo(state.range(0));
  const auto dep = half_secure(topo.graph);
  const auto n = static_cast<std::uint32_t>(topo.graph.num_ases());
  for (auto _ : state) {
    std::size_t members = 0;
    for (std::uint32_t id = 0; id < n; ++id) {
      members += dep.secure.contains(id) ? 1u : 0u;
    }
    benchmark::DoNotOptimize(members);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AsSetContains)->Arg(500)->Arg(8000)
    ->Unit(benchmark::kMicrosecond);

// --- Campaign scheduling vs. the sequential per-spec loop ------------------
//
// A mixed-size multi-trial study: one heavy all-analyses spec next to
// several light single-analysis specs, swept over freshly generated
// topologies. The sequential path is what stacking run_experiment_suite
// calls gives you: topology generation serializes between trials and every
// spec is its own executor batch, so short specs wait at the barrier of
// long ones and workers idle at every spec tail. run_campaign flattens all
// (trial, spec, pair) work into one submission: topology generation for
// trial t+1 overlaps pair analysis of trial t and spec boundaries vanish.
// Compare items_per_second (pairs/sec) at equal args. Args: (threads).

sim::CampaignSpec perf_campaign() {
  sim::CampaignSpec campaign;
  campaign.topology = "tiny-500";
  campaign.trials = 3;
  campaign.seed = 5;
  sim::ExperimentSpec heavy;
  heavy.scenario = "t1-t2";
  heavy.model = routing::SecurityModel::kSecurityThird;
  heavy.analyses = sim::AnalysisSet::all();
  heavy.num_attackers = 12;
  heavy.num_destinations = 12;
  campaign.experiments.push_back(heavy);
  const char* light_scenarios[] = {"t1-stubs", "t2-only", "top13-t2-stubs",
                                   "nonstub"};
  for (const char* scenario : light_scenarios) {
    sim::ExperimentSpec light;
    light.scenario = scenario;
    light.model = routing::SecurityModel::kSecuritySecond;
    light.analyses = sim::Analysis::kHappiness;
    light.num_attackers = 4;
    light.num_destinations = 4;
    campaign.experiments.push_back(light);
  }
  return campaign;
}

std::int64_t campaign_pairs(const sim::CampaignSpec& c) {
  std::size_t pairs = 0;
  for (const auto& spec : c.experiments) {
    pairs += spec.num_attackers * spec.num_destinations;
  }
  return static_cast<std::int64_t>(pairs * c.trials);
}

void BM_Campaign(benchmark::State& state) {
  const auto campaign = perf_campaign();
  sim::BatchExecutor executor(static_cast<std::size_t>(state.range(0)));
  sim::RunnerOptions opts;
  opts.executor = &executor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_campaign(campaign, opts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          campaign_pairs(campaign));
}
BENCHMARK(BM_Campaign)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

void BM_SuiteSequential(benchmark::State& state) {
  const auto campaign = perf_campaign();
  sim::BatchExecutor executor(static_cast<std::size_t>(state.range(0)));
  sim::RunnerOptions opts;
  opts.executor = &executor;
  for (auto _ : state) {
    for (std::size_t t = 0; t < campaign.trials; ++t) {
      const auto topo =
          topology::generate_trial(campaign.topology, campaign.seed, t);
      const auto tiers = topo.classify();
      benchmark::DoNotOptimize(sim::run_experiment_suite(
          topo.graph, tiers, campaign.experiments, opts));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          campaign_pairs(campaign));
}
BENCHMARK(BM_SuiteSequential)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

// --- Adaptive sequential stopping vs. the fixed trial budget ---------------
//
// The same mixed-size campaign asked for a 12-trial budget, fixed vs.
// adaptive (wave size 2, loose stderr target, so every spec converges
// after the first wave). BOTH variants report the full requested budget's
// pair count as items processed — deliberately, even though the adaptive
// run computes only a fraction of it: items_per_second then reads as
// "requested statistical work delivered per second of engine time", so the
// adaptive row's higher rate IS the convergence-bounded engine-unit
// reduction, measured in the same unit as the fixed row. Args: (threads).

sim::CampaignSpec budget_campaign() {
  auto campaign = perf_campaign();
  campaign.trials = 12;
  return campaign;
}

void BM_CampaignFixed(benchmark::State& state) {
  const auto campaign = budget_campaign();
  sim::BatchExecutor executor(static_cast<std::size_t>(state.range(0)));
  sim::RunnerOptions opts;
  opts.executor = &executor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_campaign(campaign, opts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          campaign_pairs(campaign));
}
BENCHMARK(BM_CampaignFixed)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

void BM_CampaignAdaptive(benchmark::State& state) {
  auto campaign = budget_campaign();
  campaign.target_stderr = 0.5;  // loose: every spec converges at wave 1
  campaign.wave_size = 2;
  sim::BatchExecutor executor(static_cast<std::size_t>(state.range(0)));
  sim::RunnerOptions opts;
  opts.executor = &executor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_campaign(campaign, opts));
  }
  // Requested-budget pairs, NOT computed pairs — see the comment above.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          campaign_pairs(campaign));
}
BENCHMARK(BM_CampaignAdaptive)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

// --- Destination-grouped incremental sweep vs. flat full recompute ---------
//
// analyze_sweep schedules one destination with a chunk of up to 32 of its
// attackers per unit: each worker computes the normal outcome once per
// destination and every attacked outcome of the chunk in one lane pass
// (routing/lanes.h). The flat path runs pairs in arbitrary order, each as
// a group of one with nothing cached (sweep context 0). Identical
// executor, analyses and pair set — compare items_per_second (pairs/sec)
// directly.
// Args: (registry topology size: 500, 2000 or 8000).

struct SweepBenchSetup {
  const topology::GeneratedTopology& topo;
  routing::Deployment dep;
  std::vector<topology::AsId> attackers;
  std::vector<topology::AsId> dests;
  sim::PairAnalysisConfig cfg;
};

SweepBenchSetup sweep_setup(std::int64_t n) {
  const auto& topo = registry_topo(n);
  sim::PairAnalysisConfig cfg;
  // Three analyses wanting attacked + normal + attacked-under-empty: every
  // outcome the destination grouping can amortize.
  cfg.analyses = sim::Analysis::kHappiness | sim::Analysis::kCollateral |
                 sim::Analysis::kRootCause;
  cfg.model = routing::SecurityModel::kSecurityThird;
  return {topo, half_secure(topo.graph),
          sim::sample_ases(sim::non_stub_ases(topo.graph), 10, 3),
          sim::sample_ases(sim::all_ases(topo.graph), 8, 4), cfg};
}

void BM_SweepIncremental(benchmark::State& state) {
  const auto setup = sweep_setup(state.range(0));
  const auto plan = sim::make_sweep_plan(setup.attackers, setup.dests);
  sim::BatchExecutor executor;
  sim::RunnerOptions opts;
  opts.executor = &executor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::analyze_sweep(setup.topo.graph, plan, setup.cfg, setup.dep,
                           opts));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * plan.num_pairs()));
}
BENCHMARK(BM_SweepIncremental)->Arg(500)->Arg(8000)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

void BM_SweepFullRecompute(benchmark::State& state) {
  const auto setup = sweep_setup(state.range(0));
  const auto pairs = sim::make_attack_pairs(setup.attackers, setup.dests);
  sim::BatchExecutor executor;
  const std::size_t workers = executor.effective_workers(0);
  std::vector<sim::PairStats> accs(workers);
  for (auto _ : state) {
    for (auto& acc : accs) acc = sim::PairStats{};
    executor.run(pairs.size(), [&](std::size_t worker, std::size_t index) {
      const auto& p = pairs[index];
      sim::accumulate_pair_into(setup.topo.graph, p.destination, p.attacker,
                                setup.cfg, setup.dep,
                                executor.workspace(worker), accs[worker]);
    });
    sim::PairStats total;
    for (const auto& acc : accs) total += acc;
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * pairs.size()));
}
BENCHMARK(BM_SweepFullRecompute)->Arg(500)->Arg(8000)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

// Repeated *small* runner calls — the deployment-rollout access pattern
// (bench_fig7/fig8: one estimate per rollout step) on the persistent
// executor, where workers and workspaces survive across calls. Args:
// (threads).
void BM_RepeatedSmallBatchesExecutor(benchmark::State& state) {
  const auto& topo = topo_for(1000);
  const auto dep = half_secure(topo.graph);
  const auto attackers = sim::sample_ases(sim::non_stub_ases(topo.graph), 4, 3);
  const auto dests = sim::sample_ases(sim::all_ases(topo.graph), 4, 4);
  sim::BatchExecutor executor(static_cast<std::size_t>(state.range(0)));
  sim::RunnerOptions opts;
  opts.executor = &executor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::estimate_metric(topo.graph, attackers, dests,
                             routing::SecurityModel::kSecuritySecond, dep,
                             opts));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * attackers.size() *
                                dests.size()));
}
BENCHMARK(BM_RepeatedSmallBatchesExecutor)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

// --- Machine-readable perf trajectory (BENCH_engine.json) ------------------
//
// Every run appends nothing and overwrites one stable JSON file mapping
// benchmark name -> pairs/sec (items_per_second) alongside the revision it
// was measured at, so CI can archive the numbers next to the campaign rows
// and future PRs can diff pairs/sec across revisions. Graph size and
// worker count are part of the benchmark name (trailing args); the
// default-executor worker count is recorded once in the header.
//
//   --bench_json=PATH   output path (default BENCH_engine.json; empty
//                       disables the report)
//
// The revision comes from $SBGP_GIT_REV, falling back to $GITHUB_SHA
// (set by CI), then "unknown".

class JsonTrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    double items_per_second = 0.0;
    double real_time_ms = 0.0;
    double cpu_time_ms = 0.0;
    std::int64_t iterations = 0;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Entry e;
      e.name = run.benchmark_name();
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) e.items_per_second = it->second;
      e.real_time_ms = run.GetAdjustedRealTime();
      e.cpu_time_ms = run.GetAdjustedCPUTime();
      e.iterations = static_cast<std::int64_t>(run.iterations);
      entries_.push_back(std::move(e));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void write_trajectory(const std::string& path,
                      const std::vector<JsonTrajectoryReporter::Entry>& es) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "bench_perf_engine: cannot write %s\n", path.c_str());
    return;
  }
  const char* rev = std::getenv("SBGP_GIT_REV");
  if (rev == nullptr || *rev == '\0') rev = std::getenv("GITHUB_SHA");
  if (rev == nullptr || *rev == '\0') rev = "unknown";
  f << "{\n";
  f << "  \"schema\": 1,\n";
  f << "  \"git_rev\": \"" << json_escape(rev) << "\",\n";
  f << "  \"workers\": " << sim::default_threads() << ",\n";
  f << "  \"benchmarks\": [";
  f.precision(17);
  for (std::size_t i = 0; i < es.size(); ++i) {
    f << (i == 0 ? "\n" : ",\n");
    f << "    {\"name\": \"" << json_escape(es[i].name) << "\", "
      << "\"items_per_second\": " << es[i].items_per_second << ", "
      << "\"real_time_ms\": " << es[i].real_time_ms << ", "
      << "\"cpu_time_ms\": " << es[i].cpu_time_ms << ", "
      << "\"iterations\": " << es[i].iterations << "}";
  }
  f << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_engine.json";
  // Strip --bench_json before google-benchmark sees (and rejects) it.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    constexpr std::string_view kFlag = "--bench_json=";
    if (arg.substr(0, kFlag.size()) == kFlag) {
      json_path.assign(arg.substr(kFlag.size()));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) write_trajectory(json_path, reporter.entries());
  return 0;
}
