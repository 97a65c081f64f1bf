// Figures 9, 10 & 12: per-destination improvements for secure destinations.
//
// For three deployments — (9) all T1s + T2s + their stubs, (10) all T2s +
// their stubs, (12) all non-stubs — the change in H_{M',d}(S) is computed
// for every sampled secure destination d in S and reported as the sorted
// sequence's deciles, plus the paper's headline statistics:
//   * sec 1st gives secure destinations ~96.8-97.9% happy sources (Fig 9);
//   * most destinations that gain < 4% under sec 3rd also gain < 4% under
//     sec 2nd (paper: 93%) — LP-based downgrades defeat both models alike;
//   * Tier 1 destinations gain > 40% under sec 1st but < 3% under 2nd/3rd;
//   * without the T1s (Figs 10, 12) the sec 2nd vs sec 1st gap narrows.
#include <algorithm>
#include <iostream>

#include "support.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace sbgp;

struct Series {
  std::vector<double> delta_lower;  // per destination
  std::vector<double> happy_lower;  // H_{M',d}(S) itself
};

/// H_{M',d}(S).lower for every d in `dests`. The suite returns totals
/// only, so the per-destination series comes straight from analyze_sweep.
std::vector<double> happy_lower_per_destination(
    const bench::BenchContext& ctx, const routing::Deployment& dep,
    const std::vector<routing::AsId>& dests, routing::SecurityModel model) {
  sim::PairAnalysisConfig cfg;
  cfg.analyses = sim::Analysis::kHappiness;
  cfg.model = model;
  const auto result = sim::analyze_sweep(
      ctx.graph(), sim::make_sweep_plan(ctx.attackers, dests), cfg, dep);
  std::vector<double> out;
  for (const auto& stats : result.per_destination) {
    out.push_back(stats.happiness.bounds().lower);
  }
  return out;
}

/// The series of every model against the S = emptyset baseline over the
/// same destinations, which is computed once.
std::vector<Series> per_destination_series(
    const bench::BenchContext& ctx, const routing::Deployment& dep,
    const std::vector<routing::AsId>& dests) {
  const auto before = happy_lower_per_destination(
      ctx, routing::Deployment(ctx.graph().num_ases()), dests,
      routing::SecurityModel::kInsecure);
  std::vector<Series> out;
  for (const auto model : routing::kAllSecurityModels) {
    Series s;
    s.happy_lower = happy_lower_per_destination(ctx, dep, dests, model);
    for (std::size_t i = 0; i < dests.size(); ++i) {
      s.delta_lower.push_back(s.happy_lower[i] - before[i]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

void run_scenario(const bench::BenchContext& ctx, const std::string& name,
                  const std::string& scenario, bool includes_t1s) {
  const auto steps = deployment::build_scenario(
      scenario, ctx.graph(), ctx.tiers, deployment::StubMode::kFullSbgp);
  const auto& dep = steps.back().deployment;
  std::cout << "\n--- " << name << " (" << dep.secure.count()
            << " secure ASes) ---\n";
  const auto dests = sim::sample_ases(dep.secure.members(),
                                      std::max<std::size_t>(ctx.sample * 4, 96),
                                      bench::kSampleSeed + 31);

  util::Table table({"model", "p10", "p50", "p90", "mean dH", "mean H(S)"});
  const auto series = per_destination_series(ctx, dep, dests);
  for (std::size_t idx = 0; idx < series.size(); ++idx) {
    const auto model = routing::kAllSecurityModels[idx];
    const auto& s = series[idx];
    table.add_row({bench::short_model(model),
                   util::pct(util::quantile(s.delta_lower, 0.1)),
                   util::pct(util::quantile(s.delta_lower, 0.5)),
                   util::pct(util::quantile(s.delta_lower, 0.9)),
                   util::pct(util::summarize(s.delta_lower).mean),
                   util::pct(util::summarize(s.happy_lower).mean)});
  }
  table.print(std::cout);

  // Paper statistic: of destinations gaining < 4% under sec 3rd, how many
  // also gain < 4% under sec 2nd?
  std::size_t third_small = 0;
  std::size_t both_small = 0;
  for (std::size_t i = 0; i < dests.size(); ++i) {
    if (series[2].delta_lower[i] < 0.04) {
      ++third_small;
      if (series[1].delta_lower[i] < 0.04) ++both_small;
    }
  }
  if (third_small > 0) {
    std::cout << "of destinations with <4% gain under sec 3rd, "
              << util::pct(static_cast<double>(both_small) /
                           static_cast<double>(third_small))
              << " also gain <4% under sec 2nd (paper: 93%)\n";
  }

  if (includes_t1s) {
    // Tier 1 destinations specifically.
    const auto t1_series = per_destination_series(
        ctx, dep, ctx.tiers.bucket(topology::Tier::kTier1));
    util::Table t1_table({"model", "mean dH at T1 destinations"});
    for (std::size_t idx = 0; idx < t1_series.size(); ++idx) {
      t1_table.add_row(
          {bench::short_model(routing::kAllSecurityModels[idx]),
           util::pct(util::summarize(t1_series[idx].delta_lower).mean)});
    }
    std::cout << '\n';
    t1_table.print(std::cout);
    std::cout << "paper: T1 destinations gain >40% under sec 1st but <3% "
                 "under sec 2nd/3rd\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = bench::make_context(argc, argv);
  bench::print_banner(
      ctx, "Figures 9/10/12: per-secure-destination improvement sequences",
      "sec 1st protects secure destinations almost fully (96.8-97.9% happy); "
      "sec 2nd helps only some; the 2nd-vs-1st gap narrows without T1s");

  run_scenario(ctx, "Figure 9: S = T1s + T2s + stubs", "t1-t2",
               /*includes_t1s=*/true);
  run_scenario(ctx, "Figure 10: S = T2s + stubs", "t2-only",
               /*includes_t1s=*/false);
  run_scenario(ctx, "Figure 12: S = all non-stubs", "nonstub",
               /*includes_t1s=*/false);
  return 0;
}
