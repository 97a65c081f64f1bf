// Figure 16: root-cause decomposition of metric changes (Section 6.2).
//
// S = the last Tier 1 + Tier 2 rollout step (~50% of the graph). For the
// security 3rd and 1st models (2nd resembles 3rd plus a sliver of
// collateral damage), the change in the metric decomposes into:
//   + secure routes protecting previously-unhappy sources
//   + collateral benefits (insecure sources saved by others' security)
//   - collateral damages (sec 1st/2nd only)
// with downgraded and "wasted" secure routes explaining why sec 3rd gains
// so little. Paper: under sec 3rd most secure routes downgrade or are
// wasted; under sec 1st downgrades vanish and the metric jumps.
//
// Run as a multi-topology campaign: every cell is mean ± stderr across
// `trials` (argv[3]) freshly generated topologies, so the reproduced shape
// comes with its spread instead of resting on one sampled graph.
#include <array>
#include <iostream>

#include "support.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sbgp;
  const auto args = bench::parse_args(argc, argv);

  // Declarative campaign: one root-cause spec per model on the last T1+T2
  // rollout step, evaluated in a single fused pass per (trial, pair). No
  // context graph is built — every topology the statistics touch is a
  // campaign trial.
  auto campaign = bench::base_campaign(args);
  bench::print_campaign_banner(
      campaign, args.sample,
      "Figure 16: why the metric moves (root causes; S = T1+T2+stubs)",
      "sec 3rd: downgrades + wasted secure routes eat the gains; sec 1st: "
      "no downgrades, large gain; collateral damages stay rare");
  for (const auto model : routing::kAllSecurityModels) {
    sim::ExperimentSpec spec;
    spec.scenario = "t1-t2";
    spec.model = model;
    spec.analyses = sim::Analysis::kRootCause;
    spec.num_attackers = args.sample;
    spec.num_destinations = args.sample;
    spec.sample_seed = bench::kSampleSeed;
    campaign.experiments.push_back(std::move(spec));
  }
  const auto result = sim::run_campaign(campaign);
  std::cout << "(cells: mean ±stderr across trials)\n\n";

  util::Table table({"model", "secure routes (normal)", "downgraded",
                     "wasted on happy", "protecting", "collateral benefit",
                     "collateral damage", "metric change"});
  for (std::size_t s = 0; s < campaign.experiments.size(); ++s) {
    // The Figure 16 bars are fractions of each trial's source population;
    // accumulate them per trial from the raw counters.
    std::array<util::Accumulator, 7> acc;
    for (const auto& tr : result.trial_rows) {
      if (tr.spec_index != s) continue;
      const auto& rc = tr.row.stats.root_causes;
      const double n = static_cast<double>(rc.sources);
      acc[0].add(static_cast<double>(rc.secure_normal) / n);
      acc[1].add(static_cast<double>(rc.downgraded) / n);
      acc[2].add(static_cast<double>(rc.secure_wasted) / n);
      acc[3].add(static_cast<double>(rc.secure_protecting) / n);
      acc[4].add(static_cast<double>(rc.collateral_benefits) / n);
      acc[5].add(static_cast<double>(rc.collateral_damages) / n);
      acc[6].add(rc.metric_change());
    }
    table.add_row({bench::short_model(campaign.experiments[s].model),
                   bench::fmt_mean_stderr(acc[0]),
                   bench::fmt_mean_stderr(acc[1]),
                   bench::fmt_mean_stderr(acc[2]),
                   bench::fmt_mean_stderr(acc[3]),
                   bench::fmt_mean_stderr(acc[4]),
                   bench::fmt_mean_stderr(acc[5]),
                   bench::fmt_mean_stderr(acc[6])});
  }
  table.print(std::cout);
  std::cout
      << "\nidentity check: metric change ~= protecting + benefits - damages\n"
      << "(the \"wasted\" and \"downgraded\" rows explain the missing "
         "potential; paper Figure 16 shows sec 3rd left, sec 1st right)\n";
  return 0;
}
