// Table 3: which phenomena occur in which security model.
//
//   phenomenon                  sec 1st   sec 2nd   sec 3rd
//   protocol downgrade attacks     no       yes       yes
//   collateral benefits            yes      yes       yes
//   collateral damages             yes      yes       no
//
// Demonstrated two ways: (1) the paper's worked examples (Figures 2, 14,
// 15, 17 reconstructions) and (2) an aggregate multi-topology campaign:
// random attacker/destination pairs under the last T1+T2 rollout step,
// swept over `trials` (argv[3]) freshly generated topologies, reported as
// mean ± stderr across trials.
#include <iostream>

#include "routing/engine.h"
#include "security/case_studies.h"
#include "security/collateral.h"
#include "security/downgrade.h"
#include "support.h"
#include "util/table.h"

namespace {

using namespace sbgp;
using routing::SecurityModel;

const char* yn(bool b) { return b ? "yes" : "no"; }

}  // namespace

int main(int argc, char** argv) {
  // The worked examples run on the paper's hand-built case-study graphs
  // and the aggregate part on campaign-generated topologies, so no
  // context graph is needed at all.
  const auto args = bench::parse_args(argc, argv, 8000, 24);
  auto campaign = bench::base_campaign(args);
  bench::print_campaign_banner(
      campaign, args.sample, "Table 3: phenomena by security model",
      "downgrades: 2nd+3rd only; benefits: all; damages: 1st+2nd only");

  // --- (1) the paper's worked examples --------------------------------
  {
    std::cout << "\n--- worked examples (Figures 2, 14, 15, 17) ---\n";
    util::Table table({"scenario", "model", "phenomenon observed"});
    const auto fig2 = security::cases::Figure2::graph();
    for (const auto model : routing::kAllSecurityModels) {
      const auto s = security::analyze_downgrades(
          fig2, security::cases::Figure2::kLevel3,
          security::cases::Figure2::kAttacker, model,
          security::cases::Figure2::deployment());
      table.add_row({"Fig 2 protocol downgrade", bench::short_model(model),
                     yn(s.downgraded > 0)});
    }
    const auto dmg = security::cases::CollateralDamage::graph();
    for (const auto model : routing::kAllSecurityModels) {
      const auto s = security::analyze_collateral(
          dmg, security::cases::CollateralDamage::kD,
          security::cases::CollateralDamage::kM, model,
          security::cases::CollateralDamage::deployment());
      table.add_row({"Fig 14 collateral damage", bench::short_model(model),
                     yn(s.damages > 0)});
    }
    const auto ben = security::cases::CollateralBenefitStrict::graph();
    for (const auto model : routing::kAllSecurityModels) {
      const auto s = security::analyze_collateral(
          ben, security::cases::CollateralBenefitStrict::kD,
          security::cases::CollateralBenefitStrict::kM, model,
          security::cases::CollateralBenefitStrict::deployment());
      table.add_row({"Fig 14 collateral benefit", bench::short_model(model),
                     yn(s.benefits > 0)});
    }
    // Figure 15's benefit is tie-break mediated: before deployment AS 3267
    // sits on a knife edge and "tiebreaks in favor of the attacker".
    const auto tie = security::cases::CollateralBenefit::graph();
    for (const auto model : routing::kAllSecurityModels) {
      const auto s = security::analyze_collateral(
          tie, security::cases::CollateralBenefit::kD,
          security::cases::CollateralBenefit::kM, model,
          security::cases::CollateralBenefit::deployment());
      table.add_row({"Fig 15 tie-break benefit", bench::short_model(model),
                     yn(s.benefits_upper > 0)});
    }
    const auto exd = security::cases::ExportDamage::graph();
    for (const auto model : routing::kAllSecurityModels) {
      const auto s = security::analyze_collateral(
          exd, security::cases::ExportDamage::kD,
          security::cases::ExportDamage::kM, model,
          security::cases::ExportDamage::deployment());
      table.add_row({"Fig 17 export damage", bench::short_model(model),
                     yn(s.damages > 0)});
    }
    table.print(std::cout);
  }

  // --- (2) aggregate campaign over generated topologies ---------------
  {
    // One fused pass per model and trial: downgrades and collateral flips
    // share the same routing outcomes, so the campaign computes them
    // together; trials sweep freshly generated topologies.
    for (const auto model : routing::kAllSecurityModels) {
      sim::ExperimentSpec spec;
      spec.scenario = "t1-t2";
      spec.model = model;
      spec.analyses = sim::Analysis::kDowngrades | sim::Analysis::kCollateral;
      spec.num_attackers = args.sample;
      spec.num_destinations = args.sample;
      spec.sample_seed = bench::kSampleSeed;
      campaign.experiments.push_back(std::move(spec));
    }
    const auto result = sim::run_campaign(campaign);
    std::cout << "\n--- aggregate campaign (S = T1+T2+stubs; topology "
              << result.topology << " x " << campaign.trials
              << " trials; fractions, mean ±stderr across trials) ---\n";
    util::Table table({"model", "downgraded", "collateral benefit",
                       "collateral damage"});
    const auto dg = sim::campaign_metric_index("downgraded");
    const auto ben = sim::campaign_metric_index("collateral_benefits");
    const auto dmg = sim::campaign_metric_index("collateral_damages");
    for (const auto& row : result.rows) {
      table.add_row(
          {bench::short_model(campaign.experiments[row.spec_index].model),
           bench::fmt_mean_stderr(row.metrics[dg]),
           bench::fmt_mean_stderr(row.metrics[ben]),
           bench::fmt_mean_stderr(row.metrics[dmg])});
    }
    table.print(std::cout);
    std::cout << "\nTable 3 pattern to verify: downgraded column ~0 for sec "
                 "1st; damage column 0 for sec 3rd (Theorem 6.1).\n"
              << "(sec 1st downgrades can be nonzero only when the attacker "
                 "sat on the victim's normal-time route — rare.)\n";
  }
  return 0;
}
