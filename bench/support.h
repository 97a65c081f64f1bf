// Shared setup for the figure/table reproduction benches.
//
// Every bench binary builds the same deterministic synthetic Internet
// (topology/generator.h), classifies tiers, samples attacker/destination
// sets, states its study as a list of sim::ExperimentSpec cells, and prints
// results in a uniform format with a "paper:" reference line so the
// reproduced shape can be compared at a glance.
//
// All benches accept optional positional arguments:
//   argv[1]  number of ASes        (default 8000)
//   argv[2]  sample size per side  (default 40 attackers x 40 destinations)
//   argv[3]  campaign trials       (default 2; used by campaign-based benches)
// Each is a positive decimal integer (num_ases at most 2^32 - 1). A bad or
// extra argument prints a usage line to stderr and exits with status 2.
#ifndef SBGP_BENCH_SUPPORT_H
#define SBGP_BENCH_SUPPORT_H

#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "deployment/scenario.h"
#include "routing/model.h"
#include "security/partition.h"
#include "sim/campaign.h"
#include "sim/experiment.h"
#include "topology/generator.h"
#include "topology/ixp.h"
#include "topology/registry.h"
#include "topology/tier.h"
#include "util/stats.h"

namespace sbgp::bench {

using routing::AsId;
using routing::Deployment;
using routing::SecurityModel;
using topology::Tier;

inline constexpr std::uint64_t kGraphSeed = 20130812;
inline constexpr std::uint64_t kSampleSeed = 4242;

/// The positional arguments, shared by every bench.
struct BenchArgs {
  std::uint32_t num_ases = 8000;
  std::size_t sample = 40;
  std::size_t trials = 2;
};

/// Parses argv[1..3] over the given defaults; a bad or fourth argument
/// prints a usage line to stderr and exits with status 2.
[[nodiscard]] BenchArgs parse_args(int argc, char** argv,
                                   std::uint32_t default_n = 8000,
                                   std::size_t default_sample = 40);

struct BenchContext {
  topology::GeneratedTopology topo;
  topology::TierInfo tiers;
  std::vector<AsId> attackers;     // sampled from non-stubs (M')
  std::vector<AsId> destinations;  // sampled from all ASes
  std::size_t sample = 40;

  [[nodiscard]] const topology::AsGraph& graph() const { return topo.graph; }
};

/// Builds the bench topology and samples. Handles argv overrides.
[[nodiscard]] BenchContext make_context(int argc, char** argv,
                                        std::uint32_t default_n = 8000,
                                        std::size_t default_sample = 40);

/// IXP-augmented copy of the context's graph (Appendix J).
[[nodiscard]] topology::AsGraph make_ixp_graph(const BenchContext& ctx);

/// Prints a bench banner with the experiment id and graph shape.
void print_banner(const BenchContext& ctx, const std::string& experiment,
                  const std::string& paper_claim);

/// "sec 1st" / "sec 2nd" / "sec 3rd" short label.
[[nodiscard]] std::string short_model(SecurityModel m);

/// Members of one tier, sampled down to at most `cap`.
[[nodiscard]] std::vector<AsId> tier_sample(const BenchContext& ctx, Tier t,
                                            std::size_t cap,
                                            std::uint64_t seed);

/// A spec over the context's attacker/destination samples: `analyses`
/// under `model` at the last step of the registry scenario `scenario`.
[[nodiscard]] sim::ExperimentSpec base_spec(
    const BenchContext& ctx, const std::string& scenario = "t1-t2",
    SecurityModel model = SecurityModel::kSecurityThird,
    sim::AnalysisSet analyses = sim::Analysis::kHappiness);

/// The S = emptyset baseline: happiness on the "empty" scenario under the
/// insecure model.
[[nodiscard]] sim::ExperimentSpec baseline_spec(const BenchContext& ctx);

/// Partitions and happiness under `model` on the "empty" scenario.
/// Partitions are deployment-invariant, and on S = emptyset every model
/// routes alike, so the row's happiness is the baseline H(empty).
[[nodiscard]] sim::ExperimentSpec partition_spec(const BenchContext& ctx,
                                                 SecurityModel model);

/// Every (rollout step, model) cell of a registry scenario over the
/// context's samples, happiness only, step-major.
[[nodiscard]] std::vector<sim::ExperimentSpec> rollout_specs(
    const BenchContext& ctx, const std::string& scenario,
    deployment::StubMode mode = deployment::StubMode::kFullSbgp);

/// The rollout figures' table: per row its step (suffixed with `tag`),
/// secure ASes, model, and the change of both bounds against `baseline`.
void print_rollout_table(std::span<const sim::ExperimentRow> rows,
                         const security::MetricBounds& baseline,
                         const std::string& tag = "");

/// Campaign shell over the registry topology closest to args.num_ases,
/// with args.trials trials; callers fill `experiments`. Campaign benches
/// need no BenchContext: every topology they touch is a campaign trial.
[[nodiscard]] sim::CampaignSpec base_campaign(const BenchArgs& args);

/// Banner for campaign benches: experiment id, topology x trials, samples.
void print_campaign_banner(const sim::CampaignSpec& campaign,
                           std::size_t sample, const std::string& experiment,
                           const std::string& paper_claim);

/// "0.613 ±0.004": a metric summary as mean ± standard error across trials.
[[nodiscard]] std::string fmt_mean_stderr(const sim::MetricSummary& m,
                                          int digits = 3);
/// The same format from a raw accumulator.
[[nodiscard]] std::string fmt_mean_stderr(const util::Accumulator& acc,
                                          int digits = 3);

}  // namespace sbgp::bench

#endif  // SBGP_BENCH_SUPPORT_H
