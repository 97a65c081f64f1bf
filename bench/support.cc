#include "support.h"

#include <cstdint>
#include <cstdlib>
#include <stdexcept>

#include "util/csv.h"
#include "util/table.h"

namespace sbgp::bench {

namespace {

[[noreturn]] void usage_error(const char* prog) {
  std::cerr << "usage: " << prog << " [num_ases] [sample_per_side] [trials]\n"
            << "  each a positive integer, num_ases at most 4294967295\n";
  std::exit(2);
}

}  // namespace

BenchArgs parse_args(int argc, char** argv, std::uint32_t default_n,
                     std::size_t default_sample) {
  const auto arg = [&](int i, std::uint64_t max) -> std::uint64_t {
    try {
      const std::uint64_t value = util::parse_u64(argv[i]);
      if (value >= 1 && value <= max) return value;
    } catch (const std::invalid_argument&) {
    }
    usage_error(argv[0]);
  };
  if (argc > 4) usage_error(argv[0]);
  BenchArgs args{default_n, default_sample, 2};
  if (argc > 1) args.num_ases = static_cast<std::uint32_t>(arg(1, UINT32_MAX));
  if (argc > 2) args.sample = arg(2, SIZE_MAX);
  if (argc > 3) args.trials = arg(3, SIZE_MAX);
  return args;
}

BenchContext make_context(int argc, char** argv, std::uint32_t default_n,
                          std::size_t default_sample) {
  const BenchArgs args = parse_args(argc, argv, default_n, default_sample);
  BenchContext ctx;
  ctx.sample = args.sample;

  topology::GeneratorParams params = topology::scaled_params(args.num_ases);
  params.seed = kGraphSeed;
  ctx.topo = topology::generate_internet(params);
  ctx.tiers = ctx.topo.classify();
  ctx.attackers = sim::sample_ases(sim::non_stub_ases(ctx.graph()), ctx.sample,
                                   kSampleSeed);
  ctx.destinations =
      sim::sample_ases(sim::all_ases(ctx.graph()), ctx.sample, kSampleSeed + 1);
  return ctx;
}

topology::AsGraph make_ixp_graph(const BenchContext& ctx) {
  topology::IxpParams params;
  return topology::augment_with_ixps(ctx.graph(), ctx.tiers, params).graph;
}

void print_banner(const BenchContext& ctx, const std::string& experiment,
                  const std::string& paper_claim) {
  const auto stats = topology::compute_stats(ctx.graph());
  std::cout << "==================================================================\n"
            << experiment << '\n'
            << "graph: " << stats.num_ases << " ASes, " << stats.cp_links
            << " customer-provider links, " << stats.peer_links
            << " peer links, " << stats.num_stubs << " stubs\n"
            << "samples: " << ctx.attackers.size() << " attackers (non-stub) x "
            << ctx.destinations.size() << " destinations\n"
            << "paper: " << paper_claim << '\n'
            << "==================================================================\n";
}

std::string short_model(SecurityModel m) {
  switch (m) {
    case SecurityModel::kInsecure: return "baseline";
    case SecurityModel::kSecurityFirst: return "sec 1st";
    case SecurityModel::kSecuritySecond: return "sec 2nd";
    case SecurityModel::kSecurityThird: return "sec 3rd";
  }
  return "?";
}

std::vector<AsId> tier_sample(const BenchContext& ctx, Tier t, std::size_t cap,
                              std::uint64_t seed) {
  return sim::sample_ases(ctx.tiers.bucket(t), cap, seed);
}

sim::ExperimentSpec base_spec(const BenchContext& ctx,
                              const std::string& scenario,
                              SecurityModel model, sim::AnalysisSet analyses) {
  sim::ExperimentSpec spec;
  spec.scenario = scenario;
  spec.model = model;
  spec.analyses = analyses;
  spec.attackers = ctx.attackers;
  spec.destinations = ctx.destinations;
  return spec;
}

sim::ExperimentSpec baseline_spec(const BenchContext& ctx) {
  return base_spec(ctx, "empty", SecurityModel::kInsecure);
}

sim::ExperimentSpec partition_spec(const BenchContext& ctx,
                                   SecurityModel model) {
  return base_spec(ctx, "empty", model,
                   sim::Analysis::kHappiness | sim::Analysis::kPartitions);
}

std::vector<sim::ExperimentSpec> rollout_specs(const BenchContext& ctx,
                                               const std::string& scenario,
                                               deployment::StubMode mode) {
  const std::size_t num_steps =
      deployment::build_scenario(scenario, ctx.graph(), ctx.tiers, mode)
          .size();
  std::vector<sim::ExperimentSpec> specs;
  for (std::size_t i = 0; i < num_steps; ++i) {
    for (const auto model : routing::kAllSecurityModels) {
      specs.push_back(base_spec(ctx, scenario, model));
      specs.back().rollout_step = i;
      specs.back().stub_mode = mode;
    }
  }
  return specs;
}

void print_rollout_table(std::span<const sim::ExperimentRow> rows,
                         const security::MetricBounds& baseline,
                         const std::string& tag) {
  util::Table table({"step", "secure ASes", "model", "dH lower", "dH upper"});
  for (const auto& row : rows) {
    const auto h = row.stats.happiness.bounds();
    table.add_row({row.step_label + tag, std::to_string(row.total_secure),
                   short_model(row.model), util::pct(h.lower - baseline.lower),
                   util::pct(h.upper - baseline.upper)});
  }
  table.print(std::cout);
}

sim::CampaignSpec base_campaign(const BenchArgs& args) {
  sim::CampaignSpec campaign;
  campaign.topology =
      std::string(topology::nearest_topology(args.num_ases).name);
  campaign.trials = args.trials;
  campaign.seed = kGraphSeed;
  return campaign;
}

void print_campaign_banner(const sim::CampaignSpec& campaign,
                           std::size_t sample, const std::string& experiment,
                           const std::string& paper_claim) {
  std::cout << "==================================================================\n"
            << experiment << '\n'
            << "campaign: topology " << campaign.topology << " x "
            << campaign.trials << " trials (per-trial seeds via SplitMix)\n"
            << "samples: " << sample << " attackers (non-stub) x " << sample
            << " destinations per trial\n"
            << "paper: " << paper_claim << '\n'
            << "==================================================================\n";
}

std::string fmt_mean_stderr(const sim::MetricSummary& m, int digits) {
  return util::fixed(m.mean, digits) + " ±" +
         util::fixed(m.std_error, digits);
}

std::string fmt_mean_stderr(const util::Accumulator& acc, int digits) {
  return util::fixed(acc.mean(), digits) + " ±" +
         util::fixed(acc.std_error(), digits);
}

}  // namespace sbgp::bench
