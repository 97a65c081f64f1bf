// Quickstart: build a small synthetic Internet, attack a destination, and
// measure how much partially-deployed S*BGP helps under each routing model.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "deployment/scenario.h"
#include "routing/engine.h"
#include "sim/experiment.h"
#include "topology/generator.h"
#include "util/table.h"

int main() {
  using namespace sbgp;

  // 1. A deterministic Internet-like AS topology (~2000 ASes).
  const auto topo = topology::generate_small_internet(2000, /*seed=*/42);
  const auto tiers = topo.classify();
  const auto stats = topology::compute_stats(topo.graph);
  std::cout << "generated " << stats.num_ases << " ASes ("
            << stats.cp_links << " customer-provider links, "
            << stats.peer_links << " peer links)\n";

  // 2. A partial deployment: every Tier 1 and Tier 2 ISP plus their stub
  //    customers run S*BGP.
  const auto rollout = deployment::t1_t2_rollout(
      topo.graph, tiers, deployment::StubMode::kFullSbgp);
  const auto& dep = rollout.back().deployment;
  std::cout << "secure ASes: " << dep.secure.count() << "\n\n";

  // 3. One concrete attack: m announces the bogus path "m, d" via legacy
  //    BGP (Section 3.1 of the paper). Inspect a single routing outcome.
  const topology::AsId d = tiers.bucket(topology::Tier::kTier2)[0];
  const topology::AsId m = tiers.bucket(topology::Tier::kTier3)[0];
  const auto outcome = routing::compute_routing(
      topo.graph, {d, m, routing::SecurityModel::kSecuritySecond}, dep);
  std::size_t unhappy = 0;
  for (topology::AsId v = 0; v < topo.graph.num_ases(); ++v) {
    if (outcome.happy(v) == routing::HappyStatus::kUnhappy) ++unhappy;
  }
  std::cout << "single attack (T3 AS " << m << " hijacks T2 AS " << d
            << ", security 2nd): " << unhappy
            << " sources fall for the bogus route\n\n";

  // 4. The paper's metric H_{M,D}(S): average fraction of happy sources,
  //    with tie-break bounds, over 24 sampled non-stub attackers x 24
  //    destinations. A study is a list of experiment specs: the S =
  //    emptyset baseline, then the same rollout step under every model.
  sim::ExperimentSpec baseline_spec;
  baseline_spec.scenario = "empty";
  baseline_spec.model = routing::SecurityModel::kInsecure;
  baseline_spec.analyses = sim::Analysis::kHappiness;
  baseline_spec.num_attackers = 24;
  baseline_spec.num_destinations = 24;
  baseline_spec.sample_seed = 1;
  std::vector<sim::ExperimentSpec> specs = {baseline_spec};
  for (const auto model : routing::kAllSecurityModels) {
    auto spec = baseline_spec;
    spec.scenario = "t1-t2";
    spec.model = model;
    specs.push_back(spec);
  }
  const auto rows = sim::run_experiment_suite(topo.graph, tiers, specs);
  const auto baseline = rows.front().stats.happiness.bounds();
  util::Table table({"model", "H(S) lower", "H(S) upper", "gain vs origin auth"});
  table.add_row({"origin auth only", util::pct(baseline.lower),
                 util::pct(baseline.upper), "-"});
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto h = rows[i].stats.happiness.bounds();
    table.add_row({std::string(to_string(rows[i].model)), util::pct(h.lower),
                   util::pct(h.upper), util::pct(h.lower - baseline.lower)});
  }
  table.print(std::cout);
  std::cout << "\nIs the juice worth the squeeze? Unless operators rank "
               "security FIRST, barely.\n";
  return 0;
}
