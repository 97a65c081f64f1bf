#include "security/collateral.h"

#include <cassert>
#include <vector>

#include "routing/workspace.h"

namespace sbgp::security {

CollateralStats count_collateral(std::span<const std::uint8_t> baseline,
                                 std::span<const std::uint8_t> deployed,
                                 std::span<const std::uint8_t> signers,
                                 routing::AsId d, routing::AsId m) {
  assert(deployed.size() == baseline.size() &&
         signers.size() == baseline.size());
  // Local sums, not the returned object (see count_happy).
  std::size_t sources = 0;
  std::size_t benefits = 0;
  std::size_t damages = 0;
  std::size_t benefits_upper = 0;
  std::size_t damages_upper = 0;
  for_each_source(baseline.size(), d, m, [&](std::size_t v) {
    const std::size_t outside = signers[v] ^ 1u;
    const std::size_t happy0 = happy_flag(baseline[v]);
    const std::size_t happy1 = happy_flag(deployed[v]);
    sources += outside;
    benefits += outside & unhappy_flag(baseline[v]) & happy1;
    damages += outside & happy0 & unhappy_flag(deployed[v]);
    benefits_upper += outside & (happy0 ^ 1u) & happy1;
    damages_upper += outside & happy0 & (happy1 ^ 1u);
  });
  return {sources, benefits, damages, benefits_upper, damages_upper};
}

CollateralStats count_collateral(const RoutingOutcome& baseline,
                                 const RoutingOutcome& deployed,
                                 const Deployment& dep, routing::AsId d,
                                 routing::AsId m) {
  std::vector<std::uint8_t> before;
  std::vector<std::uint8_t> after;
  std::vector<std::uint8_t> signers;
  baseline.flags_into(before);
  deployed.flags_into(after);
  dep.signers_into(before.size(), signers);
  return count_collateral(before, after, signers, d, m);
}

CollateralStats analyze_collateral(const AsGraph& g, routing::AsId d,
                                   routing::AsId m,
                                   routing::SecurityModel model,
                                   const Deployment& dep) {
  routing::EngineWorkspace ws;
  return analyze_collateral(g, d, m, model, dep, ws);
}

CollateralStats analyze_collateral(const AsGraph& g, routing::AsId d,
                                   routing::AsId m,
                                   routing::SecurityModel model,
                                   const Deployment& dep,
                                   routing::EngineWorkspace& ws) {
  routing::compute_routing_into(
      g, routing::Query{d, m, routing::SecurityModel::kInsecure}, {}, ws,
      ws.baseline);
  routing::compute_routing_into(g, routing::Query{d, m, model}, dep, ws,
                                ws.primary);
  ws.baseline.flags_into(ws.empty_flags);
  ws.primary.flags_into(ws.attacked_flags);
  dep.signers_into(g.num_ases(), ws.signer_flags);
  return count_collateral(ws.empty_flags, ws.attacked_flags, ws.signer_flags,
                          d, m);
}

void accumulate_into(const PairOutcomes& po, CollateralStats& acc) {
  acc += count_collateral(po.attacked_empty, po.attacked, po.signers, po.d,
                          po.m);
}

}  // namespace sbgp::security
