#include "security/rootcause.h"

#include <cassert>

#include "routing/engine.h"
#include "routing/workspace.h"

namespace sbgp::security {

RootCauseStats analyze_root_causes(const AsGraph& g, routing::AsId d,
                                   routing::AsId m,
                                   routing::SecurityModel model,
                                   const Deployment& dep) {
  routing::EngineWorkspace ws;
  return analyze_root_causes(g, d, m, model, dep, ws);
}

RootCauseStats analyze_root_causes(const AsGraph& g, routing::AsId d,
                                   routing::AsId m,
                                   routing::SecurityModel model,
                                   const Deployment& dep,
                                   routing::EngineWorkspace& ws) {
  routing::compute_routing_into(g, routing::Query{d, routing::kNoAs, model},
                                dep, ws, ws.normal);
  routing::compute_routing_into(g, routing::Query{d, m, model}, dep, ws,
                                ws.primary);
  routing::compute_routing_into(
      g, routing::Query{d, m, routing::SecurityModel::kInsecure}, {}, ws,
      ws.baseline);

  ws.normal.flags_into(ws.normal_flags);
  ws.primary.flags_into(ws.attacked_flags);
  ws.baseline.flags_into(ws.empty_flags);
  dep.signers_into(g.num_ases(), ws.signer_flags);
  PairOutcomes po;
  po.d = d;
  po.m = m;
  po.signers = ws.signer_flags;
  po.normal = ws.normal_flags;
  po.attacked = ws.attacked_flags;
  po.attacked_empty = ws.empty_flags;
  RootCauseStats s;
  accumulate_into(po, s);
  return s;
}

void accumulate_into(const PairOutcomes& po, RootCauseStats& acc) {
  const std::span<const std::uint8_t> normal = po.normal;
  const std::span<const std::uint8_t> attacked = po.attacked;
  const std::span<const std::uint8_t> baseline = po.attacked_empty;
  assert(normal.size() == attacked.size() &&
         baseline.size() == attacked.size() &&
         po.signers.size() == attacked.size());
  RootCauseStats s;
  for_each_source(attacked.size(), po.d, po.m, [&](std::size_t v) {
    const std::size_t outside = po.signers[v] ^ 1u;
    const std::size_t happy0 = happy_flag(baseline[v]);
    const std::size_t happy1 = happy_flag(attacked[v]);
    const std::size_t was_secure = secure_flag(normal[v]);
    const std::size_t kept = was_secure & secure_flag(attacked[v]);
    ++s.sources;
    s.happy_baseline += happy0;
    s.happy_deployed += happy1;
    s.secure_normal += was_secure;
    s.downgraded += was_secure ^ kept;
    s.secure_wasted += kept & happy0;
    s.secure_protecting += kept & (happy0 ^ 1u);
    s.collateral_benefits += outside & unhappy_flag(baseline[v]) & happy1;
    s.collateral_damages += outside & happy0 & unhappy_flag(attacked[v]);
  });
  acc += s;
}

}  // namespace sbgp::security
