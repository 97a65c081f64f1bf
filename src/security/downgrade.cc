#include "security/downgrade.h"

#include <cassert>

#include "routing/workspace.h"

namespace sbgp::security {

DowngradeStats analyze_downgrades(const AsGraph& g, AsId d, AsId m,
                                  routing::SecurityModel model,
                                  const Deployment& dep) {
  routing::EngineWorkspace ws;
  return analyze_downgrades(g, d, m, model, dep, ws);
}

DowngradeStats analyze_downgrades(const AsGraph& g, AsId d, AsId m,
                                  routing::SecurityModel model,
                                  const Deployment& dep,
                                  routing::EngineWorkspace& ws) {
  routing::compute_routing_into(g, Query{d, routing::kNoAs, model}, dep, ws,
                                ws.normal);
  routing::compute_routing_into(g, Query{d, m, model}, dep, ws, ws.primary);
  const PartitionContext partition(g, d, m, model,
                                   routing::LocalPrefPolicy::standard(), ws);

  ws.normal.flags_into(ws.normal_flags);
  ws.primary.flags_into(ws.attacked_flags);
  PairOutcomes po;
  po.d = d;
  po.m = m;
  po.normal = ws.normal_flags;
  po.attacked = ws.attacked_flags;
  po.partition = &partition;
  DowngradeStats s;
  accumulate_into(po, s);
  return s;
}

void accumulate_into(const PairOutcomes& po, DowngradeStats& acc) {
  const std::span<const std::uint8_t> normal = po.normal;
  const std::span<const std::uint8_t> attacked = po.attacked;
  assert(normal.size() == attacked.size() && po.partition != nullptr);
  const PartitionContext& partition = *po.partition;
  DowngradeStats s;
  for_each_source(attacked.size(), po.d, po.m, [&](std::size_t v) {
    const std::size_t before = secure_flag(normal[v]);
    const std::size_t during = secure_flag(attacked[v]);
    ++s.sources;
    s.secure_normal += before;
    s.downgraded += before & (during ^ 1u);
    s.secure_kept += during;
    // Classifying costs a neighbour scan in security 2nd, so only the
    // ASes that kept a secure route pay for it.
    if (during != 0) {
      s.kept_and_immune += partition.classify(static_cast<AsId>(v)) ==
                           PartitionClass::kImmune;
    }
  });
  acc += s;
}

}  // namespace sbgp::security
