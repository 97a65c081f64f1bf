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
  PartitionContext(g, d, m, model, routing::LocalPrefPolicy::standard(), ws)
      .classes_into(ws.partition_classes);

  ws.normal.flags_into(ws.normal_flags);
  ws.primary.flags_into(ws.attacked_flags);
  PairOutcomes po;
  po.d = d;
  po.m = m;
  po.normal = ws.normal_flags;
  po.attacked = ws.attacked_flags;
  po.partition = ws.partition_classes;
  DowngradeStats s;
  accumulate_into(po, s);
  return s;
}

void accumulate_into(const PairOutcomes& po, DowngradeStats& acc) {
  const std::span<const std::uint8_t> normal = po.normal;
  const std::span<const std::uint8_t> attacked = po.attacked;
  const std::span<const std::uint8_t> cls = po.partition;
  assert(normal.size() == attacked.size() && cls.size() == attacked.size());
  constexpr auto kImmune = static_cast<std::uint8_t>(PartitionClass::kImmune);
  DowngradeStats s;
  for_each_source(attacked.size(), po.d, po.m, [&](std::size_t v) {
    const std::size_t before = secure_flag(normal[v]);
    const std::size_t during = secure_flag(attacked[v]);
    ++s.sources;
    s.secure_normal += before;
    s.downgraded += before & (during ^ 1u);
    s.secure_kept += during;
    s.kept_and_immune += during & static_cast<std::size_t>(cls[v] == kImmune);
  });
  acc += s;
}

}  // namespace sbgp::security
