// Protocol-downgrade accounting (Sections 3.2, 5.3.1, Appendix F.1).
//
// A source suffers a protocol downgrade when it holds a (fully validated)
// secure route to the destination under normal conditions but selects an
// insecure route once the attacker starts announcing the bogus "m, d".
// Theorem 3.1 guarantees this cannot happen in the security 1st model; in
// the 2nd and 3rd models it is the paper's main explanation for why large
// deployments protect so little (Figure 13, Figure 16).
#ifndef SBGP_SECURITY_DOWNGRADE_H
#define SBGP_SECURITY_DOWNGRADE_H

#include <cstddef>
#include <cstdint>

#include "routing/engine.h"
#include "routing/model.h"
#include "security/pair_outcomes.h"
#include "security/partition.h"
#include "topology/as_graph.h"

namespace sbgp::security {

using routing::Deployment;
using routing::Query;
using topology::AsGraph;

/// Fate of the secure routes to one destination during one attack.
/// All counts are over sources (excluding d and m).
struct DowngradeStats {
  std::size_t sources = 0;
  std::size_t secure_normal = 0;    // secure route before the attack
  std::size_t downgraded = 0;       // secure before, insecure during
  std::size_t secure_kept = 0;      // secure route during the attack
  std::size_t kept_and_immune = 0;  // kept, and immune anyway (wasted)

  DowngradeStats& operator+=(const DowngradeStats& o) {
    sources += o.sources;
    secure_normal += o.secure_normal;
    downgraded += o.downgraded;
    secure_kept += o.secure_kept;
    kept_and_immune += o.kept_and_immune;
    return *this;
  }
  /// Adds `w` copies of `o` — traffic-weighted accumulation (sim/traffic.h).
  DowngradeStats& add_scaled(const DowngradeStats& o, std::uint64_t w) {
    sources += o.sources * w;
    secure_normal += o.secure_normal * w;
    downgraded += o.downgraded * w;
    secure_kept += o.secure_kept * w;
    kept_and_immune += o.kept_and_immune * w;
    return *this;
  }
  [[nodiscard]] bool operator==(const DowngradeStats&) const = default;
};

/// Computes downgrade statistics for attack (m on d) under deployment `dep`
/// and the given model, per Appendix F.1: one routing computation without
/// the attacker, one with, plus the partition classification for the
/// "wasted on immune sources" row of Figure 13.
[[nodiscard]] DowngradeStats analyze_downgrades(const AsGraph& g, AsId d,
                                                AsId m,
                                                routing::SecurityModel model,
                                                const Deployment& dep);

/// Workspace variant for batch sweeps: the three underlying computations
/// reuse ws buffers (normal state in ws.normal, attacked state in
/// ws.primary, partition state in ws.baseline / reach scratch, class bytes
/// in ws.partition_classes).
[[nodiscard]] DowngradeStats analyze_downgrades(const AsGraph& g, AsId d,
                                                AsId m,
                                                routing::SecurityModel model,
                                                const Deployment& dep,
                                                routing::EngineWorkspace& ws);

/// Fused-pipeline entry point: buckets every source using po.normal,
/// po.attacked and po.partition (class bytes under the standard LP ladder,
/// from the lane pass or a PartitionContext) and adds the counts to `acc`.
void accumulate_into(const PairOutcomes& po, DowngradeStats& acc);

}  // namespace sbgp::security

#endif  // SBGP_SECURITY_DOWNGRADE_H
