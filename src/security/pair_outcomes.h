// Shared per-pair routing state for the fused analysis pipeline.
//
// Every aggregate statistic of the paper's evaluation (happiness bounds,
// partitions, downgrades, collateral flips, root causes) is a function of
// the same handful of stable routing outcomes for one (attacker m,
// destination d, deployment S, model) instance. A PairOutcomes bundles
// non-owning flag views of those outcomes — one byte per AS, the
// routing::kFlag* bits — so each analysis can expose an
// accumulate_into(const PairOutcomes&, Stats&) entry point and the pipeline
// (sim/pair_analysis.h) can compute each outcome exactly once per pair,
// however many analyses are selected. A view comes from
// RoutingOutcome::flags_into for a scalar outcome or from
// LanePass::flags_into for one lane of a lane pass; the analyses cannot
// tell them apart. The partition slot holds routing::PartitionClass bytes
// instead, from LanePass::partition_into or PartitionContext::classes_into.
//
// Which slots an analysis reads:
//   happiness    attacked
//   partitions   partition
//   downgrades   normal, attacked, partition
//   collateral   attacked_empty, attacked, signers
//   root causes  normal, attacked, attacked_empty, signers
// Unused slots may stay empty; each accumulate_into asserts what it needs.
// Every per-AS loop over the views is branch-free (for_each_source below):
// the helpers turn a flag byte into 0/1 terms that are summed, never
// tested, so the compiler can vectorize the loop.
#ifndef SBGP_SECURITY_PAIR_OUTCOMES_H
#define SBGP_SECURITY_PAIR_OUTCOMES_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "routing/engine.h"
#include "routing/model.h"
#include "topology/types.h"

namespace sbgp::security {

/// 1 iff every best route of the AS leads to d (HappyStatus::kHappy).
[[nodiscard]] constexpr std::size_t happy_flag(std::uint8_t f) noexcept {
  return (f & (routing::kFlagReachD | routing::kFlagReachM)) ==
         routing::kFlagReachD;
}
/// 1 iff every best route of the AS leads to m (HappyStatus::kUnhappy).
[[nodiscard]] constexpr std::size_t unhappy_flag(std::uint8_t f) noexcept {
  return (f & (routing::kFlagReachD | routing::kFlagReachM)) ==
         routing::kFlagReachM;
}
/// 1 iff some best route leads to d (kHappy or kEither).
[[nodiscard]] constexpr std::size_t reach_d_flag(std::uint8_t f) noexcept {
  return (f & routing::kFlagReachD) != 0;
}
/// 1 iff the AS's route is secure.
[[nodiscard]] constexpr std::size_t secure_flag(std::uint8_t f) noexcept {
  return (f & routing::kFlagSecure) != 0;
}

/// Calls body(v) for every source of the attack (m on d) — every AS in
/// [0, n) but d and m (m may be kNoAs) — as up to three contiguous runs, so
/// the body needs no per-AS test.
template <class Body>
void for_each_source(std::size_t n, topology::AsId d, topology::AsId m,
                     Body body) {
  const std::size_t lo = std::min<std::size_t>(d, m);
  const std::size_t hi = std::max<std::size_t>(d, m);
  for (std::size_t v = 0; v < std::min(lo, n); ++v) body(v);
  for (std::size_t v = lo + 1; v < std::min(hi, n); ++v) body(v);
  for (std::size_t v = hi + 1; v < n; ++v) body(v);
}

/// Non-owning flag views of the routing outcomes computed for one attack
/// instance (m on d) under deployment `dep`, one byte per AS. The viewed
/// bytes typically live in a worker's routing::EngineWorkspace and are only
/// valid until the next pair is counted.
struct PairOutcomes {
  topology::AsId d = topology::kNoAs;
  topology::AsId m = topology::kNoAs;
  /// 1 for every AS that signs its origin under S (secure or simplex
  /// members, Deployment::signers_into): the ASes collateral counts skip.
  std::span<const std::uint8_t> signers;

  /// Stable state under attack with deployment S (query {d, m, model}).
  std::span<const std::uint8_t> attacked;
  /// Stable state under normal conditions with S (query {d, kNoAs, model}).
  std::span<const std::uint8_t> normal;
  /// Stable state under attack with S = emptyset ({d, m, kInsecure}).
  std::span<const std::uint8_t> attacked_empty;
  /// Deployment-invariant partition class of every AS for (d, m), one
  /// routing::PartitionClass byte each. The downgrade analysis reads the
  /// standard LP ladder's classes (matching analyze_downgrades); the
  /// partition analysis reads the spec's ladder.
  std::span<const std::uint8_t> partition;
};

}  // namespace sbgp::security

#endif  // SBGP_SECURITY_PAIR_OUTCOMES_H
