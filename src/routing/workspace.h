// Reusable per-worker buffers for the staged-BFS routing engine.
//
// Aggregate experiments (H_{M,D}(S), Figures 3-16) run millions of
// independent Fix-Routes computations whose per-query state has the same
// shape every time: a handful of per-AS vectors and a frontier queue. An
// EngineWorkspace owns that state across queries so a long-lived worker
// (sim::BatchExecutor) allocates it once and every subsequent query only
// re-initializes values, never memory. The engine and reachability entry
// points both have workspace-taking variants; the original allocating
// signatures remain as thin wrappers.
#ifndef SBGP_ROUTING_WORKSPACE_H
#define SBGP_ROUTING_WORKSPACE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "routing/bucket_queue.h"
#include "routing/engine.h"
#include "routing/lanes.h"
#include "routing/reach.h"

namespace sbgp::routing {

/// Long-lived scratch state for routing computations. Not thread-safe: one
/// workspace per worker. Buffers grow to the largest graph seen and are
/// reused (values reset, capacity kept) on every query.
///
/// Slot ownership rules
/// --------------------
/// The engine never decides where a result lives; the caller does, and the
/// conventions below keep one workspace sufficient for every fused
/// analysis:
///   - `primary` is the default target (the convenience overloads compute
///     into it). Nothing else writes it.
///   - `normal` holds the pre-attack state of hysteresis only: the fused
///     pipeline (sim::accumulate_group_into) computes it there once per
///     group and passes it to the precomputed-`normal` overload of
///     compute_routing_with_hysteresis_into, which leaves the slot alone;
///     the recomputing overload clobbers it. Without hysteresis the normal
///     outcome comes from the lane pass's normal lane.
///   - `baseline` is owned by security::PartitionContext: the S = emptyset
///     attacked state of the 2nd/3rd models, which it fills with
///     compute_routing_into under its LP ladder. The fused pipeline builds
///     one only for LP-k partitions under security 2nd/3rd; its other
///     classes come from `lanes`.
///   - `lanes` holds the lane pass of sim::accumulate_group_into's group —
///     every attacked state, the normal state and the partition classes;
///     only that function runs it.
///   - The flag views (`attacked_flags`, `normal_flags`, `empty_flags`,
///     `signer_flags`) and class views (`partition_classes`,
///     `ladder_classes`) hold the per-AS bytes of the pair being counted;
///     the pipeline and the security analyze_* functions write them right
///     before counting.
///   - A `result` argument passed to any *_into entry point must not alias
///     a slot the same call reads or clobbers (asserted where cheap).
/// Scratch members (`fixed`, `frontier`, `reach_*`) are
/// invalidated by every compute call; no caller may hold state in them
/// across engine entry points.
class EngineWorkspace {
 public:
  EngineWorkspace() = default;
  explicit EngineWorkspace(std::size_t num_ases) { reserve(num_ases); }

  /// Pre-grows every buffer for graphs of `num_ases` ASes. Optional: the
  /// compute entry points size buffers on demand.
  void reserve(std::size_t num_ases);

  // --- Result slots -----------------------------------------------------
  // The engine computes into `primary` unless told otherwise; multi-outcome
  // analyses use `normal` (pre-attack state) and `baseline` (S = emptyset
  // state) so one workspace covers every security analysis.
  RoutingOutcome primary;
  RoutingOutcome normal;
  RoutingOutcome baseline;

  // --- Lane pass and flag views (sim/pair_analysis.h) -------------------
  LanePass lanes;  // every attacked state of one destination group
  std::vector<std::uint8_t> attacked_flags;  // attacked, under S
  std::vector<std::uint8_t> normal_flags;    // no attack, under S
  std::vector<std::uint8_t> empty_flags;     // attacked, S = emptyset
  std::vector<std::uint8_t> signer_flags;    // Deployment::signers_into
  // PartitionClass bytes under the standard LP ladder, and under an LP-k
  // ladder where the partition analysis uses one (security 2nd/3rd).
  std::vector<std::uint8_t> partition_classes;
  std::vector<std::uint8_t> ladder_classes;

  // --- Staged-BFS engine scratch ---------------------------------------
  std::vector<std::uint8_t> fixed;  // per-AS "route fixed" flags
  BucketQueue frontier;             // stage frontier (bucket queue)

  // --- Perceivable-reachability scratch (security::PartitionContext) ----
  // Security 1st's exclusion distances; the fused pipeline's lane classes
  // never touch them.
  PerceivableDistances reach_d;  // distances toward the destination
  PerceivableDistances reach_m;  // distances toward the attacker
};

}  // namespace sbgp::routing

#endif  // SBGP_ROUTING_WORKSPACE_H
