// Property suite: the staged engine must agree with the reference
// path-vector simulator on every random graph, model, deployment and
// attack. Agreement is checked on all tie-break-invariant attributes
// (route type, length, security) and on endpoint containment (the
// reference's concrete tie-break must land inside the engine's declared
// {reaches d, reaches m} set). Convergence of the reference under random
// asynchronous activation orders doubles as a check of Theorem 2.1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "routing/baseline.h"
#include "routing/engine.h"
#include "routing/lanes.h"
#include "routing/model.h"
#include "routing/reach.h"
#include "routing/reference.h"
#include "routing/workspace.h"
#include "security/partition.h"
#include "test_support.h"
#include "topology/generator.h"
#include "topology/registry.h"
#include "util/hash.h"
#include "util/rng.h"

namespace sbgp::routing {
namespace {

using test::random_deployment;
using test::random_gr_graph;
using topology::AsGraph;

/// Compares one engine outcome against one converged reference state.
void expect_equivalent(const AsGraph& g, const RoutingOutcome& eng,
                       const ReferenceSimulator& ref, const Query& q,
                       const std::string& label) {
  for (AsId v = 0; v < g.num_ases(); ++v) {
    if (v == q.destination || v == q.attacker) continue;
    SCOPED_TRACE(label + " AS " + std::to_string(v));
    const auto& chosen = ref.chosen(v);
    ASSERT_EQ(eng.has_route(v), chosen.has_value());
    if (!chosen.has_value()) continue;
    EXPECT_EQ(eng.type(v), ref.route_type(v));
    EXPECT_EQ(eng.length(v), chosen->path.size());
    EXPECT_EQ(eng.secure_route(v), ref.secure_route(v));
    if (q.under_attack()) {
      const bool to_m = ref.routes_to_attacker(v);
      if (to_m) {
        EXPECT_TRUE(eng.reaches_attacker(v));
      } else {
        EXPECT_TRUE(eng.reaches_destination(v));
      }
      // Determined statuses must match exactly.
      if (eng.happy(v) == HappyStatus::kHappy) {
        EXPECT_FALSE(to_m);
      }
      if (eng.happy(v) == HappyStatus::kUnhappy) {
        EXPECT_TRUE(to_m);
      }
    } else {
      EXPECT_TRUE(eng.reaches_destination(v));
      EXPECT_FALSE(eng.reaches_attacker(v));
    }
  }
}

struct Params {
  std::uint32_t n;
  std::uint64_t seed;
};

class EquivalenceTest : public ::testing::TestWithParam<Params> {};

TEST_P(EquivalenceTest, EngineMatchesReferenceOnRandomGraphs) {
  const auto [n, seed] = GetParam();
  util::Rng rng(seed);
  const AsGraph g = random_gr_graph(n, rng);

  for (int trial = 0; trial < 3; ++trial) {
    const auto d = static_cast<AsId>(rng.next_below(n));
    auto m = static_cast<AsId>(rng.next_below(n));
    if (m == d) m = (m + 1) % n;
    const Deployment dep = random_deployment(n, 0.45, rng);

    for (const SecurityModel model :
         {SecurityModel::kInsecure, SecurityModel::kSecurityFirst,
          SecurityModel::kSecuritySecond, SecurityModel::kSecurityThird}) {
      for (const bool attacked : {false, true}) {
        const Query q{d, attacked ? m : kNoAs, model};
        const auto eng = compute_routing(g, q, dep);
        ReferenceSimulator ref(g, dep);
        const auto conv = ref.run(q, /*activation_seed=*/seed + trial);
        ASSERT_TRUE(conv.converged);
        expect_equivalent(g, eng, ref, q,
                          std::string(to_string(model)) +
                              (attacked ? "/attack" : "/normal"));
      }
    }
  }
}

TEST_P(EquivalenceTest, ReferenceConvergesToSameStateRegardlessOfOrder) {
  // Theorem 2.1: a unique stable state, so any two random activation orders
  // must agree on the full chosen-route state.
  const auto [n, seed] = GetParam();
  util::Rng rng(seed * 31 + 7);
  const AsGraph g = random_gr_graph(n, rng);
  const auto d = static_cast<AsId>(rng.next_below(n));
  auto m = static_cast<AsId>(rng.next_below(n));
  if (m == d) m = (m + 1) % n;
  const Deployment dep = random_deployment(n, 0.5, rng);

  for (const SecurityModel model : kAllSecurityModels) {
    const Query q{d, m, model};
    ReferenceSimulator ref_a(g, dep);
    ReferenceSimulator ref_b(g, dep);
    ASSERT_TRUE(ref_a.run(q, 1111).converged);
    ASSERT_TRUE(ref_b.run(q, 99999).converged);
    for (AsId v = 0; v < n; ++v) {
      ASSERT_EQ(ref_a.chosen(v).has_value(), ref_b.chosen(v).has_value());
      if (ref_a.chosen(v).has_value()) {
        EXPECT_EQ(ref_a.chosen(v)->path, ref_b.chosen(v)->path)
            << to_string(model) << " AS " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, EquivalenceTest,
    ::testing::Values(Params{12, 1}, Params{12, 2}, Params{25, 3},
                      Params{25, 4}, Params{40, 5}, Params{40, 6},
                      Params{60, 7}, Params{60, 8}, Params{90, 9},
                      Params{90, 10}),
    [](const ::testing::TestParamInfo<Params>& info) {
      return "n" + std::to_string(info.param.n) + "_s" +
             std::to_string(info.param.seed);
    });

TEST(EquivalenceInternet, EngineMatchesReferenceOnGeneratedTopology) {
  // Cross-check on the structured generator output as well.
  const auto topo = topology::generate_small_internet(150, 21);
  util::Rng rng(77);
  const auto n = static_cast<std::uint32_t>(topo.graph.num_ases());
  for (int trial = 0; trial < 2; ++trial) {
    const auto d = static_cast<AsId>(rng.next_below(n));
    auto m = static_cast<AsId>(rng.next_below(n));
    if (m == d) m = (m + 1) % n;
    const Deployment dep = random_deployment(n, 0.4, rng);
    for (const SecurityModel model : kAllSecurityModels) {
      const Query q{d, m, model};
      const auto eng = compute_routing(topo.graph, q, dep);
      ReferenceSimulator ref(topo.graph, dep);
      ASSERT_TRUE(ref.run(q, 5 + trial).converged);
      expect_equivalent(topo.graph, eng, ref, q, std::string(to_string(model)));
    }
  }
}

TEST_P(EquivalenceTest, BaselineEngineMatchesMainEngine) {
  // compute_baseline with the standard ladder must agree with the main
  // engine at S = emptyset, bit for bit.
  const auto [n, seed] = GetParam();
  util::Rng rng(seed + 1000);
  const AsGraph g = random_gr_graph(n, rng);
  for (int trial = 0; trial < 3; ++trial) {
    const auto d = static_cast<AsId>(rng.next_below(n));
    auto m = static_cast<AsId>(rng.next_below(n));
    if (m == d) m = (m + 1) % n;
    const auto base = compute_baseline(g, d, m);
    const auto eng = compute_routing(g, {d, m, SecurityModel::kInsecure}, {});
    for (AsId v = 0; v < n; ++v) {
      ASSERT_EQ(base.type(v), eng.type(v)) << v;
      ASSERT_EQ(base.length(v), eng.length(v)) << v;
      ASSERT_EQ(base.reaches_destination(v), eng.reaches_destination(v)) << v;
      ASSERT_EQ(base.reaches_attacker(v), eng.reaches_attacker(v)) << v;
    }
  }
}

TEST_P(EquivalenceTest, LpkBaselineMatchesReference) {
  // The LPk ladder implementation must agree with the reference simulator
  // configured with the same ladder.
  const auto [n, seed] = GetParam();
  util::Rng rng(seed + 5000);
  const AsGraph g = random_gr_graph(n, rng);
  for (const std::uint16_t k : {std::uint16_t{1}, std::uint16_t{2},
                                std::uint16_t{3}}) {
    const auto lp = LocalPrefPolicy::lp_k(k);
    const auto d = static_cast<AsId>(rng.next_below(n));
    auto m = static_cast<AsId>(rng.next_below(n));
    if (m == d) m = (m + 1) % n;
    const Query q{d, m, SecurityModel::kInsecure};
    const auto base = compute_baseline(g, d, m, lp);
    ReferenceSimulator ref(g, Deployment(n), lp);
    ASSERT_TRUE(ref.run(q, seed).converged);
    for (AsId v = 0; v < n; ++v) {
      if (v == d || v == m) continue;
      const auto& chosen = ref.chosen(v);
      ASSERT_EQ(base.has_route(v), chosen.has_value()) << "k=" << k << " " << v;
      if (!chosen.has_value()) continue;
      EXPECT_EQ(base.type(v), ref.route_type(v)) << "k=" << k << " AS " << v;
      EXPECT_EQ(base.length(v), chosen->path.size()) << "k=" << k << " AS " << v;
      if (ref.routes_to_attacker(v)) {
        EXPECT_TRUE(base.reaches_attacker(v)) << "k=" << k << " AS " << v;
      } else {
        EXPECT_TRUE(base.reaches_destination(v)) << "k=" << k << " AS " << v;
      }
    }
  }
}

// --- Seeded entry point and cached-normal hysteresis ------------------------

/// Byte-level comparison with per-AS diagnostics: operator== alone would
/// only say "differs somewhere".
void expect_outcome_identical(const RoutingOutcome& expected,
                              const RoutingOutcome& actual) {
  ASSERT_EQ(expected.num_ases(), actual.num_ases());
  for (AsId v = 0; v < expected.num_ases(); ++v) {
    SCOPED_TRACE("AS " + std::to_string(v));
    ASSERT_EQ(expected.type(v), actual.type(v));
    ASSERT_EQ(expected.length(v), actual.length(v));
    ASSERT_EQ(expected.reaches_destination(v), actual.reaches_destination(v));
    ASSERT_EQ(expected.reaches_attacker(v), actual.reaches_attacker(v));
    ASSERT_EQ(expected.secure_route(v), actual.secure_route(v));
    ASSERT_EQ(expected.next_toward(v, true), actual.next_toward(v, true));
    ASSERT_EQ(expected.next_toward(v, false), actual.next_toward(v, false));
  }
  EXPECT_TRUE(expected == actual);
}

TEST(SeededEngine, RejectsMalformedQueries) {
  util::Rng rng(5);
  const AsGraph g = random_gr_graph(30, rng);
  const Deployment dep(30);
  EngineWorkspace ws(30);
  RoutingOutcome baseline, out;
  compute_routing_into(g, {3, kNoAs, SecurityModel::kInsecure}, dep, ws,
                       baseline);
  // No attacker: the seeded path is for attacked queries only.
  EXPECT_FALSE(routing_seed_applicable({3, kNoAs, SecurityModel::kInsecure},
                                       dep));
  EXPECT_THROW(compute_routing_seeded_into(
                   g, {3, kNoAs, SecurityModel::kInsecure}, dep, ws, baseline,
                   out),
               std::invalid_argument);
  // Attacker == destination.
  EXPECT_THROW(compute_routing_seeded_into(
                   g, {3, 3, SecurityModel::kInsecure}, dep, ws, baseline, out),
               std::invalid_argument);
  // Baseline sized for a different graph.
  RoutingOutcome small;
  small.reset(7);
  EXPECT_THROW(compute_routing_seeded_into(
                   g, {3, 4, SecurityModel::kInsecure}, dep, ws, small, out),
               std::invalid_argument);
}

TEST(SeededEngine, HysteresisWithPrecomputedNormalMatchesRecomputing) {
  // The hysteresis overload taking a cached normal outcome must agree with
  // the self-recomputing overload — the sweep pipeline relies on it.
  const auto topo = topology::generate_small_internet(180, 33);
  const auto n = static_cast<std::uint32_t>(topo.graph.num_ases());
  util::Rng rng(8);
  const Deployment dep = random_deployment(n, 0.5, rng);
  EngineWorkspace ws(n);
  RoutingOutcome normal, recomputed, precomputed;
  for (const SecurityModel model : kAllSecurityModels) {
    for (int trial = 0; trial < 3; ++trial) {
      const auto d = static_cast<AsId>(rng.next_below(n));
      auto m = static_cast<AsId>(rng.next_below(n));
      if (m == d) m = (m + 1) % n;
      const Query q{d, m, model};
      compute_routing_into(topo.graph, {d, kNoAs, model}, dep, ws, normal);
      compute_routing_with_hysteresis_into(topo.graph, q, dep, ws, recomputed);
      compute_routing_with_hysteresis_into(topo.graph, q, dep, ws, normal,
                                           precomputed);
      SCOPED_TRACE(std::string(to_string(model)) + " d=" + std::to_string(d) +
                   " m=" + std::to_string(m));
      expect_outcome_identical(recomputed, precomputed);
    }
  }
}

TEST(EquivalenceSimplex, SimplexDeploymentMatches) {
  util::Rng rng(404);
  const AsGraph g = random_gr_graph(50, rng);
  const auto d = static_cast<AsId>(rng.next_below(50));
  auto m = static_cast<AsId>(rng.next_below(50));
  if (m == d) m = (m + 1) % 50;
  Deployment dep(50);
  for (AsId v = 0; v < 50; ++v) {
    if (!rng.chance(0.5)) continue;
    if (g.is_stub(v) && rng.chance(0.5)) {
      dep.simplex.insert(v);
    } else {
      dep.secure.insert(v);
    }
  }
  for (const SecurityModel model : kAllSecurityModels) {
    const Query q{d, m, model};
    const auto eng = compute_routing(g, q, dep);
    ReferenceSimulator ref(g, dep);
    ASSERT_TRUE(ref.run(q, 9).converged);
    expect_equivalent(g, eng, ref, q, std::string(to_string(model)));
  }
}

// --- Lane pass vs. scalar engine -------------------------------------------

/// Attackers for one lane pass on d: d's neighbours first (attackers
/// adjacent to d), then an AS with its neighbours (attackers adjacent to
/// each other), then random fill — `lanes` distinct ASes other than d.
std::vector<AsId> lane_attackers(const AsGraph& g, AsId d, std::size_t lanes,
                                 util::Rng& rng) {
  std::vector<AsId> out;
  std::vector<char> taken(g.num_ases(), 0);
  taken[d] = 1;
  const auto take = [&](AsId v) {
    if (out.size() < lanes && taken[v] == 0) {
      taken[v] = 1;
      out.push_back(v);
    }
  };
  for (const AsId v : g.neighbors(d)) {
    if (out.size() >= 3) break;
    take(v);
  }
  const auto hub = static_cast<AsId>(rng.next_below(g.num_ases()));
  take(hub);
  for (const AsId v : g.neighbors(hub)) take(v);
  while (out.size() < lanes) {
    take(static_cast<AsId>(rng.next_below(g.num_ases())));
  }
  return out;
}

/// Every lane's flag bytes, under S and under S = emptyset, must equal the
/// scalar engine's for the same query.
void expect_lanes_match_scalar(const AsGraph& g, AsId d,
                               const std::vector<AsId>& attackers,
                               SecurityModel model, const Deployment& dep,
                               EngineWorkspace& ws) {
  LanePass pass;
  pass.run(g, d, attackers, model, dep);
  ASSERT_EQ(pass.num_lanes(), attackers.size());
  std::vector<std::uint8_t> lane;
  std::vector<std::uint8_t> scalar;
  for (std::size_t k = 0; k < attackers.size(); ++k) {
    const AsId m = attackers[k];
    SCOPED_TRACE(std::string(to_string(model)) + " d=" + std::to_string(d) +
                 " m=" + std::to_string(m) + " lane " + std::to_string(k) +
                 "/" + std::to_string(attackers.size()));
    compute_routing_into(g, {d, m, model}, dep, ws, ws.primary);
    ws.primary.flags_into(scalar);
    pass.flags_into(k, LanePass::View::kDeployment, lane);
    ASSERT_EQ(lane, scalar) << "under S";
    compute_routing_into(g, {d, m, SecurityModel::kInsecure}, {}, ws,
                         ws.primary);
    ws.primary.flags_into(scalar);
    pass.flags_into(k, LanePass::View::kEmpty, lane);
    ASSERT_EQ(lane, scalar) << "under S = emptyset";
  }
}

/// Every lane's partition classes, from a pass run under `model` and
/// `dep`, must equal PartitionContext::classify for (d, m_k) on every AS
/// under each S*BGP model with the standard LP ladder.
void expect_lane_partitions_match_scalar(const AsGraph& g, AsId d,
                                         const std::vector<AsId>& attackers,
                                         SecurityModel model,
                                         const Deployment& dep,
                                         EngineWorkspace& ws) {
  LanePass pass;
  pass.run(g, d, attackers, model, dep);
  std::vector<std::uint8_t> lane;
  std::vector<std::uint8_t> scalar;
  for (const SecurityModel classes : kAllSecurityModels) {
    pass.partition(classes);
    for (std::size_t k = 0; k < attackers.size(); ++k) {
      const AsId m = attackers[k];
      SCOPED_TRACE(std::string(to_string(classes)) + " classes, pass under " +
                   std::string(to_string(model)) + " d=" + std::to_string(d) +
                   " m=" + std::to_string(m) + " lane " + std::to_string(k) +
                   "/" + std::to_string(attackers.size()));
      // LocalPrefPolicy{} is the standard ladder.
      security::PartitionContext(g, d, m, classes, {}, ws).classes_into(scalar);
      pass.partition_into(k, lane);
      ASSERT_EQ(lane, scalar);
    }
  }
}

/// Deployments equal to `dep` but with d signing and with d not signing.
std::pair<Deployment, Deployment> signed_and_unsigned(const Deployment& dep,
                                                      AsId d) {
  Deployment signed_dep = dep;
  signed_dep.secure.insert(d);
  Deployment unsigned_dep = dep;
  unsigned_dep.secure.erase(d);
  unsigned_dep.simplex.erase(d);
  return {std::move(signed_dep), std::move(unsigned_dep)};
}

/// Lane counts 1, 5, 31 and 32 on d (at most |V| - 1), under insecure BGP
/// and under each S*BGP model with d signing (secure stages for security
/// 1st/2nd) and not signing.
void check_lane_pass(const AsGraph& g, AsId d, const Deployment& dep,
                     util::Rng& rng) {
  const auto n = static_cast<std::uint32_t>(g.num_ases());
  const auto [signed_dep, unsigned_dep] = signed_and_unsigned(dep, d);
  EngineWorkspace ws(n);
  for (const std::size_t lanes : {1u, 5u, 31u, 32u}) {
    const auto attackers =
        lane_attackers(g, d, std::min<std::size_t>(lanes, n - 1), rng);
    expect_lanes_match_scalar(g, d, attackers, SecurityModel::kInsecure, dep,
                              ws);
    for (const SecurityModel model : kAllSecurityModels) {
      for (const Deployment* s : {&signed_dep, &unsigned_dep}) {
        expect_lanes_match_scalar(g, d, attackers, model, *s, ws);
      }
    }
  }
}

/// The partition classes of lane counts 1, 5, 31 and 32 on d, from passes
/// under each S*BGP model with d signing and not signing.
void check_lane_partitions(const AsGraph& g, AsId d, const Deployment& dep,
                           util::Rng& rng) {
  const auto n = static_cast<std::uint32_t>(g.num_ases());
  const auto [signed_dep, unsigned_dep] = signed_and_unsigned(dep, d);
  EngineWorkspace ws(n);
  for (const std::size_t lanes : {1u, 5u, 31u, 32u}) {
    const auto attackers =
        lane_attackers(g, d, std::min<std::size_t>(lanes, n - 1), rng);
    for (const SecurityModel model : kAllSecurityModels) {
      for (const Deployment* s : {&signed_dep, &unsigned_dep}) {
        expect_lane_partitions_match_scalar(g, d, attackers, model, *s, ws);
      }
    }
  }
}

TEST_P(EquivalenceTest, LanePassMatchesScalarOnRandomGraphs) {
  const auto [n, seed] = GetParam();
  util::Rng rng(seed + 4242);
  const AsGraph g = random_gr_graph(n, rng);
  for (int trial = 0; trial < 3; ++trial) {
    const auto d = static_cast<AsId>(rng.next_below(n));
    const Deployment dep = random_deployment(n, 0.45, rng);
    check_lane_pass(g, d, dep, rng);
  }
}

TEST(LanePass, MatchesScalarOnTiny500) {
  const auto topo = topology::generate_trial("tiny-500", 20130812, 0);
  const auto n = static_cast<std::uint32_t>(topo.graph.num_ases());
  util::Rng rng(77);
  for (int trial = 0; trial < 4; ++trial) {
    const auto d = static_cast<AsId>(rng.next_below(n));
    const Deployment dep = random_deployment(n, 0.4, rng);
    check_lane_pass(topo.graph, d, dep, rng);
  }
}

TEST_P(EquivalenceTest, LanePartitionsMatchScalarOnRandomGraphs) {
  const auto [n, seed] = GetParam();
  util::Rng rng(seed + 5353);
  const AsGraph g = random_gr_graph(n, rng);
  for (int trial = 0; trial < 3; ++trial) {
    const auto d = static_cast<AsId>(rng.next_below(n));
    const Deployment dep = random_deployment(n, 0.45, rng);
    check_lane_partitions(g, d, dep, rng);
  }
}

TEST(LanePass, PartitionsMatchScalarOnTiny500) {
  const auto topo = topology::generate_trial("tiny-500", 20130812, 0);
  const auto n = static_cast<std::uint32_t>(topo.graph.num_ases());
  util::Rng rng(78);
  for (int trial = 0; trial < 4; ++trial) {
    const auto d = static_cast<AsId>(rng.next_below(n));
    const Deployment dep = random_deployment(n, 0.4, rng);
    check_lane_partitions(topo.graph, d, dep, rng);
  }
}

TEST(LanePass, RejectsMalformedGroups) {
  util::Rng rng(6);
  const AsGraph g = random_gr_graph(60, rng);
  Deployment dep(60);
  dep.secure.insert(3);
  LanePass pass;
  const std::vector<AsId> one = {4};
  // Partitions before any pass.
  EXPECT_THROW(pass.partition(SecurityModel::kSecurityThird), std::logic_error);
  // Zero or more than kLaneWidth attackers.
  EXPECT_THROW(pass.run(g, 3, {}, SecurityModel::kInsecure, dep),
               std::invalid_argument);
  std::vector<AsId> too_many;
  for (AsId v = 10; v < 10 + kLaneWidth + 1; ++v) too_many.push_back(v);
  EXPECT_THROW(pass.run(g, 3, too_many, SecurityModel::kInsecure, dep),
               std::invalid_argument);
  // Attacker == destination, or out of range; bad destination.
  const std::vector<AsId> self = {4, 3};
  EXPECT_THROW(pass.run(g, 3, self, SecurityModel::kInsecure, dep),
               std::invalid_argument);
  const std::vector<AsId> out_of_range = {60};
  EXPECT_THROW(pass.run(g, 3, out_of_range, SecurityModel::kInsecure, dep),
               std::invalid_argument);
  EXPECT_THROW(pass.run(g, 60, one, SecurityModel::kInsecure, dep),
               std::invalid_argument);
  // Security 1st/2nd with an unsigned origin and security 3rd are fine.
  pass.run(g, 5, one, SecurityModel::kSecurityFirst, dep);
  pass.run(g, 3, one, SecurityModel::kSecurityThird, dep);
  std::vector<std::uint8_t> flags;
  EXPECT_THROW(pass.flags_into(1, LanePass::View::kEmpty, flags),
               std::out_of_range);
  // Partitions: none under insecure BGP, none read before partition() has
  // run on this pass, and no lane past the pass's.
  EXPECT_THROW(pass.partition(SecurityModel::kInsecure), std::invalid_argument);
  EXPECT_THROW(pass.partition_into(0, flags), std::logic_error);
  pass.partition(SecurityModel::kSecurityThird);
  EXPECT_THROW(pass.partition_into(1, flags), std::out_of_range);
}

// --- Golden outcome digest ---------------------------------------------------

void mix_outcome(util::Fingerprint& fp, const RoutingOutcome& o) {
  fp.mix(static_cast<std::uint64_t>(o.num_ases()));
  for (AsId v = 0; v < o.num_ases(); ++v) {
    fp.mix(static_cast<std::uint64_t>(o.packed_word(v)));
    fp.mix(static_cast<std::uint64_t>(o.next_toward(v, true)));
    fp.mix(static_cast<std::uint64_t>(o.next_toward(v, false)));
  }
}

void mix_distances(util::Fingerprint& fp, const PerceivableDistances& dist) {
  for (const auto* column : {&dist.customer, &dist.peer, &dist.provider}) {
    fp.mix(static_cast<std::uint64_t>(column->size()));
    for (const std::uint16_t len : *column) {
      fp.mix(static_cast<std::uint64_t>(len));
    }
  }
}

// The equivalence suites above compare tie-invariant fields or one engine
// against another, so none of them notices a changed representative next
// hop. These digests pin every byte each engine produces — packed words and
// both next-hop arrays — on one fixed tiny-500 sample, so a change to
// frontier order or tie handling that moves any next hop fails here. Each
// engine has its own literal: retiring or changing one engine moves only
// its own digest.

/// The sample every golden digest runs on: trial 0 of tiny-500, a 40%
/// random deployment and 8 destinations x 8 attackers, all drawn from
/// Rng(2013) in that order.
struct GoldenSample {
  topology::GeneratedTopology topo;
  Deployment dep;
  std::vector<std::pair<AsId, AsId>> pairs;  // (destination, attacker)
};

const GoldenSample& golden_sample() {
  static const GoldenSample sample = [] {
    GoldenSample s{topology::generate_trial("tiny-500", 20130812, 0), {}, {}};
    const auto n = static_cast<std::uint32_t>(s.topo.graph.num_ases());
    util::Rng rng(2013);
    s.dep = random_deployment(n, 0.4, rng);
    for (int di = 0; di < 8; ++di) {
      const auto d = static_cast<AsId>(rng.next_below(n));
      for (int mi = 0; mi < 8; ++mi) {
        auto m = static_cast<AsId>(rng.next_below(n));
        if (m == d) m = (m + 1) % n;
        s.pairs.emplace_back(d, m);
      }
    }
    return s;
  }();
  return sample;
}

TEST(EngineGolden, FullEngineDigestIsPinned) {
  const GoldenSample& s = golden_sample();
  const AsGraph& g = s.topo.graph;
  EngineWorkspace ws(g.num_ases());
  RoutingOutcome normal, attacked;
  util::Fingerprint fp;
  for (const auto& [d, m] : s.pairs) {
    for (const SecurityModel model : kAllSecurityModels) {
      compute_routing_into(g, {d, kNoAs, model}, s.dep, ws, normal);
      compute_routing_into(g, {d, m, model}, s.dep, ws, attacked);
      mix_outcome(fp, normal);
      mix_outcome(fp, attacked);
    }
  }
  EXPECT_EQ(fp.value(), 0x8c71acdb008d1afaull);
}

TEST(EngineGolden, SeededEngineDigestIsPinned) {
  const GoldenSample& s = golden_sample();
  const AsGraph& g = s.topo.graph;
  EngineWorkspace ws(g.num_ases());
  RoutingOutcome normal, seeded;
  util::Fingerprint fp;
  for (const auto& [d, m] : s.pairs) {
    for (const SecurityModel model : kAllSecurityModels) {
      const Query q{d, m, model};
      if (!routing_seed_applicable(q, s.dep)) continue;
      compute_routing_into(g, {d, kNoAs, model}, s.dep, ws, normal);
      compute_routing_seeded_into(g, q, s.dep, ws, normal, seeded);
      mix_outcome(fp, seeded);
    }
  }
  EXPECT_EQ(fp.value(), 0x13f0f34f6ef23953ull);
}

TEST(EngineGolden, HysteresisEngineDigestIsPinned) {
  const GoldenSample& s = golden_sample();
  const AsGraph& g = s.topo.graph;
  EngineWorkspace ws(g.num_ases());
  RoutingOutcome normal, hyst;
  util::Fingerprint fp;
  for (const auto& [d, m] : s.pairs) {
    for (const SecurityModel model : kAllSecurityModels) {
      compute_routing_into(g, {d, kNoAs, model}, s.dep, ws, normal);
      compute_routing_with_hysteresis_into(g, {d, m, model}, s.dep, ws, normal,
                                           hyst);
      mix_outcome(fp, hyst);
    }
  }
  EXPECT_EQ(fp.value(), 0xaf2811eb30bf0828ull);
}

TEST(EngineGolden, LpLadderDigestIsPinned) {
  const GoldenSample& s = golden_sample();
  const AsGraph& g = s.topo.graph;
  EngineWorkspace ws(g.num_ases());
  RoutingOutcome base;
  util::Fingerprint fp;
  for (const auto& [d, m] : s.pairs) {
    for (const LocalPrefPolicy lp :
         {LocalPrefPolicy::standard(), LocalPrefPolicy::lp_k(2)}) {
      compute_baseline_into(g, d, kNoAs, lp, ws, base);
      mix_outcome(fp, base);
      compute_baseline_into(g, d, m, lp, ws, base);
      mix_outcome(fp, base);
    }
  }
  EXPECT_EQ(fp.value(), 0x8bd91c5db74aad86ull);
}

TEST(EngineGolden, PerceivableDistancesDigestIsPinned) {
  const GoldenSample& s = golden_sample();
  util::Fingerprint fp;
  for (const auto& [d, m] : s.pairs) {
    mix_distances(fp, perceivable_distances(s.topo.graph, d));
    mix_distances(fp, perceivable_distances(s.topo.graph, m, 1));
  }
  EXPECT_EQ(fp.value(), 0xf01c942080c9076dull);
}

}  // namespace
}  // namespace sbgp::routing
