#include "routing/reach.h"

#include <algorithm>
#include <stdexcept>

namespace sbgp::routing {

std::pair<RouteType, std::uint16_t> PerceivableDistances::best(AsId v) const {
  if (customer[v] != kNoRouteLengthR) {
    return {RouteType::kCustomer, customer[v]};
  }
  if (peer[v] != kNoRouteLengthR) return {RouteType::kPeer, peer[v]};
  if (provider[v] != kNoRouteLengthR) {
    return {RouteType::kProvider, provider[v]};
  }
  return {RouteType::kNone, kNoRouteLengthR};
}

PerceivableDistances perceivable_distances(const AsGraph& g, AsId root,
                                           std::uint16_t root_length,
                                           AsId excluded) {
  PerceivableDistances dist;
  BucketQueue frontier;
  perceivable_distances_into(g, root, root_length, excluded, dist, frontier);
  return dist;
}

void perceivable_distances_into(const AsGraph& g, AsId root,
                                std::uint16_t root_length, AsId excluded,
                                PerceivableDistances& dist,
                                BucketQueue& frontier) {
  const std::size_t n = g.num_ases();
  if (root >= n) throw std::invalid_argument("perceivable_distances: bad root");
  constexpr auto kInf = PerceivableDistances::kNoRouteLengthR;
  dist.customer.assign(n, kInf);
  dist.peer.assign(n, kInf);
  dist.provider.assign(n, kInf);

  const auto skip = [&](AsId v) { return v == excluded || v == root; };

  // Customer routes: BFS up customer->provider edges. All hops comply with
  // Ex (each intermediate AS forwards a customer route, exportable to all).
  // Both BFS blocks write distances only, so order within a length is free.
  {
    BucketQueue& heap = frontier;
    heap.clear();
    for (const AsId p : g.providers(root)) {
      if (!skip(p)) heap.push(root_length + 1u, p);
    }
    while (!heap.empty()) {
      const auto [len, v] = heap.pop();
      if (dist.customer[v] != kInf) continue;
      dist.customer[v] = static_cast<std::uint16_t>(len);
      for (const AsId p : g.providers(v)) {
        if (!skip(p) && dist.customer[p] == kInf) heap.push(len + 1u, p);
      }
    }
  }

  // Peer routes: exactly one lateral hop off a customer route (an AS may
  // announce to a peer only customer routes or its own prefix).
  for (AsId v = 0; v < n; ++v) {
    if (skip(v)) continue;
    std::uint32_t best_len = kInf;
    for (const AsId u : g.peers(v)) {
      if (u == excluded) continue;
      const std::uint32_t base =
          u == root ? root_length : dist.customer[u];
      if (base != kInf) best_len = std::min(best_len, base + 1u);
    }
    if (best_len < kInf) dist.peer[v] = static_cast<std::uint16_t>(best_len);
  }

  // Provider routes: BFS down provider->customer edges; any perceivable
  // route (customer, peer or provider) may be exported to a customer.
  {
    BucketQueue& heap = frontier;
    heap.clear();
    const auto base_of = [&](AsId v) -> std::uint32_t {
      if (v == root) return root_length;
      std::uint32_t b = std::min<std::uint32_t>(dist.customer[v], dist.peer[v]);
      return std::min<std::uint32_t>(b, dist.provider[v]);
    };
    for (AsId v = 0; v < n; ++v) {
      if (v == excluded) continue;
      const std::uint32_t b = (v == root) ? root_length
                                          : std::min<std::uint32_t>(
                                                dist.customer[v], dist.peer[v]);
      if (b == kInf) continue;
      for (const AsId c : g.customers(v)) {
        if (!skip(c)) heap.push(b + 1u, c);
      }
    }
    while (!heap.empty()) {
      const auto [len, v] = heap.pop();
      if (dist.provider[v] <= len) continue;
      // Only an improvement over the node's existing perceivable base can
      // shorten downstream provider routes.
      if (len >= base_of(v)) continue;
      dist.provider[v] = static_cast<std::uint16_t>(len);
      for (const AsId c : g.customers(v)) {
        if (!skip(c)) heap.push(len + 1u, c);
      }
    }
  }
}

}  // namespace sbgp::routing
