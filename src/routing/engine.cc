#include "routing/engine.h"

#include <cassert>
#include <stdexcept>

#include "routing/bucket_queue.h"
#include "routing/workspace.h"

namespace sbgp::routing {

namespace {

/// Mutable state threaded through the stage subroutines. All buffers are
/// borrowed from an EngineWorkspace so repeated queries reuse capacity.
struct Ctx {
  const AsGraph& g;
  const Deployment& dep;
  SecurityModel model;
  AsId d;
  AsId m;  // kNoAs when no attack
  std::vector<std::uint8_t>& fixed;
  BucketQueue& frontier;
  RoutingOutcome& out;

  Ctx(const AsGraph& graph, const Deployment& deployment, SecurityModel mdl,
      AsId dest, AsId attacker, EngineWorkspace& ws, RoutingOutcome& result)
      : g(graph),
        dep(deployment),
        model(mdl),
        d(dest),
        m(attacker),
        fixed(ws.fixed),
        frontier(ws.frontier),
        out(result) {
    fixed.assign(graph.num_ases(), 0);
    out.reset(graph.num_ases());
  }

  /// SecP applies at v? (Baseline ignores the deployment entirely.)
  [[nodiscard]] bool validates(AsId v) const noexcept {
    return model != SecurityModel::kInsecure && dep.validates(v);
  }

  /// Can u's announcement extend a secure route? Origins must sign (the
  /// attacker's bogus origination is legacy BGP, never secure); transit
  /// nodes must themselves hold a secure route and validate.
  [[nodiscard]] bool secure_source(AsId u) const noexcept {
    if (out.type(u) == RouteType::kOrigin) {
      return u == d && model != SecurityModel::kInsecure && dep.signs_origin(d);
    }
    return out.secure_route(u);
  }

  /// May u's current route be announced to a provider or peer of u?
  /// (Export rule Ex: only customer routes and own prefixes propagate
  /// upward or sideways.)
  [[nodiscard]] bool exports_up(AsId u) const noexcept {
    return out.type(u) == RouteType::kOrigin ||
           out.type(u) == RouteType::kCustomer;
  }
};

/// One tie-break-equivalent candidate group accumulated at fix time.
struct Candidates {
  bool any = false;
  bool any_secure = false;
  bool reach_d = false;
  bool reach_m = false;
  bool reach_d_secure = false;
  bool reach_m_secure = false;
  AsId nh_d = kNoAs;
  AsId nh_m = kNoAs;
  AsId nh_d_secure = kNoAs;
  AsId nh_m_secure = kNoAs;

  void add(const Ctx& ctx, AsId via, bool secure) {
    any = true;
    const bool to_d = ctx.out.type(via) == RouteType::kOrigin
                          ? via == ctx.d
                          : ctx.out.reaches_destination(via);
    const bool to_m = ctx.out.type(via) == RouteType::kOrigin
                          ? via == ctx.m
                          : ctx.out.reaches_attacker(via);
    if (to_d) {
      reach_d = true;
      if (nh_d == kNoAs) nh_d = via;
    }
    if (to_m) {
      reach_m = true;
      if (nh_m == kNoAs) nh_m = via;
    }
    if (secure) {
      any_secure = true;
      if (to_d) {
        reach_d_secure = true;
        if (nh_d_secure == kNoAs) nh_d_secure = via;
      }
      if (to_m) {
        reach_m_secure = true;
        if (nh_m_secure == kNoAs) nh_m_secure = via;
      }
    }
  }

  /// Applies the SecP tie-set restriction and fixes v.
  ///
  /// In the security 3rd model a validating AS keeps only the secure routes
  /// from its most-preferred (type, length) set. In the other models a
  /// validating AS can never see a mix of secure and insecure candidates in
  /// the insecure stages (secure options would have fixed it in an earlier
  /// FS* stage), so the restriction is vacuous there.
  void fix(Ctx& ctx, AsId v, RouteType t, std::uint16_t len) const {
    assert(any);
    bool use_secure_only = false;
    if (ctx.validates(v) && any_secure) {
      use_secure_only = true;
      assert(ctx.model == SecurityModel::kSecurityThird ||
             (reach_d == reach_d_secure && reach_m == reach_m_secure));
    }
    if (use_secure_only) {
      ctx.out.fix(v, t, len, reach_d_secure, reach_m_secure, /*secure=*/true,
                  nh_d_secure, nh_m_secure);
    } else {
      ctx.out.fix(v, t, len, reach_d, reach_m, /*secure=*/false, nh_d, nh_m);
    }
    ctx.fixed[v] = 1;
  }
};

/// FCR / FSCR: customer routes propagate from the roots up the
/// customer->provider hierarchy; shortest are fixed first (Appendix B.2).
/// With `secure_only`, only validating ASes and fully secure routes take
/// part (FSCR). Pop order within one length is free: every candidate of a
/// length-len route has length len-1, so it was fixed in an earlier bucket.
void customer_stage(Ctx& ctx, bool secure_only) {
  BucketQueue& heap = ctx.frontier;
  heap.clear();
  const auto push_providers = [&](AsId u) {
    for (const AsId p : ctx.g.providers(u)) {
      if (ctx.fixed[p]) continue;
      if (secure_only && !ctx.validates(p)) continue;
      heap.push(ctx.out.length(u) + 1u, p);
    }
  };
  for (AsId u = 0; u < ctx.g.num_ases(); ++u) {
    if (!ctx.fixed[u] || !ctx.exports_up(u)) continue;
    if (secure_only && !ctx.secure_source(u)) continue;
    push_providers(u);
  }
  while (!heap.empty()) {
    const auto [len, v] = heap.pop();
    if (ctx.fixed[v]) continue;
    Candidates cands;
    for (const AsId c : ctx.g.customers(v)) {
      if (!ctx.fixed[c] || !ctx.exports_up(c)) continue;
      if (ctx.out.length(c) + 1u != len) continue;
      const bool secure = ctx.validates(v) && ctx.secure_source(c);
      if (secure_only && !secure) continue;
      cands.add(ctx, c, secure);
    }
    assert(cands.any);
    cands.fix(ctx, v, RouteType::kCustomer, static_cast<std::uint16_t>(len));
    push_providers(v);
  }
}

/// FPeeR / FSPeeR: peer routes are only ever learned from neighbors that
/// hold customer routes (or originate), so a single sweep suffices — peer
/// routes never enable further peer routes (Appendix B.2).
void peer_stage(Ctx& ctx, bool secure_only) {
  for (AsId v = 0; v < ctx.g.num_ases(); ++v) {
    if (ctx.fixed[v]) continue;
    if (secure_only && !ctx.validates(v)) continue;

    // First pass: determine the preferred (security, length) bucket.
    std::uint32_t best_len = kNoRouteLength;
    std::uint32_t best_secure_len = kNoRouteLength;
    for (const AsId u : ctx.g.peers(v)) {
      if (!ctx.fixed[u] || !ctx.exports_up(u)) continue;
      const std::uint32_t len = ctx.out.length(u) + 1u;
      const bool secure = ctx.validates(v) && ctx.secure_source(u);
      if (secure_only && !secure) continue;
      best_len = std::min(best_len, len);
      if (secure) best_secure_len = std::min(best_secure_len, len);
    }
    if (best_len == kNoRouteLength) continue;

    // Security 2nd ranks SecP above SP: any secure peer route beats every
    // insecure one. (In security 1st's insecure phase no secure candidates
    // can remain; in 3rd security only breaks length ties.)
    const bool prefer_secure_bucket =
        (secure_only || (ctx.model == SecurityModel::kSecuritySecond &&
                         best_secure_len != kNoRouteLength));
    const std::uint32_t chosen_len =
        prefer_secure_bucket ? best_secure_len : best_len;

    Candidates cands;
    for (const AsId u : ctx.g.peers(v)) {
      if (!ctx.fixed[u] || !ctx.exports_up(u)) continue;
      const std::uint32_t len = ctx.out.length(u) + 1u;
      if (len != chosen_len) continue;
      const bool secure = ctx.validates(v) && ctx.secure_source(u);
      if ((secure_only || prefer_secure_bucket) && !secure) continue;
      cands.add(ctx, u, secure);
    }
    assert(cands.any);
    cands.fix(ctx, v, RouteType::kPeer, static_cast<std::uint16_t>(chosen_len));
  }
}

/// FPrvR / FSPrvR: provider routes propagate down provider->customer edges
/// from every already-fixed AS (all route types export to customers);
/// shortest fixed first (Appendix B.2). Pop order within one length is
/// free: every candidate of a length-len route has length len-1, so it was
/// fixed in an earlier bucket.
void provider_stage(Ctx& ctx, bool secure_only) {
  BucketQueue& heap = ctx.frontier;
  heap.clear();
  const auto push_customers = [&](AsId u) {
    for (const AsId c : ctx.g.customers(u)) {
      if (ctx.fixed[c]) continue;
      if (secure_only && !ctx.validates(c)) continue;
      heap.push(ctx.out.length(u) + 1u, c);
    }
  };
  for (AsId u = 0; u < ctx.g.num_ases(); ++u) {
    if (!ctx.fixed[u]) continue;
    if (secure_only && !ctx.secure_source(u)) continue;
    push_customers(u);
  }
  while (!heap.empty()) {
    const auto [len, v] = heap.pop();
    if (ctx.fixed[v]) continue;
    Candidates cands;
    for (const AsId p : ctx.g.providers(v)) {
      if (!ctx.fixed[p]) continue;
      if (ctx.out.length(p) + 1u != len) continue;
      const bool secure = ctx.validates(v) && ctx.secure_source(p);
      if (secure_only && !secure) continue;
      cands.add(ctx, p, secure);
    }
    assert(cands.any);
    cands.fix(ctx, v, RouteType::kProvider, static_cast<std::uint16_t>(len));
    push_customers(v);
  }
}

}  // namespace

std::vector<AsId> RoutingOutcome::representative_path(
    AsId v, bool toward_destination) const {
  std::vector<AsId> path;
  AsId cur = v;
  path.push_back(cur);
  while (type(cur) != RouteType::kOrigin) {
    const AsId next =
        toward_destination ? next_toward_d_[cur] : next_toward_m_[cur];
    if (next == kNoAs) {
      throw std::logic_error(
          "representative_path: no path toward requested root");
    }
    cur = next;
    path.push_back(cur);
  }
  return path;
}

namespace {

/// Runs the model's stage pipeline over whatever is already fixed in ctx.
void run_stages(Ctx& ctx, const Query& q, const Deployment& deployment) {
  const bool secure_routes_possible =
      q.model != SecurityModel::kInsecure &&
      deployment.signs_origin(q.destination);

  switch (q.model) {
    case SecurityModel::kInsecure:
    case SecurityModel::kSecurityThird:
      customer_stage(ctx, /*secure_only=*/false);
      peer_stage(ctx, /*secure_only=*/false);
      provider_stage(ctx, /*secure_only=*/false);
      break;
    case SecurityModel::kSecuritySecond:
      if (secure_routes_possible) customer_stage(ctx, /*secure_only=*/true);
      customer_stage(ctx, /*secure_only=*/false);
      peer_stage(ctx, /*secure_only=*/false);
      if (secure_routes_possible) provider_stage(ctx, /*secure_only=*/true);
      provider_stage(ctx, /*secure_only=*/false);
      break;
    case SecurityModel::kSecurityFirst:
      if (secure_routes_possible) {
        customer_stage(ctx, /*secure_only=*/true);
        peer_stage(ctx, /*secure_only=*/true);
        provider_stage(ctx, /*secure_only=*/true);
      }
      customer_stage(ctx, /*secure_only=*/false);
      peer_stage(ctx, /*secure_only=*/false);
      provider_stage(ctx, /*secure_only=*/false);
      break;
  }
}

/// Validates the query and installs the two roots: d announces "d" (length
/// 0); the attacker announces the bogus one-hop-longer "m, d" via legacy
/// BGP (length 1), Section 3.1.
Ctx make_context(const AsGraph& g, const Query& q, const Deployment& deployment,
                 EngineWorkspace& ws, RoutingOutcome& result) {
  const std::size_t n = g.num_ases();
  if (q.destination >= n) {
    throw std::invalid_argument("compute_routing: bad destination");
  }
  if (q.attacker != kNoAs && (q.attacker >= n || q.attacker == q.destination)) {
    throw std::invalid_argument("compute_routing: bad attacker");
  }
  Ctx ctx(g, deployment, q.model, q.destination, q.attacker, ws, result);
  ctx.out.fix(q.destination, RouteType::kOrigin, 0, /*reach_d=*/true,
              /*reach_m=*/false, /*secure=*/false, kNoAs, kNoAs);
  ctx.fixed[q.destination] = 1;
  if (q.attacker != kNoAs) {
    ctx.out.fix(q.attacker, RouteType::kOrigin, 1, /*reach_d=*/false,
                /*reach_m=*/true, /*secure=*/false, kNoAs, kNoAs);
    ctx.fixed[q.attacker] = 1;
  }
  return ctx;
}

}  // namespace

void compute_routing_into(const AsGraph& g, const Query& q,
                          const Deployment& deployment, EngineWorkspace& ws,
                          RoutingOutcome& result) {
  Ctx ctx = make_context(g, q, deployment, ws, result);
  run_stages(ctx, q, deployment);
}

const RoutingOutcome& compute_routing(const AsGraph& g, const Query& q,
                                      const Deployment& deployment,
                                      EngineWorkspace& ws) {
  compute_routing_into(g, q, deployment, ws, ws.primary);
  return ws.primary;
}

RoutingOutcome compute_routing(const AsGraph& g, const Query& q,
                               const Deployment& deployment) {
  EngineWorkspace ws;
  compute_routing_into(g, q, deployment, ws, ws.primary);
  return std::move(ws.primary);
}

namespace {

/// Shared hysteresis core: attack outcome given the (caller-provided)
/// pre-attack stable state.
void hysteresis_from_normal(const AsGraph& g, const Query& q,
                            const Deployment& deployment, EngineWorkspace& ws,
                            const RoutingOutcome& normal,
                            RoutingOutcome& result) {
  assert(&result != &normal);
  Ctx ctx = make_context(g, q, deployment, ws, result);
  // Pin every secure route whose path avoids the attacker: with
  // hysteresis, an AS does not abandon a working secure route just because
  // a "better" insecure one shows up (the Section 8 proposal). Pinned
  // routes are consistent with each other because a secure route's whole
  // suffix is itself a pinned secure route.
  for (AsId v = 0; v < g.num_ases(); ++v) {
    if (ctx.fixed[v] || !normal.secure_route(v)) continue;
    // Walk the representative path toward d hop by hop (no allocation);
    // the attacker can only appear as a transit node of the normal state.
    bool via_attacker = false;
    AsId cur = v;
    while (normal.type(cur) != RouteType::kOrigin) {
      const AsId next = normal.next_toward(cur, /*toward_destination=*/true);
      if (next == kNoAs) {
        throw std::logic_error(
            "compute_routing_with_hysteresis: broken secure route");
      }
      cur = next;
      if (cur == q.attacker) {
        via_attacker = true;
        break;
      }
    }
    if (via_attacker) {
      continue;  // the attacker sits on the route: hysteresis cannot help
    }
    ctx.out.fix(v, normal.type(v), normal.length(v), /*reach_d=*/true,
                /*reach_m=*/false, /*secure=*/true,
                normal.next_toward(v, /*toward_destination=*/true), kNoAs);
    ctx.fixed[v] = 1;
  }
  run_stages(ctx, q, deployment);
}

}  // namespace

void compute_routing_with_hysteresis_into(const AsGraph& g, const Query& q,
                                          const Deployment& deployment,
                                          EngineWorkspace& ws,
                                          RoutingOutcome& result) {
  if (!q.under_attack()) {
    compute_routing_into(g, q, deployment, ws, result);
    return;
  }
  assert(&result != &ws.normal);

  // Normal conditions first: which ASes hold secure routes to d?
  const Query normal_q{q.destination, kNoAs, q.model};
  compute_routing_into(g, normal_q, deployment, ws, ws.normal);
  hysteresis_from_normal(g, q, deployment, ws, ws.normal, result);
}

void compute_routing_with_hysteresis_into(const AsGraph& g, const Query& q,
                                          const Deployment& deployment,
                                          EngineWorkspace& ws,
                                          const RoutingOutcome& normal,
                                          RoutingOutcome& result) {
  if (!q.under_attack()) {
    compute_routing_into(g, q, deployment, ws, result);
    return;
  }
  hysteresis_from_normal(g, q, deployment, ws, normal, result);
}

bool routing_seed_applicable(const Query& q, const Deployment& deployment) {
  // No secure stage runs: kInsecure and kSecurityThird never run FS*
  // stages (security only breaks ties), and an unsigned origin disables
  // them in the other two models.
  return q.under_attack() &&
         (q.model == SecurityModel::kInsecure ||
          q.model == SecurityModel::kSecurityThird ||
          !deployment.signs_origin(q.destination));
}

void compute_routing_seeded_into(const AsGraph& g, const Query& q,
                                 const Deployment& deployment,
                                 EngineWorkspace& ws,
                                 const RoutingOutcome& baseline,
                                 RoutingOutcome& result) {
  const std::size_t n = g.num_ases();
  if (q.destination >= n) {
    throw std::invalid_argument("compute_routing_seeded_into: bad destination");
  }
  if (q.attacker == kNoAs || q.attacker >= n ||
      q.attacker == q.destination) {
    throw std::invalid_argument("compute_routing_seeded_into: bad attacker");
  }
  if (!routing_seed_applicable(q, deployment)) {
    throw std::invalid_argument(
        "compute_routing_seeded_into: secure routes through the attacker "
        "could be displaced under this model; use compute_routing_into");
  }
  if (baseline.num_ases() != n) {
    throw std::invalid_argument(
        "compute_routing_seeded_into: baseline/graph size mismatch");
  }
  compute_routing_into(g, q, deployment, ws, result);
}

const RoutingOutcome& compute_routing_with_hysteresis(
    const AsGraph& g, const Query& q, const Deployment& deployment,
    EngineWorkspace& ws) {
  compute_routing_with_hysteresis_into(g, q, deployment, ws, ws.primary);
  return ws.primary;
}

RoutingOutcome compute_routing_with_hysteresis(const AsGraph& g,
                                               const Query& q,
                                               const Deployment& deployment) {
  EngineWorkspace ws;
  compute_routing_with_hysteresis_into(g, q, deployment, ws, ws.primary);
  return std::move(ws.primary);
}

}  // namespace sbgp::routing
