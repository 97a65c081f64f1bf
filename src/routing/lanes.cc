#include "routing/lanes.h"

#include <stdexcept>

#include "routing/engine.h"

namespace sbgp::routing {

// partition_into writes each class byte as 1 + immune - doomed.
static_assert(static_cast<int>(PartitionClass::kDoomed) == 0);
static_assert(static_cast<int>(PartitionClass::kProtectable) == 1);
static_assert(static_cast<int>(PartitionClass::kImmune) == 2);

LanePass::State LanePass::masked(const Entry& e) const {
  const State& s = st_[e.as];
  State m;
  m.reach_d = s.reach_d & e.lanes;
  m.reach_m = s.reach_m & e.lanes;
  m.reach_d_s = s.reach_d_s & e.lanes;
  m.reach_m_s = s.reach_m_s & e.lanes;
  m.secure = s.secure & e.lanes;
  return m;
}

void LanePass::offer(AsId p, const State& src) {
  State& s = st_[p];
  // Lanes fixed at an earlier level keep their route; lanes fixed at this
  // level take every candidate of the level.
  const Mask routed_before = (s.reach_d | s.reach_m) & ~s.fresh;
  const Mask c = (src.reach_d | src.reach_m) & ~routed_before;
  if (c == 0) return;
  if (s.fresh == 0) touched_.push_back(p);
  s.fresh |= c;
  s.reach_d |= src.reach_d & c;
  s.reach_m |= src.reach_m & c;
  s.reach_d_s |= src.reach_d_s & c;
  s.reach_m_s |= src.reach_m_s & c;
  s.secure |= src.secure & c;
}

void LanePass::settle(Levels& lists, std::size_t level) {
  if (touched_.empty()) return;
  add_level(level);
  std::vector<Entry>& next = lists[level];
  for (const AsId p : touched_) {
    State& s = st_[p];
    const Mask f = s.fresh;
    if (validating_ != nullptr && validating_->validates(p)) {
      // SecP tie-set restriction: with a secure candidate, only the secure
      // ones count, and those all reach d and never m.
      s.reach_m_s &= ~(f & s.secure);
    } else {
      s.secure &= ~f;
    }
    s.fresh = 0;
    next.push_back({p, f});
  }
  touched_.clear();
}

void LanePass::add_level(std::size_t level) {
  while (levels_ <= level) {
    if (exporting_.size() <= levels_) {
      exporting_.emplace_back();
      other_.emplace_back();
    }
    exporting_[levels_].clear();
    other_[levels_].clear();
    ++levels_;
  }
}

void LanePass::start(bool origin_secure) {
  st_.assign(g_->num_ases(), State{});
  levels_ = 0;
  add_level(1);
  // Roots: d announces "d" (length 0) in every lane, the normal one
  // included; attacker k announces the bogus "m, d" (length 1) over legacy
  // BGP in lane k only.
  const Mask all = attacker_lanes() | kNormalLane;
  State& root = st_[d_];
  root.reach_d = root.reach_d_s = all;
  root.secure = origin_secure ? all : 0;  // d signs; cleared in flags_into
  exporting_[0].push_back({d_, all});
  for (std::size_t k = 0; k < lanes_; ++k) {
    const Mask bit = Mask{1} << k;
    State& s = st_[attackers_[k]];
    s.reach_m |= bit;
    s.reach_m_s |= bit;
    exporting_[1].push_back({attackers_[k], bit});
  }
}

template <LanePass::Stage kStage, bool kSecure>
void LanePass::stage(const topology::AsGraph& g) {
  const auto visit = [&](const std::vector<Entry>& entries) {
    for (const Entry& e : entries) {
      State src;
      if constexpr (kSecure) {
        // A secure lane holds d's signed origin or a secure route; either
        // way it reaches d and never m.
        const Mask sec = st_[e.as].secure & e.lanes;
        if (sec == 0) continue;
        src.reach_d = src.reach_d_s = src.secure = sec;
      } else {
        src = masked(e);
      }
      std::span<const AsId> next;
      if constexpr (kStage == Stage::kCustomer) {
        next = g.providers(e.as);
      } else if constexpr (kStage == Stage::kPeer) {
        next = g.peers(e.as);
      } else {
        next = g.customers(e.as);
      }
      for (const AsId p : next) {
        if constexpr (kSecure) {
          if (!validating_->validates(p)) continue;
        }
        offer(p, src);
      }
    }
  };
  for (std::size_t level = 0; level < levels_; ++level) {
    visit(exporting_[level]);
    if constexpr (kStage == Stage::kProvider) visit(other_[level]);
    settle(kStage == Stage::kCustomer ? exporting_ : other_, level + 1);
  }
}

void LanePass::run(const topology::AsGraph& g, AsId d,
                   std::span<const AsId> attackers, SecurityModel model,
                   const Deployment& deployment) {
  const std::size_t n = g.num_ases();
  if (d >= n) throw std::invalid_argument("LanePass: bad destination");
  if (attackers.empty() || attackers.size() > kMaxLaneAttackers) {
    throw std::invalid_argument("LanePass: a pass takes 1 to 31 attackers");
  }
  for (const AsId m : attackers) {
    if (m >= n || m == d) throw std::invalid_argument("LanePass: bad attacker");
  }
  g_ = &g;
  d_ = d;
  lanes_ = attackers.size();
  attackers_.assign(attackers.begin(), attackers.end());
  partitioned_ = false;

  const bool signs = deployment.signs_origin(d);
  staged_ = signs && (model == SecurityModel::kSecurityFirst ||
                      model == SecurityModel::kSecuritySecond);
  if (staged_) {
    // The S sweep runs the secure stages in compute_routing_into's order.
    // Its insecure stages never offer a validating AS a secure candidate —
    // the secure stage before fixed that lane — so they run as in insecure
    // BGP (validating_ null: every route they fix is insecure).
    start(/*origin_secure=*/true);
    const auto secure = [&](auto run_stage) {
      validating_ = &deployment;
      run_stage();
      validating_ = nullptr;
    };
    if (model == SecurityModel::kSecurityFirst) {
      secure([&] {
        stage<Stage::kCustomer, true>(g);
        stage<Stage::kPeer, true>(g);
        stage<Stage::kProvider, true>(g);
      });
      stage<Stage::kCustomer, false>(g);
      stage<Stage::kPeer, false>(g);
      stage<Stage::kProvider, false>(g);
    } else {
      secure([&] { stage<Stage::kCustomer, true>(g); });
      stage<Stage::kCustomer, false>(g);
      secure([&] { stage<Stage::kPeer, true>(g); });
      stage<Stage::kPeer, false>(g);
      secure([&] { stage<Stage::kProvider, true>(g); });
      stage<Stage::kProvider, false>(g);
    }
    st_.swap(secure_st_);
  }

  // The shared sweep: S = emptyset, and S too unless staged. Secure routes
  // exist in it only in security 3rd with a signed origin; without them the
  // two flag sets coincide.
  const bool secure_routes = model == SecurityModel::kSecurityThird && signs;
  validating_ = secure_routes ? &deployment : nullptr;
  start(secure_routes);
  stage<Stage::kCustomer, false>(g);
  stage<Stage::kPeer, false>(g);
  peer_end_.resize(levels_);
  for (std::size_t level = 0; level < levels_; ++level) {
    peer_end_[level] = other_[level].size();
  }
  stage<Stage::kProvider, false>(g);
  validating_ = nullptr;
}

void LanePass::flags_into(std::size_t lane, View view,
                          std::vector<std::uint8_t>& out) const {
  if (lane >= lanes_) throw std::out_of_range("LanePass: no such lane");
  write_flags(lane, view, out);
}

void LanePass::normal_flags_into(std::vector<std::uint8_t>& out) const {
  if (g_ == nullptr) {
    throw std::logic_error("LanePass::normal_flags_into: no pass has run");
  }
  write_flags(kMaxLaneAttackers, View::kDeployment, out);
}

void LanePass::write_flags(std::size_t lane, View view,
                           std::vector<std::uint8_t>& out) const {
  const std::vector<State>& states =
      staged_ && view == View::kDeployment ? secure_st_ : st_;
  out.resize(states.size());
  // Plain pointers: a byte store may alias anything, so reading through
  // the vectors would reload their bounds on every iteration.
  const State* const st = states.data();
  std::uint8_t* const flags = out.data();
  const std::size_t n = states.size();
  const auto write = [&](auto reach_d, auto reach_m, auto secure) {
    for (std::size_t v = 0; v < n; ++v) {
      const Mask rd = (reach_d(st[v]) >> lane) & 1u;
      const Mask rm = (reach_m(st[v]) >> lane) & 1u;
      const Mask sec = (secure(st[v]) >> lane) & 1u;
      flags[v] = static_cast<std::uint8_t>((rd | rm) * kFlagRouted |
                                           rd * kFlagReachD |
                                           rm * kFlagReachM |
                                           sec * kFlagSecure);
    }
  };
  if (view == View::kEmpty) {
    write([](const State& s) { return s.reach_d; },
          [](const State& s) { return s.reach_m; },
          [](const State&) { return Mask{0}; });
  } else {
    write([](const State& s) { return s.reach_d_s; },
          [](const State& s) { return s.reach_m_s; },
          [](const State& s) { return s.secure; });
  }
  // The origin's own word is never secure (RoutingOutcome stores d as a
  // plain origin); its mask only seeded secure candidates.
  out[d_] &= static_cast<std::uint8_t>(~kFlagSecure);
}

void LanePass::perceivable_into(const topology::AsGraph& g,
                                std::span<const Entry> roots,
                                std::vector<Mask>& reach) {
  const std::size_t n = g.num_ases();
  reach.assign(n, 0);
  pending_.assign(n, 0);
  queue_.clear();
  const auto push = [&](AsId v, Mask lanes) {
    if (pending_[v] == 0) queue_.push_back(v);
    pending_[v] |= lanes;
  };
  // Drains the work list along one edge direction; a lane enters an AS at
  // most once.
  const auto close = [&](auto next) {
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const AsId v = queue_[i];
      const Mask lanes = pending_[v];
      pending_[v] = 0;
      for (const AsId u : next(v)) {
        const Mask fresh = lanes & ~(reach[u] | origin_[u]);
        if (fresh == 0) continue;
        reach[u] |= fresh;
        push(u, fresh);
      }
    }
    queue_.clear();
  };

  // Customer routes climb customer->provider edges from the roots.
  for (const Entry& r : roots) {
    reach[r.as] |= r.lanes;
    push(r.as, r.lanes);
  }
  close([&](AsId v) { return g.providers(v); });
  // Peer routes: one hop off a root or a customer route. Every hop is read
  // before any is added, since peer routes do not travel to peers.
  scratch_.resize(n);
  for (AsId v = 0; v < n; ++v) {
    Mask lanes = 0;
    for (const AsId u : g.peers(v)) lanes |= reach[u];
    scratch_[v] = lanes;
  }
  for (AsId v = 0; v < n; ++v) reach[v] |= scratch_[v] & ~origin_[v];
  // Provider routes descend from everything reached.
  for (AsId v = 0; v < n; ++v) {
    if (reach[v] != 0) push(v, reach[v]);
  }
  close([&](AsId v) { return g.customers(v); });
}

void LanePass::classify_second(const topology::AsGraph& g) {
  const std::size_t n = g.num_ases();
  const Mask all = attacker_lanes();
  // The route class each lane fixed with in the S = emptyset sweep:
  // exporting (origin or customer route), peer, or otherwise provider.
  std::vector<Mask>& exporting = pending_;
  std::vector<Mask>& peer = scratch_;
  exporting.assign(n, 0);
  peer.assign(n, 0);
  for (std::size_t level = 0; level < levels_; ++level) {
    for (const Entry& e : exporting_[level]) exporting[e.as] |= e.lanes;
  }
  for (std::size_t level = 0; level < peer_end_.size(); ++level) {
    for (std::size_t i = 0; i < peer_end_[level]; ++i) {
      peer[other_[level][i].as] |= other_[level][i].lanes;
    }
  }
  // Under the standard ladder a neighbour's route is on v's own rung iff it
  // arrives over v's route class: from an exporting customer, an exporting
  // peer, or any provider. immune: every such route reaches d and none m;
  // doomed: the reverse, or no route at all.
  const State* const st = st_.data();
  for (AsId v = 0; v < n; ++v) {
    Mask cust_d = 0, cust_m = 0;
    Mask peer_d = 0, peer_m = 0;
    Mask prov_d = 0, prov_m = 0;
    for (const AsId u : g.customers(v)) {
      cust_d |= exporting[u] & st[u].reach_d;
      cust_m |= exporting[u] & st[u].reach_m;
    }
    for (const AsId u : g.peers(v)) {
      peer_d |= exporting[u] & st[u].reach_d;
      peer_m |= exporting[u] & st[u].reach_m;
    }
    for (const AsId u : g.providers(v)) {
      prov_d |= st[u].reach_d;
      prov_m |= st[u].reach_m;
    }
    const Mask routed = st[v].reach_d | st[v].reach_m;
    const Mask provider = routed & ~(exporting[v] | peer[v]);
    const Mask rd =
        (cust_d & exporting[v]) | (peer_d & peer[v]) | (prov_d & provider);
    const Mask rm =
        (cust_m & exporting[v]) | (peer_m & peer[v]) | (prov_m & provider);
    immune_[v] = rd & ~rm;
    doomed_[v] = (rm & ~rd) | (all & ~routed);
  }
}

void LanePass::partition(SecurityModel model) {
  if (model == SecurityModel::kInsecure) {
    throw std::invalid_argument(
        "LanePass::partition: partitions are defined for S*BGP models only");
  }
  if (g_ == nullptr) {
    throw std::logic_error("LanePass::partition: no pass has run");
  }
  const topology::AsGraph& g = *g_;
  const std::size_t n = g.num_ases();
  const Mask all = attacker_lanes();
  immune_.resize(n);
  doomed_.resize(n);
  origin_.assign(n, 0);
  origin_[d_] = all;
  for (std::size_t k = 0; k < lanes_; ++k) {
    origin_[attackers_[k]] |= Mask{1} << k;
  }

  switch (model) {
    case SecurityModel::kSecurityFirst: {
      // Observations E.3/E.4: doomed iff d is perceivably unreachable once
      // m_k is removed; immune iff m_k is once d is removed.
      const Entry from_d{d_, all};
      perceivable_into(g, {&from_d, 1}, doomed_);
      Entry from_m[kMaxLaneAttackers];
      for (std::size_t k = 0; k < lanes_; ++k) {
        from_m[k] = {attackers_[k], Mask{1} << k};
      }
      perceivable_into(g, {from_m, lanes_}, immune_);
      for (AsId v = 0; v < n; ++v) {
        const Mask to_d = doomed_[v];
        const Mask to_m = immune_[v];
        doomed_[v] = all & ~to_d;
        immune_[v] = to_d & ~to_m;
      }
      break;
    }
    case SecurityModel::kSecuritySecond:
      classify_second(g);
      break;
    default: {
      // Security 3rd: the tie sets of the S = emptyset state decide.
      const State* const st = st_.data();
      for (AsId v = 0; v < n; ++v) {
        immune_[v] = st[v].reach_d & ~st[v].reach_m;
        doomed_[v] = all & ~st[v].reach_d;
      }
      break;
    }
  }
  // PartitionContext's placeholders: d is immune, m_k doomed in lane k.
  immune_[d_] = all;
  doomed_[d_] = 0;
  for (std::size_t k = 0; k < lanes_; ++k) {
    immune_[attackers_[k]] &= ~(Mask{1} << k);
    doomed_[attackers_[k]] |= Mask{1} << k;
  }
  partitioned_ = true;
}

void LanePass::partition_into(std::size_t lane,
                              std::vector<std::uint8_t>& out) const {
  if (lane >= lanes_) throw std::out_of_range("LanePass: no such lane");
  if (!partitioned_) {
    throw std::logic_error("LanePass::partition_into: call partition() first");
  }
  const std::size_t n = immune_.size();
  out.resize(n);
  const Mask* const immune = immune_.data();
  const Mask* const doomed = doomed_.data();
  std::uint8_t* const cls = out.data();
  for (std::size_t v = 0; v < n; ++v) {
    cls[v] = static_cast<std::uint8_t>(1u + ((immune[v] >> lane) & 1u) -
                                       ((doomed[v] >> lane) & 1u));
  }
}

}  // namespace sbgp::routing
