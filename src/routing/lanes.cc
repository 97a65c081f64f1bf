#include "routing/lanes.h"

#include <stdexcept>

#include "routing/engine.h"

namespace sbgp::routing {

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

void LanePass::run(const topology::AsGraph& g, AsId d,
                   std::span<const AsId> attackers, SecurityModel model,
                   const Deployment& deployment) {
  const std::size_t n = g.num_ases();
  if (d >= n) throw std::invalid_argument("LanePass: bad destination");
  if (attackers.empty() || attackers.size() > kLaneWidth) {
    throw std::invalid_argument("LanePass: a pass takes 1 to 32 attackers");
  }
  for (const AsId m : attackers) {
    if (m >= n || m == d) throw std::invalid_argument("LanePass: bad attacker");
  }
  if ((model == SecurityModel::kSecurityFirst ||
       model == SecurityModel::kSecuritySecond) &&
      deployment.signs_origin(d)) {
    throw std::invalid_argument(
        "LanePass: security 1st/2nd with a signed origin runs secure stages; "
        "use compute_routing_into");
  }

  // Secure routes exist only in security 3rd with a signed origin; without
  // them the two flag sets coincide.
  const bool secure_routes = model == SecurityModel::kSecurityThird &&
                             deployment.signs_origin(d);
  validating_ = secure_routes ? &deployment : nullptr;
  d_ = d;
  lanes_ = attackers.size();
  st_.assign(n, State{});
  levels_ = 0;
  add_level(1);

  // Roots: d announces "d" (length 0) in every lane; attacker k announces
  // the bogus "m, d" (length 1) over legacy BGP in lane k only.
  const Mask all = lanes_ == 32 ? ~Mask{0} : (Mask{1} << lanes_) - 1;
  State& root = st_[d];
  root.reach_d = root.reach_d_s = all;
  root.secure = secure_routes ? all : 0;  // d signs; cleared in flags_into
  exporting_[0].push_back({d, all});
  for (std::size_t k = 0; k < lanes_; ++k) {
    const Mask bit = Mask{1} << k;
    State& s = st_[attackers[k]];
    s.reach_m |= bit;
    s.reach_m_s |= bit;
    exporting_[1].push_back({attackers[k], bit});
  }

  // FCR: customer routes climb from the exporting entries of each level.
  for (std::size_t level = 0; level < levels_; ++level) {
    for (const Entry& e : exporting_[level]) {
      const State src = masked(e);
      for (const AsId p : g.providers(e.as)) offer(p, src);
    }
    settle(exporting_, level + 1);
  }
  // FPeeR: one sideways hop from the exporting entries, shortest first.
  for (std::size_t level = 0; level < levels_; ++level) {
    for (const Entry& e : exporting_[level]) {
      const State src = masked(e);
      for (const AsId p : g.peers(e.as)) offer(p, src);
    }
    settle(other_, level + 1);
  }
  // FPrvR: every route descends to customers, level by level.
  for (std::size_t level = 0; level < levels_; ++level) {
    for (const Levels* lists : {&exporting_, &other_}) {
      for (const Entry& e : (*lists)[level]) {
        const State src = masked(e);
        for (const AsId c : g.customers(e.as)) offer(c, src);
      }
    }
    settle(other_, level + 1);
  }
  validating_ = nullptr;
}

void LanePass::flags_into(std::size_t lane, View view,
                          std::vector<std::uint8_t>& out) const {
  if (lane >= lanes_) throw std::out_of_range("LanePass: no such lane");
  out.resize(st_.size());
  // Plain pointers: a byte store may alias anything, so reading through
  // the vectors would reload their bounds on every iteration.
  const State* const st = st_.data();
  std::uint8_t* const flags = out.data();
  const std::size_t n = st_.size();
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

}  // namespace sbgp::routing
