#include "routing/workspace.h"

namespace sbgp::routing {

void EngineWorkspace::reserve(std::size_t num_ases) {
  primary.reset(num_ases);
  normal.reset(num_ases);
  baseline.reset(num_ases);
  dest_baseline.normal.reset(num_ases);
  dest_baseline.context = 0;
  dest_baseline.has_normal = false;
  attacked_flags.reserve(num_ases);
  normal_flags.reserve(num_ases);
  empty_flags.reserve(num_ases);
  signer_flags.reserve(num_ases);
  fixed.reserve(num_ases);
  candidates.reserve(64);
  reach_d.customer.reserve(num_ases);
  reach_d.peer.reserve(num_ases);
  reach_d.provider.reserve(num_ases);
  reach_m.customer.reserve(num_ases);
  reach_m.peer.reserve(num_ases);
  reach_m.provider.reserve(num_ases);
}

}  // namespace sbgp::routing
