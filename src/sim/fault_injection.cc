#include "sim/fault_injection.h"

#include <cstdlib>

#include "util/csv.h"
#include "util/rng.h"

namespace sbgp::sim {

namespace {

/// Rate in [0, 1] -> threshold on the SplitMix64 output: fire iff the
/// 64-bit draw is strictly below the threshold. rate >= 1 maps to the
/// all-ones threshold, firing for every draw but UINT64_MAX — close
/// enough to "always" that no deterministic test can tell the difference
/// for realistic fingerprints, and free of the overflow a direct
/// rate * 2^64 cast would hit.
[[nodiscard]] std::uint64_t rate_threshold(double rate) {
  if (rate <= 0.0) return 0;
  if (rate >= 1.0) return ~0ull;
  // rate < 1, so rate * 2^64 < 2^64: the cast cannot overflow.
  return static_cast<std::uint64_t>(rate * 18446744073709551616.0);
}

[[nodiscard]] double parse_rate(std::string_view key, std::string_view value) {
  const double rate = util::parse_double(value);  // strict decimal form
  if (!(rate >= 0.0) || !(rate <= 1.0)) {
    throw std::invalid_argument("parse_fault_spec: bad " + std::string(key) +
                                " rate '" + std::string(value) +
                                "' (want a number in [0, 1])");
  }
  return rate;
}

}  // namespace

FaultSpec parse_fault_spec(std::string_view text) {
  FaultSpec spec;
  if (text.empty()) return spec;
  spec.enabled = true;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string_view field = text.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument(
          "parse_fault_spec: field '" + std::string(field) +
          "' is not key=value (known keys: seed, unit, store)");
    }
    const std::string_view key = field.substr(0, eq);
    const std::string_view value = field.substr(eq + 1);
    if (key == "seed") {
      spec.seed = util::parse_u64(value);
    } else if (key == "unit") {
      spec.unit_rate = parse_rate(key, value);
    } else if (key == "store") {
      spec.store_rate = parse_rate(key, value);
    } else {
      throw std::invalid_argument("parse_fault_spec: unknown key '" +
                                  std::string(key) +
                                  "' (known keys: seed, unit, store)");
    }
    if (comma == text.size()) break;
  }
  return spec;
}

FaultSpec fault_spec_from_env() {
  const char* text = std::getenv("SBGP_FAULTS");
  if (text == nullptr) return {};
  return parse_fault_spec(text);
}

FaultInjector::FaultInjector(const FaultSpec& spec)
    : spec_(spec),
      unit_threshold_(rate_threshold(spec.unit_rate)),
      store_threshold_(rate_threshold(spec.store_rate)) {}

bool FaultInjector::should_fire(FaultSite site,
                                std::uint64_t fingerprint) const noexcept {
  if (!spec_.enabled) return false;
  const std::uint64_t threshold =
      site == FaultSite::kAnalysisUnit ? unit_threshold_ : store_threshold_;
  if (threshold == 0) return false;
  // Two mixing rounds so seed, site, and fingerprint each avalanche into
  // the draw independently of the others' values.
  const std::uint64_t draw = util::splitmix64(
      util::splitmix64(spec_.seed ^ static_cast<std::uint64_t>(site)) ^
      fingerprint);
  return draw < threshold;
}

void FaultInjector::maybe_throw(FaultSite site, std::uint64_t fingerprint,
                                const std::string& what) const {
  if (should_fire(site, fingerprint)) {
    throw FaultInjected("injected fault: " + what);
  }
}

}  // namespace sbgp::sim
