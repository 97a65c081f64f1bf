// Deterministic fault injector: spec parsing, rate edge cases, and the
// pure-function firing contract (same seed + site + fingerprint always
// agrees — the property that makes injected failures identical across
// worker counts, processes, and machines).
#include "sim/fault_injection.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

namespace sbgp::sim {
namespace {

TEST(FaultSpecParse, ParsesAllKeysInAnyOrder) {
  const FaultSpec spec = parse_fault_spec("store=0.25,seed=99,unit=0.5");
  EXPECT_TRUE(spec.enabled);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_DOUBLE_EQ(spec.unit_rate, 0.5);
  EXPECT_DOUBLE_EQ(spec.store_rate, 0.25);
}

TEST(FaultSpecParse, DefaultsAndPartialSpecs) {
  const FaultSpec unit_only = parse_fault_spec("unit=1");
  EXPECT_TRUE(unit_only.enabled);
  EXPECT_EQ(unit_only.seed, 0u);
  EXPECT_DOUBLE_EQ(unit_only.unit_rate, 1.0);
  EXPECT_DOUBLE_EQ(unit_only.store_rate, 0.0);
}

TEST(FaultSpecParse, EmptySpecIsDisabled) {
  EXPECT_FALSE(parse_fault_spec("").enabled);
}

TEST(FaultSpecParse, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_fault_spec("unit"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("bogus=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("unit=1.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("unit=-0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("unit=abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("unit=0.5,,"), std::invalid_argument);
  // Rates are plain decimals, parsed as strictly as every other number:
  // no whitespace, '+' sign or hexadecimal form (strtod took all three).
  EXPECT_THROW((void)parse_fault_spec("unit="), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("unit= 0.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("unit=0.5 "), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("unit=+0.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("unit=0x1p-1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("store=\t1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("unit=nan"), std::invalid_argument);
  EXPECT_DOUBLE_EQ(parse_fault_spec("unit=5e-1").unit_rate, 0.5);
  EXPECT_DOUBLE_EQ(parse_fault_spec("store=0").store_rate, 0.0);
  // Seeds are plain unsigned decimals: no sign, whitespace or overflow
  // (strtoull would read "-1" as 2^64 - 1).
  EXPECT_THROW((void)parse_fault_spec("seed="), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("seed=-1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("seed= -1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("seed=+7"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("seed= 7"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("seed=7 "), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("seed=18446744073709551616"),
               std::invalid_argument);
  EXPECT_EQ(parse_fault_spec("seed=18446744073709551615").seed,
            18446744073709551615ull);
}

TEST(FaultInjector, DisabledInjectorNeverFires) {
  const FaultInjector off;
  EXPECT_FALSE(off.enabled());
  for (std::uint64_t fp = 0; fp < 1000; ++fp) {
    EXPECT_FALSE(off.should_fire(FaultSite::kAnalysisUnit, fp));
    off.maybe_throw(FaultSite::kAnalysisUnit, fp, "never");
  }
}

TEST(FaultInjector, RateZeroNeverFiresRateOneAlwaysFires) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 7;
  spec.unit_rate = 0.0;
  spec.store_rate = 1.0;
  const FaultInjector injector(spec);
  for (std::uint64_t fp = 0; fp < 1000; ++fp) {
    EXPECT_FALSE(injector.should_fire(FaultSite::kAnalysisUnit, fp));
    EXPECT_TRUE(injector.should_fire(FaultSite::kCacheWrite, fp));
  }
  EXPECT_THROW(
      injector.maybe_throw(FaultSite::kCacheWrite, 1, "always"),
      FaultInjected);
}

TEST(FaultInjector, FiringIsAPureFunctionOfSeedSiteAndFingerprint) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 42;
  spec.unit_rate = 0.5;
  spec.store_rate = 0.5;
  const FaultInjector a(spec);
  const FaultInjector b(spec);
  std::size_t fired = 0;
  for (std::uint64_t fp = 1; fp <= 4000; ++fp) {
    const bool hit = a.should_fire(FaultSite::kAnalysisUnit, fp * 0x9e3779b9);
    // A second injector from the same spec — another process, another
    // worker count — must agree call for call.
    EXPECT_EQ(hit, b.should_fire(FaultSite::kAnalysisUnit, fp * 0x9e3779b9));
    if (hit) ++fired;
  }
  // At rate 0.5 over 4000 well-mixed fingerprints the hit count is a
  // binomial with stddev ~32; a window of ±6 sigma cannot flake.
  EXPECT_GT(fired, 1800u);
  EXPECT_LT(fired, 2200u);
}

TEST(FaultInjector, SitesAreIndependentChannels) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 5;
  spec.unit_rate = 0.5;
  spec.store_rate = 0.5;
  const FaultInjector injector(spec);
  std::size_t disagreements = 0;
  for (std::uint64_t fp = 1; fp <= 512; ++fp) {
    if (injector.should_fire(FaultSite::kAnalysisUnit, fp) !=
        injector.should_fire(FaultSite::kCacheWrite, fp)) {
      ++disagreements;
    }
  }
  // If the site were ignored, the two channels would agree everywhere.
  EXPECT_GT(disagreements, 0u);
}

TEST(FaultInjector, MaybeThrowCarriesTheCallerDescription) {
  FaultSpec spec;
  spec.enabled = true;
  spec.unit_rate = 1.0;
  const FaultInjector injector(spec);
  try {
    injector.maybe_throw(FaultSite::kAnalysisUnit, 3, "trial 1 spec 2");
    FAIL() << "expected FaultInjected";
  } catch (const FaultInjected& e) {
    EXPECT_NE(std::string(e.what()).find("trial 1 spec 2"),
              std::string::npos);
  }
}

TEST(FaultSpecEnv, ReadsAndValidatesEnvironmentVariable) {
  ASSERT_EQ(::setenv("SBGP_FAULTS", "seed=3,unit=0.75", 1), 0);
  const FaultSpec spec = fault_spec_from_env();
  EXPECT_TRUE(spec.enabled);
  EXPECT_EQ(spec.seed, 3u);
  EXPECT_DOUBLE_EQ(spec.unit_rate, 0.75);

  ASSERT_EQ(::setenv("SBGP_FAULTS", "nope", 1), 0);
  EXPECT_THROW((void)fault_spec_from_env(), std::invalid_argument);
  ASSERT_EQ(::setenv("SBGP_FAULTS", "seed=-1,unit=0.75", 1), 0);
  EXPECT_THROW((void)fault_spec_from_env(), std::invalid_argument);
  ASSERT_EQ(::setenv("SBGP_FAULTS", "seed=3,unit=+0.75", 1), 0);
  EXPECT_THROW((void)fault_spec_from_env(), std::invalid_argument);

  ASSERT_EQ(::unsetenv("SBGP_FAULTS"), 0);
  EXPECT_FALSE(fault_spec_from_env().enabled);
}

}  // namespace
}  // namespace sbgp::sim
