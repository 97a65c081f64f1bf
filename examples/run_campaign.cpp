// Runs a small multi-topology campaign and serializes the result rows —
// the end-to-end demo of the campaign layer and the CI smoke workload.
//
// The suite mixes a heavy all-analyses spec with light single-analysis
// specs across three scenarios; every trial regenerates the topology from
// a SplitMix-derived seed. Per-trial rows (raw integer counters) go to the
// CSV path when given; the aggregated mean ± stderr table prints to
// stdout. After writing, every file is read back and compared to the
// in-memory rows, so a serialization regression fails the run loudly.
//
// With --cache-dir, computed rows persist to a campaign result cache
// (sim/campaign_cache.h) and later identical runs serve every (trial,
// spec) cell from it without touching the engine; --expect-cached turns a
// cache miss into a failure — how CI asserts its warm re-run was free.
// Failed cells (crashed units, injected faults, merge-only misses) are
// listed on stderr and turn the exit status to 3: the surviving rows are
// still written, so a re-run against the same cache dir resumes from them.
//
// With --target-stderr the campaign runs adaptively: trials are scheduled
// in waves (--wave) and every spec stops as soon as each aggregated
// metric's standard error reaches the target — or the budget
// (--max-trials, default the positional trial count) runs out. The
// per-spec stopping report prints realized trial counts and reasons.
// --stream writes the per-trial CSV incrementally as cells complete (byte-
// identical to the end-of-run writer); --agg writes the aggregated rows
// (with the stopping_reason column) for statistical gating with
// campaign_diff --adaptive.
//
// With --topology-file NAME=PATH a CAIDA serial-2 AS-relationship file is
// registered as a file-backed topology (topology/io.h): every trial runs
// on the loaded graph (its content hash is the topology fingerprint) with
// per-trial pair samples. --traffic applies a sim/traffic.h model spec
// (e.g. 'gravity,seed=7') to every experiment; non-uniform models emit the
// weighted per-trial schema (w_ columns).
//
//   ./example_run_campaign [topology] [trials] [samples] [csv]
//                          [--cache-dir DIR] [--expect-cached]
//                          [--shard I/N] [--merge-only] [--faults SPEC]
//                          [--target-stderr X] [--max-trials N] [--wave N]
//                          [--stream PATH] [--agg PATH]
//                          [--topology-file NAME=PATH] [--traffic SPEC]
//                          [--help]
//
// Exit status: 0 clean, 1 round-trip or --expect-cached failure, 2 usage
// or configuration error, 3 completed with failed or missing cells.
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "deployment/scenario.h"
#include "sim/campaign.h"
#include "sim/campaign_io.h"
#include "sim/traffic.h"
#include "topology/registry.h"
#include "util/csv.h"
#include "util/table.h"

namespace {

/// A count argument: ASCII digits only (no sign, no whitespace), between 1
/// and 1e9. nullopt otherwise.
std::optional<std::size_t> parse_count(const std::string& text) {
  try {
    const std::uint64_t v = sbgp::util::parse_u64(text);
    if (v >= 1 && v <= 1'000'000'000u) return static_cast<std::size_t>(v);
  } catch (const std::invalid_argument&) {
  }
  return std::nullopt;
}

void print_usage(std::ostream& os) {
  os << "usage: example_run_campaign [topology] [trials] [samples]"
        " [csv]\n"
        "                            [--cache-dir DIR] [--expect-cached]\n"
        "                            [--shard I/N] [--merge-only]"
        " [--faults SPEC]\n"
        "                            [--target-stderr X] [--max-trials N]"
        " [--wave N]\n"
        "                            [--stream PATH] [--agg PATH]\n"
        "                            [--topology-file NAME=PATH]"
        " [--traffic SPEC]\n"
        "                            [--help]\n"
        "\n"
        "  topology   registered topology name (default small-2k)\n"
        "  trials     number of generated topologies (default 2)\n"
        "  samples    attackers and destinations per spec (default 8)\n"
        "  csv        write per-trial rows to this path and verify the\n"
        "             round trip\n"
        "  --cache-dir DIR   persist/serve per-trial rows from a campaign\n"
        "                    result cache under DIR\n"
        "  --expect-cached   fail unless every (trial, spec) cell was a\n"
        "                    cache hit (no engine work)\n"
        "  --shard I/N       compute only the cells assigned to shard I of\n"
        "                    N (0-based; needs --cache-dir)\n"
        "  --merge-only      assemble rows purely from cache hits; missing\n"
        "                    cells are reported, nothing is computed\n"
        "  --faults SPEC     deterministic fault injection, e.g.\n"
        "                    'seed=7,unit=0.35,store=0.5' (also read from\n"
        "                    the SBGP_FAULTS environment variable)\n"
        "  --target-stderr X adaptive sequential stopping: schedule trials\n"
        "                    in waves and stop each spec once every\n"
        "                    aggregated metric's stderr is <= X\n"
        "  --max-trials N    adaptive trial budget (default: the trials\n"
        "                    argument); needs --target-stderr\n"
        "  --wave N          trials per wave (default: 4 when adaptive,\n"
        "                    all trials in one wave otherwise)\n"
        "  --stream PATH     stream per-trial CSV rows to PATH as cells\n"
        "                    complete (byte-identical to the csv output)\n"
        "  --agg PATH        write aggregated rows (stopping_reason column\n"
        "                    included) as CSV to PATH\n"
        "  --topology-file NAME=PATH\n"
        "                    register the CAIDA serial-2 AS-relationship\n"
        "                    file at PATH as file-backed topology NAME\n"
        "                    (usable as the topology argument; its content\n"
        "                    hash is the topology fingerprint)\n"
        "  --traffic SPEC    per-pair traffic model for every experiment:\n"
        "                    'uniform', 'uniform,scale=N' or\n"
        "                    'gravity[,seed=S][,max-mass=M][,scale=K]';\n"
        "                    non-uniform models add the weighted (w_)\n"
        "                    columns to the per-trial outputs\n"
        "\n"
        "trials, samples, --max-trials and --wave take plain decimal\n"
        "integers from 1 to 1e9; I and N of --shard are plain decimal too.\n"
        "No sign, space or other character is accepted.\n"
        "\n"
        "exit status: 0 clean, 1 round-trip/--expect-cached failure,\n"
        "             2 usage error, 3 failed or missing cells\n"
        "\n"
        "registered topologies:\n";
  for (const auto& def : sbgp::topology::topology_registry()) {
    os << "  " << def.name << "  —  " << def.description << '\n';
  }
  os << "registered scenarios:\n";
  for (const auto& def : sbgp::deployment::scenario_registry()) {
    os << "  " << def.name << "  —  " << def.description << '\n';
  }
}

int run(int argc, char** argv) {
  using namespace sbgp;
  sim::CampaignSpec campaign;
  campaign.topology = "small-2k";
  campaign.trials = 2;
  campaign.seed = 20130812;
  std::size_t samples = 8;
  bool expect_cached = false;
  std::string stream_path;
  std::string agg_path;
  sim::TrafficModel traffic;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    }
    if (arg == "--expect-cached") {
      expect_cached = true;
      continue;
    }
    if (arg == "--merge-only") {
      campaign.merge_only = true;
      continue;
    }
    if (arg == "--cache-dir" || arg == "--faults" || arg == "--shard" ||
        arg == "--target-stderr" || arg == "--max-trials" || arg == "--wave" ||
        arg == "--stream" || arg == "--agg" || arg == "--topology-file" ||
        arg == "--traffic") {
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " needs an argument\n\n";
        print_usage(std::cerr);
        return 2;
      }
      const std::string value = argv[++i];
      if (arg == "--cache-dir") {
        campaign.cache_dir = value;
      } else if (arg == "--faults") {
        campaign.fault_spec = sim::parse_fault_spec(value);
      } else if (arg == "--stream") {
        stream_path = value;
      } else if (arg == "--agg") {
        agg_path = value;
      } else if (arg == "--topology-file") {
        const std::size_t eq = value.find('=');
        if (eq == 0 || eq == std::string::npos || eq + 1 == value.size()) {
          std::cerr << "error: --topology-file wants NAME=PATH, got '" << value
                    << "'\n\n";
          print_usage(std::cerr);
          return 2;
        }
        // Registration parses and validates the file right here, so a bad
        // path or malformed row fails as a usage error before any work.
        topology::register_topology_file(value.substr(0, eq),
                                         value.substr(eq + 1));
      } else if (arg == "--traffic") {
        traffic = sim::parse_traffic_model(value);
      } else if (arg == "--target-stderr") {
        double target = 0.0;  // a parse error leaves 0, rejected below
        try {
          target = util::parse_double(value);
        } catch (const std::invalid_argument&) {
        }
        if (!std::isfinite(target) || target <= 0.0) {
          std::cerr << "error: --target-stderr wants a finite positive "
                       "number, got '"
                    << value << "'\n\n";
          print_usage(std::cerr);
          return 2;
        }
        campaign.target_stderr = target;
      } else if (arg == "--max-trials" || arg == "--wave") {
        const auto v = parse_count(value);
        if (!v.has_value()) {
          std::cerr << "error: " << arg
                    << " wants a positive integer, got '" << value << "'\n\n";
          print_usage(std::cerr);
          return 2;
        }
        (arg == "--max-trials" ? campaign.max_trials : campaign.wave_size) = *v;
      } else {
        const std::size_t slash = value.find('/');
        std::uint64_t idx = 0;
        std::uint64_t cnt = 0;
        if (slash != std::string::npos) {
          try {
            idx = util::parse_u64(std::string_view(value).substr(0, slash));
            cnt = util::parse_u64(std::string_view(value).substr(slash + 1));
          } catch (const std::invalid_argument&) {
            cnt = 0;  // reported below
          }
        }
        if (cnt == 0 || idx >= cnt) {
          std::cerr << "error: --shard wants I/N with 0 <= I < N, got '"
                    << value << "'\n\n";
          print_usage(std::cerr);
          return 2;
        }
        campaign.shard_index = idx;
        campaign.shard_count = cnt;
      }
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "error: unknown option '" << arg << "'\n\n";
      print_usage(std::cerr);
      return 2;
    }
    positional.push_back(arg);
  }
  if (positional.size() > 4) {
    std::cerr << "error: too many arguments\n\n";
    print_usage(std::cerr);
    return 2;
  }
  const auto positional_count = [&](const std::string& arg, const char* what,
                                    std::size_t& out) {
    const auto v = parse_count(arg);
    if (!v.has_value()) {
      std::cerr << "error: " << what
                << " must be a positive integer (at most 1e9), got '" << arg
                << "'\n\n";
      print_usage(std::cerr);
      return false;
    }
    out = *v;
    return true;
  };
  if (!positional.empty()) campaign.topology = positional[0];
  if (positional.size() > 1 &&
      !positional_count(positional[1], "trials", campaign.trials)) {
    return 2;
  }
  if (positional.size() > 2 &&
      !positional_count(positional[2], "samples", samples)) {
    return 2;
  }
  const std::string csv_path = positional.size() > 3 ? positional[3] : "";
  if (topology::find_topology(campaign.topology) == nullptr &&
      topology::find_topology_file(campaign.topology) == nullptr) {
    std::cerr << "error: unknown topology '" << campaign.topology << "'\n\n";
    print_usage(std::cerr);
    return 2;
  }
  if (expect_cached && campaign.cache_dir.empty()) {
    std::cerr << "error: --expect-cached needs --cache-dir\n\n";
    print_usage(std::cerr);
    return 2;
  }
  if ((campaign.shard_count > 1 || campaign.merge_only) &&
      campaign.cache_dir.empty()) {
    std::cerr << "error: --shard and --merge-only need --cache-dir\n\n";
    print_usage(std::cerr);
    return 2;
  }
  if (campaign.max_trials != 0 && campaign.target_stderr == 0.0) {
    std::cerr << "error: --max-trials needs --target-stderr\n\n";
    print_usage(std::cerr);
    return 2;
  }

  const auto spec_for = [&](const char* scenario,
                            routing::SecurityModel model,
                            sim::AnalysisSet analyses) {
    sim::ExperimentSpec spec;
    spec.scenario = scenario;
    spec.model = model;
    spec.analyses = analyses;
    spec.num_attackers = samples;
    spec.num_destinations = samples;
    spec.traffic = traffic;
    return spec;
  };
  campaign.experiments.push_back(
      spec_for("t1-t2", routing::SecurityModel::kSecurityThird,
               sim::AnalysisSet::all()));
  campaign.experiments.push_back(
      spec_for("t1-t2", routing::SecurityModel::kSecurityFirst,
               sim::Analysis::kHappiness | sim::Analysis::kPartitions));
  campaign.experiments.push_back(
      spec_for("top13-t2-stubs", routing::SecurityModel::kSecuritySecond,
               sim::Analysis::kHappiness));
  campaign.experiments.push_back(spec_for(
      "empty", routing::SecurityModel::kInsecure, sim::Analysis::kHappiness));

  // When streaming, per-trial rows go through the appender as each cell's
  // last unit finishes; the file is verified against the end-of-run rows
  // below, so the byte-identity promise is checked on every invocation.
  // The stream appender must commit to a schema generation before the
  // first row exists, so every per-trial writer below is pinned to the
  // same explicit flag — a non-uniform traffic model emits the weighted
  // layout everywhere, and the byte-identity checks still hold.
  const bool weighted = !traffic.is_trivial();
  std::ofstream stream_out;
  std::optional<sim::TrialRowCsvAppender> stream_appender;
  sim::RowSink sink;
  if (!stream_path.empty()) {
    stream_out.open(stream_path);
    if (!stream_out.is_open()) {
      std::cerr << "error: cannot open --stream path '" << stream_path
                << "'\n";
      return 2;
    }
    stream_appender.emplace(stream_out, weighted);
    sink = [&](const sim::CampaignTrialRow& r) { stream_appender->append(r); };
  }

  const auto result = sim::run_campaign(campaign, {}, sink);
  std::cout << "campaign: " << result.label << " on " << result.topology
            << " x " << campaign.trials << " trials, " << samples << "x"
            << samples << " pairs per spec ("
            << result.trial_rows.size() << " per-trial rows)\n\n";

  util::Table table({"spec", "model", "H(S) lower", "doomed", "downgraded"});
  const auto happy = sim::campaign_metric_index("happy_lower");
  const auto doomed = sim::campaign_metric_index("doomed");
  const auto dg = sim::campaign_metric_index("downgraded");
  const auto cell = [](const sim::MetricSummary& m) {
    return util::fixed(m.mean, 3) + " ±" + util::fixed(m.std_error, 3);
  };
  for (const auto& row : result.rows) {
    table.add_row(
        {row.label,
         std::string(to_string(campaign.experiments[row.spec_index].model)),
         cell(row.metrics[happy]), cell(row.metrics[doomed]),
         cell(row.metrics[dg])});
  }
  table.print(std::cout);

  if (campaign.target_stderr > 0.0) {
    std::cout << '\n';
    for (const auto& row : result.rows) {
      std::cout << "stopping: spec " << row.spec_index << " (" << row.label
                << "): " << row.trials << " trial(s), "
                << to_string(row.stopping) << '\n';
    }
  }

  if (!campaign.cache_dir.empty()) {
    std::cout << "\ncache: " << result.cache_hits << " hit(s), "
              << result.cache_misses << " miss(es) in " << campaign.cache_dir
              << '\n';
    if (result.cache_store_failures != 0) {
      std::cout << "cache: " << result.cache_store_failures
                << " install(s) failed (rows kept; a re-run recomputes "
                   "them)\n";
    }
    if (expect_cached && result.cache_misses != 0) {
      std::cerr << "FAIL: --expect-cached, but " << result.cache_misses
                << " cell(s) missed the cache and ran on the engine\n";
      return 1;
    }
  }

  // Serialize, re-read, and verify: a campaign result must survive its
  // files byte-exactly. Partial results are still written — that is what a
  // resumed or merge-only run builds on.
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    sim::write_trial_rows_csv(out, result.trial_rows, weighted);
    out.close();
    std::ifstream in(csv_path);
    if (sim::read_trial_rows_csv(in) != result.trial_rows) {
      std::cerr << "FAIL: CSV round trip mismatch\n";
      return 1;
    }
    std::cout << "wrote per-trial rows: " << csv_path
              << " (round trip verified)\n";
  }
  if (!stream_path.empty()) {
    stream_out.close();
    std::ifstream in(stream_path);
    if (sim::read_trial_rows_csv(in) != result.trial_rows) {
      std::cerr << "FAIL: streamed CSV does not match end-of-run rows\n";
      return 1;
    }
    std::cout << "streamed per-trial rows: " << stream_path
              << " (matches end-of-run rows)\n";
  }
  if (!agg_path.empty()) {
    std::ofstream out(agg_path);
    sim::write_campaign_rows_csv(out, result.rows);
    out.close();
    std::ifstream in(agg_path);
    if (sim::read_campaign_rows_csv(in) != result.rows) {
      std::cerr << "FAIL: aggregated CSV round trip mismatch\n";
      return 1;
    }
    std::cout << "wrote aggregated rows: " << agg_path
              << " (round trip verified)\n";
  }

  if (!result.failed_cells.empty()) {
    for (const auto& f : result.failed_cells) {
      std::cerr << "failed cell: trial " << f.trial << " spec " << f.spec_index
                << ": " << f.error << '\n';
    }
    std::cerr << result.failed_cells.size()
              << " cell(s) produced no row; re-run with the same --cache-dir "
                 "to retry exactly these\n";
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
