#include "sim/campaign.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/batch_executor.h"
#include "sim/campaign_cache.h"
#include "topology/registry.h"
#include "util/hash.h"
#include "util/strings.h"

namespace sbgp::sim {

namespace {

/// Default trials per wave for adaptive campaigns: small enough that a
/// quickly-converging spec stops after a handful of trials, large enough
/// that a wave's sweep units keep every worker busy.
constexpr std::size_t kDefaultAdaptiveWave = 4;

double ratio(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Everything one trial of a wave owns while the wave runs: its generated
/// topology, and the resolver whose rollout cache the resolved deployments
/// point into.
struct TrialState {
  topology::GeneratedTopology topo;
  topology::TierInfo tiers;
  std::unique_ptr<ExperimentResolver> resolver;
  std::vector<ResolvedExperiment> resolved;  // by spec; active specs only
};

/// A wave cell that needs engine work.
struct ActiveCell {
  std::size_t slot = 0;   // the cell's emitter slot in the wave
  std::size_t trial = 0;  // index of its trial among the wave's states
  SweepPlan plan;         // built by its trial's preparation
  /// Sweep-context token: all pairs of a cell share the trial graph,
  /// deployment and config, so their per-destination baselines are
  /// mutually reusable — and never across cells.
  std::uint64_t token = 0;
};

}  // namespace

const std::array<std::string_view, kNumCampaignMetrics>&
campaign_metric_names() {
  static const std::array<std::string_view, kNumCampaignMetrics> names = {
      "happy_lower",         "happy_upper",        "doomed",
      "protectable",         "immune",             "downgraded",
      "collateral_benefits", "collateral_damages", "metric_change",
  };
  return names;
}

std::size_t campaign_metric_index(std::string_view name) {
  const auto& names = campaign_metric_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  throw std::invalid_argument(
      "campaign_metric_index: unknown metric '" + std::string(name) +
      "'; available: " +
      util::comma_join(names, [](std::string_view n) { return n; }));
}

std::array<double, kNumCampaignMetrics> campaign_metrics(
    const PairStats& stats) {
  return {
      ratio(stats.happiness.happy_lower, stats.happiness.sources),
      ratio(stats.happiness.happy_upper, stats.happiness.sources),
      ratio(stats.partitions.doomed, stats.partitions.sources),
      ratio(stats.partitions.protectable, stats.partitions.sources),
      ratio(stats.partitions.immune, stats.partitions.sources),
      ratio(stats.downgrades.downgraded, stats.downgrades.sources),
      ratio(stats.collateral.benefits, stats.collateral.insecure_sources),
      ratio(stats.collateral.damages, stats.collateral.insecure_sources),
      stats.root_causes.metric_change(),
  };
}

std::array<double, kNumCampaignMetrics> campaign_weighted_metrics(
    const PairStats& stats) {
  return {
      ratio(stats.w_happiness.happy_lower, stats.w_happiness.sources),
      ratio(stats.w_happiness.happy_upper, stats.w_happiness.sources),
      ratio(stats.w_partitions.doomed, stats.w_partitions.sources),
      ratio(stats.w_partitions.protectable, stats.w_partitions.sources),
      ratio(stats.w_partitions.immune, stats.w_partitions.sources),
      ratio(stats.w_downgrades.downgraded, stats.w_downgrades.sources),
      ratio(stats.w_collateral.benefits, stats.w_collateral.insecure_sources),
      ratio(stats.w_collateral.damages, stats.w_collateral.insecure_sources),
      stats.w_root_causes.metric_change(),
  };
}

std::string_view to_string(StoppingReason reason) {
  switch (reason) {
    case StoppingReason::kFixed: return "fixed";
    case StoppingReason::kConverged: return "converged";
    case StoppingReason::kBudget: return "budget";
  }
  throw std::invalid_argument("to_string: bad StoppingReason value");
}

StoppingReason parse_stopping_reason(std::string_view name) {
  for (const auto reason :
       {StoppingReason::kFixed, StoppingReason::kConverged,
        StoppingReason::kBudget}) {
    if (to_string(reason) == name) return reason;
  }
  throw std::invalid_argument("parse_stopping_reason: unknown reason '" +
                              std::string(name) +
                              "'; expected fixed, converged or budget");
}

std::uint64_t spec_fingerprint(const CampaignSpec& campaign) {
  util::Fingerprint fp;
  fp.mix(std::string_view(campaign.label));
  fp.mix(std::string_view(campaign.topology));
  fp.mix(static_cast<std::uint64_t>(campaign.trials));
  fp.mix(campaign.seed);
  fp.mix(static_cast<std::uint64_t>(campaign.experiments.size()));
  for (const auto& spec : campaign.experiments) {
    fp.mix(spec_fingerprint(spec));
  }
  fp.mix(campaign.target_stderr);
  fp.mix(static_cast<std::uint64_t>(campaign.wave_size));
  fp.mix(static_cast<std::uint64_t>(campaign.max_trials));
  return fp.value();
}

std::vector<CampaignRow> aggregate_trial_rows(
    const std::vector<CampaignTrialRow>& trial_rows) {
  struct Agg {
    CampaignRow row;  // metrics filled at the end
    std::array<util::Accumulator, kNumCampaignMetrics> acc;
    std::array<util::Accumulator, kNumCampaignMetrics> w_acc;
  };
  std::map<std::size_t, Agg> by_spec;
  for (const auto& tr : trial_rows) {
    auto [it, inserted] = by_spec.try_emplace(tr.spec_index);
    if (inserted) {
      it->second.row.label = tr.row.label;
      it->second.row.topology = tr.topology;
      it->second.row.spec_index = tr.spec_index;
    }
    const auto values = campaign_metrics(tr.row.stats);
    const auto w_values = campaign_weighted_metrics(tr.row.stats);
    for (std::size_t m = 0; m < kNumCampaignMetrics; ++m) {
      it->second.acc[m].add(values[m]);
      it->second.w_acc[m].add(w_values[m]);
    }
  }
  std::vector<CampaignRow> rows;
  rows.reserve(by_spec.size());
  for (auto& [spec_index, agg] : by_spec) {
    agg.row.trials = agg.acc.front().count();
    for (std::size_t m = 0; m < kNumCampaignMetrics; ++m) {
      agg.row.metrics[m] = {agg.acc[m].mean(), agg.acc[m].std_error(),
                            agg.acc[m].min(), agg.acc[m].max()};
      agg.row.weighted_metrics[m] = {
          agg.w_acc[m].mean(), agg.w_acc[m].std_error(), agg.w_acc[m].min(),
          agg.w_acc[m].max()};
    }
    rows.push_back(std::move(agg.row));
  }
  return rows;
}

CampaignResult run_campaign(const CampaignSpec& campaign,
                            const RunnerOptions& opts, const RowSink& sink) {
  // Validate everything name-shaped before spawning any work, so a typo'd
  // campaign fails fast with the registry contents in the message —
  // configuration errors are never "failed cells". topology_fingerprint
  // resolves generated and file-backed registry entries alike.
  (void)topology::topology_fingerprint(campaign.topology);
  if (campaign.trials == 0) {
    throw std::invalid_argument("run_campaign: trials must be >= 1");
  }
  if (campaign.experiments.empty()) {
    throw std::invalid_argument("run_campaign: no experiment specs");
  }
  for (const auto& spec : campaign.experiments) {
    if (!spec.attackers.empty() || !spec.destinations.empty()) {
      throw std::invalid_argument(
          "run_campaign: spec '" + spec.label +
          "' pins explicit attacker/destination AS ids, which are "
          "topology-specific; campaigns sample per trial");
    }
    if (spec.analyses.empty()) {
      throw std::invalid_argument("run_campaign: spec '" + spec.label +
                                  "' selects no analyses");
    }
    if (!partitions_defined(spec.model, spec.analyses)) {
      throw std::invalid_argument("run_campaign: spec '" + spec.label +
                                  "': partitions/downgrades need S*BGP");
    }
    validate_traffic_model(spec.traffic);
    if (deployment::find_scenario(spec.scenario) == nullptr) {
      throw std::invalid_argument(
          "run_campaign: unknown scenario '" + spec.scenario +
          "'; available: " + deployment::scenario_names());
    }
  }
  // An infinite target would stop every spec after its first wave.
  if (!std::isfinite(campaign.target_stderr) || campaign.target_stderr < 0.0) {
    throw std::invalid_argument(
        "run_campaign: target_stderr must be finite and >= 0 (0 disables "
        "stopping)");
  }
  const bool adaptive = campaign.target_stderr > 0.0;
  if (!adaptive && campaign.max_trials != 0) {
    throw std::invalid_argument(
        "run_campaign: max_trials is the adaptive trial budget and needs "
        "target_stderr > 0; fixed campaigns size themselves with trials");
  }
  const std::size_t shard_count =
      std::max<std::size_t>(campaign.shard_count, 1);
  if (campaign.shard_index >= shard_count) {
    throw std::invalid_argument(
        "run_campaign: shard index " + std::to_string(campaign.shard_index) +
        " out of range for " + std::to_string(shard_count) + " shard(s)");
  }
  if (shard_count > 1 && campaign.cache_dir.empty()) {
    throw std::invalid_argument(
        "run_campaign: sharded execution needs cache_dir — shards meet "
        "only through the shared cache directory");
  }
  if (campaign.merge_only && campaign.cache_dir.empty()) {
    throw std::invalid_argument(
        "run_campaign: merge_only assembles rows from cache hits and "
        "needs cache_dir");
  }
  if (adaptive && shard_count > 1) {
    throw std::invalid_argument(
        "run_campaign: adaptive stopping cannot be sharded — shards cannot "
        "observe each other's trial rows to agree on when to stop");
  }
  if (adaptive && campaign.merge_only) {
    throw std::invalid_argument(
        "run_campaign: merge_only assembles cached cells and makes no "
        "stopping decisions; disable target_stderr");
  }

  const std::size_t num_specs = campaign.experiments.size();
  // The trial budget: how many trials may ever be scheduled. Fixed runs
  // schedule exactly `trials`; adaptive runs stop earlier once converged.
  const std::size_t budget = adaptive && campaign.max_trials != 0
                                 ? campaign.max_trials
                                 : campaign.trials;
  const std::size_t wave_stride =
      campaign.wave_size != 0 ? campaign.wave_size
                              : (adaptive ? kDefaultAdaptiveWave : budget);
  const std::size_t num_cells = budget * num_specs;

  std::vector<std::uint64_t> seeds(budget);
  for (std::size_t t = 0; t < budget; ++t) {
    seeds[t] = topology::trial_seed(campaign.seed, campaign.topology, t);
  }

  // Cell keys and their fingerprints are computed unconditionally: they
  // drive the cache, shard assignment, AND deterministic fault injection,
  // which must fire identically with or without a cache directory.
  std::vector<CacheKey> keys(num_cells);
  std::vector<std::uint64_t> cell_fps(num_cells);
  {
    const std::uint64_t topo_fp =
        topology::topology_fingerprint(campaign.topology);
    std::vector<std::uint64_t> spec_fps(num_specs);
    for (std::size_t s = 0; s < num_specs; ++s) {
      spec_fps[s] = spec_fingerprint(campaign.experiments[s]);
      if (adaptive) {
        // An adaptive run answers a different question ("enough trials
        // for this precision") than a fixed one, so its cells must never
        // be served into — or from — a fixed campaign's cache entries,
        // nor across different adaptive configs. Fixed runs keep the
        // plain experiment fingerprint and their existing caches.
        util::Fingerprint fp;
        fp.mix(spec_fps[s]);
        fp.mix(campaign.target_stderr);
        fp.mix(static_cast<std::uint64_t>(campaign.wave_size));
        fp.mix(static_cast<std::uint64_t>(campaign.max_trials));
        spec_fps[s] = fp.value();
      }
    }
    for (std::size_t cell = 0; cell < num_cells; ++cell) {
      keys[cell] = {topo_fp, seeds[cell / num_specs],
                    spec_fps[cell % num_specs]};
      cell_fps[cell] = cache_key_fingerprint(keys[cell]);
    }
  }
  const auto in_shard = [&](std::size_t cell) {
    return campaign.merge_only || shard_count <= 1 ||
           cell_fps[cell] % shard_count == campaign.shard_index;
  };

  const FaultInjector injector(campaign.fault_spec.enabled
                                   ? campaign.fault_spec
                                   : fault_spec_from_env());

  std::unique_ptr<CampaignCache> cache;
  if (!campaign.cache_dir.empty()) {
    cache = std::make_unique<CampaignCache>(campaign.cache_dir);
    if (injector.enabled()) cache->set_fault_injector(&injector);
  }

  CampaignResult result;
  result.label = campaign.label.empty() ? campaign.topology : campaign.label;
  result.topology = campaign.topology;
  result.seed = campaign.seed;

  BatchExecutor& exec =
      opts.executor != nullptr ? *opts.executor : BatchExecutor::shared();
  const std::size_t workers = exec.effective_workers(opts.threads);
  std::atomic<std::size_t> store_failures{0};

  // Per-spec sequential-stopping state: the running cross-wave
  // accumulators and the reason scheduling ended.
  struct SpecState {
    std::array<util::Accumulator, kNumCampaignMetrics> acc;
    StoppingReason reason = StoppingReason::kFixed;
  };
  std::vector<SpecState> spec_states(num_specs);

  const auto make_trial_row = [&](std::size_t cell,
                                  ExperimentRow row) -> CampaignTrialRow {
    CampaignTrialRow tr;
    tr.topology = campaign.topology;
    tr.trial = cell / num_specs;
    tr.topology_seed = seeds[cell / num_specs];
    tr.spec_index = cell % num_specs;
    tr.row = std::move(row);
    return tr;
  };

  // One wave: trials [first_trial, last_trial) x wave_specs. Appends the
  // wave's rows — in (trial-major, spec order) emission order — to
  // result.trial_rows, its failures to result.failed_cells, and hands
  // every completed row to `sink` the moment order allows.
  const auto run_wave = [&](std::size_t first_trial, std::size_t last_trial,
                            const std::vector<std::size_t>& wave_specs) {
    // The wave's cells in emission order, this shard's only.
    std::vector<std::size_t> wave_cells;
    wave_cells.reserve((last_trial - first_trial) * wave_specs.size());
    for (std::size_t t = first_trial; t < last_trial; ++t) {
      for (const std::size_t s : wave_specs) {
        const std::size_t cell = t * num_specs + s;
        if (in_shard(cell)) wave_cells.push_back(cell);
      }
    }
    const std::size_t num_slots = wave_cells.size();

    // Ordered streaming emitter: every wave cell owns a slot; slots
    // resolve to a row (cached or computed) or to a failure in completion
    // order, and the consecutive resolved prefix is handed to the sink —
    // deterministic emission order, no dependence on worker timing.
    std::mutex emit_mutex;
    // 0 pending, 1 row, 2 failed.
    std::vector<signed char> slot_state(num_slots, 0);
    std::vector<CampaignTrialRow> slot_rows(num_slots);
    std::vector<std::string> slot_errors(num_slots);
    std::size_t emit_cursor = 0;
    const auto resolve_slot = [&](std::size_t slot,
                                  std::optional<CampaignTrialRow> row) {
      const std::lock_guard<std::mutex> lock(emit_mutex);
      if (row.has_value()) {
        slot_rows[slot] = std::move(*row);
        slot_state[slot] = 1;
      } else {
        slot_state[slot] = 2;
      }
      while (emit_cursor < num_slots && slot_state[emit_cursor] != 0) {
        if (slot_state[emit_cursor] == 1 && sink) sink(slot_rows[emit_cursor]);
        ++emit_cursor;
      }
    };
    // Failures are resolved between phases, on this thread only; the
    // first error of a cell is the one reported.
    const auto fail_slot = [&](std::size_t slot, std::string error) {
      if (slot_state[slot] != 0) return;
      slot_errors[slot] = std::move(error);
      resolve_slot(slot, std::nullopt);
    };

    // Cache consult for this wave's cells only: hits resolve their slots
    // immediately. Merge-only runs fail their misses; otherwise a miss
    // becomes an active cell, and a trial whose every cell hits is never
    // generated. Cells an adaptive campaign never schedules are never
    // looked up, so cache stats count exactly the attempted cells.
    std::vector<ActiveCell> cells;
    std::vector<std::size_t> wave_trials;  // trials with an active cell
    for (std::size_t i = 0; i < num_slots; ++i) {
      const std::size_t cell = wave_cells[i];
      if (cache != nullptr) {
        if (auto row = cache->lookup(keys[cell]); row.has_value()) {
          resolve_slot(i, make_trial_row(cell, std::move(*row)));
          continue;
        }
        if (campaign.merge_only) {
          fail_slot(i, "not in cache: " + cache_entry_name(keys[cell]) +
                           " missing from '" + campaign.cache_dir + "'");
          continue;
        }
      }
      if (wave_trials.empty() || wave_trials.back() != cell / num_specs) {
        wave_trials.push_back(cell / num_specs);
      }
      cells.push_back({i, wave_trials.size() - 1, {}, next_sweep_context()});
    }
    const std::size_t num_active = cells.size();

    // Phase 1, one unit per trial with an active cell: generate and
    // classify the topology, resolve the specs the trial still runs
    // (cached cells never read their slot) and plan each active cell's
    // sweep. The trials' state lives until the wave ends. Preparation is
    // allocation-heavy, and trials prepared side by side contend for the
    // allocator and stack their peak memory: on a shared 4-vCPU box, the
    // benchmark's three sweep-8k trials took longer in parallel than in
    // sequence, at 27% more peak RSS. So it runs on one worker.
    std::vector<TrialState> states(wave_trials.size());
    const auto prepare = [&](std::size_t /*worker*/, std::size_t p) {
      TrialState& st = states[p];
      st.topo = topology::generate_trial(campaign.topology, campaign.seed,
                                         wave_trials[p]);
      st.tiers = st.topo.classify();
      st.resolver = std::make_unique<ExperimentResolver>(
          st.topo.graph, st.tiers, st.topo.sample_salt);
      st.resolved.resize(num_specs);
      for (ActiveCell& c : cells) {
        if (c.trial != p) continue;
        const std::size_t s = wave_cells[c.slot] % num_specs;
        st.resolved[s] = st.resolver->resolve(campaign.experiments[s]);
        const ResolvedExperiment& re = st.resolved[s];
        c.plan = make_sweep_plan(re.attackers, re.destinations, re.traffic);
      }
    };
    // A failed preparation fails every active cell of its trial, and
    // those cells are never submitted.
    for (const auto& f : exec.run_isolated(wave_trials.size(), prepare, 1)) {
      for (const ActiveCell& c : cells) {
        if (c.trial == f.index) {
          fail_slot(c.slot, "trial preparation failed: " + f.message);
        }
      }
    }

    // Phase 2: the prepared cells' sweep units, cell after cell, each cell
    // split by append_sweep_units exactly as analyze_sweep splits a plan.
    std::vector<SweepUnit> units;
    std::vector<std::atomic<std::size_t>> remaining(num_active);
    for (std::size_t k = 0; k < num_active; ++k) {
      if (slot_state[cells[k].slot] != 0) continue;
      const std::size_t before = units.size();
      append_sweep_units(cells[k].plan, k, units);
      remaining[k].store(units.size() - before, std::memory_order_relaxed);
    }
    std::vector<std::vector<PairStats>> accs(
        workers, std::vector<PairStats>(num_active));

    // A cell's units count down its `remaining`; the unit that brings it to
    // zero — necessarily after every other unit of the cell succeeded,
    // since failing units never count down — merges the per-worker
    // partials in worker order (bit-for-bit deterministic, and identical
    // to analyze_sweep), installs the row into the cache immediately, and
    // resolves the cell's emitter slot. A SIGKILL therefore loses only
    // in-flight cells.
    const auto sweep = [&](std::size_t worker, std::size_t i) {
      const SweepUnit& u = units[i];
      const ActiveCell& c = cells[u.sweep];
      const std::size_t cell = wave_cells[c.slot];
      // Deterministic fault injection, keyed by the cell's stable
      // fingerprint: every unit of a doomed cell throws, on every worker
      // count, with or without a cache — so a faulted run fails the exact
      // same cells everywhere.
      injector.maybe_throw(FaultSite::kAnalysisUnit, cell_fps[cell],
                           "analysis unit of trial " +
                               std::to_string(cell / num_specs) + " spec " +
                               std::to_string(cell % num_specs));
      const TrialState& st = states[c.trial];
      const ResolvedExperiment& re = st.resolved[cell % num_specs];
      accumulate_unit_into(st.topo.graph, c.plan, u, re.cfg, *re.deployment,
                           exec.workspace(worker), c.token,
                           accs[worker][u.sweep]);
      if (remaining[u.sweep].fetch_sub(1, std::memory_order_acq_rel) != 1) {
        return;
      }
      ExperimentRow row = re.header;
      for (std::size_t w = 0; w < workers; ++w) row.stats += accs[w][u.sweep];
      if (cache != nullptr) {
        // A failed install (full disk, injected store fault) must not
        // discard the result — the engine work is done. Count it and move
        // on; the next run simply recomputes what was not persisted.
        try {
          cache->store(keys[cell], make_trial_row(cell, row));
        } catch (const std::runtime_error&) {
          store_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      resolve_slot(c.slot, make_trial_row(cell, std::move(row)));
    };
    for (const auto& f : exec.run_isolated(units.size(), sweep, workers)) {
      fail_slot(cells[units[f.index].sweep].slot, f.message);
    }

    // Every slot is resolved now. Append the wave's rows and failures in
    // slot order — result order and sink order are the same by
    // construction.
    for (std::size_t i = 0; i < num_slots; ++i) {
      if (slot_state[i] == 1) {
        result.trial_rows.push_back(std::move(slot_rows[i]));
      } else {
        result.failed_cells.push_back({wave_cells[i] / num_specs,
                                       wave_cells[i] % num_specs,
                                       std::move(slot_errors[i])});
      }
    }
  };

  // The wave loop. Fixed campaigns run [0, budget) in ceil(budget /
  // wave_stride) waves — one, by default — with every spec in every wave,
  // so the emitted bytes match a single wave's for any wave size.
  // Adaptive campaigns drop converged specs from subsequent
  // waves until every spec stopped or the budget is spent.
  std::vector<std::size_t> running;
  running.reserve(num_specs);
  for (std::size_t s = 0; s < num_specs; ++s) running.push_back(s);

  std::size_t next_trial = 0;
  while (next_trial < budget && !running.empty()) {
    const std::size_t last_trial = std::min(budget, next_trial + wave_stride);
    const std::size_t rows_before = result.trial_rows.size();
    run_wave(next_trial, last_trial, running);
    next_trial = last_trial;

    // Fold the wave's rows into the running per-spec accumulators: one
    // wave-local accumulator per spec (rows added in trial order), merged
    // in wave order — the same deterministic sequence for any worker
    // count, since rows themselves are worker-count independent.
    std::vector<std::array<util::Accumulator, kNumCampaignMetrics>> wave_acc(
        num_specs);
    for (std::size_t i = rows_before; i < result.trial_rows.size(); ++i) {
      const auto& tr = result.trial_rows[i];
      const auto values = campaign_metrics(tr.row.stats);
      for (std::size_t m = 0; m < kNumCampaignMetrics; ++m) {
        wave_acc[tr.spec_index][m].add(values[m]);
      }
    }
    for (const std::size_t s : running) {
      for (std::size_t m = 0; m < kNumCampaignMetrics; ++m) {
        spec_states[s].acc[m].merge(wave_acc[s][m]);
      }
    }

    if (!adaptive) continue;
    // Sequential stopping: a spec converges when every metric's stderr is
    // at or below the target. At least two realized trials are required —
    // std_error() is 0 for n < 2, which must not read as "converged".
    std::vector<std::size_t> still_running;
    for (const std::size_t s : running) {
      const auto& acc = spec_states[s].acc;
      bool converged = acc.front().count() >= 2;
      for (std::size_t m = 0; converged && m < kNumCampaignMetrics; ++m) {
        converged = acc[m].std_error() <= campaign.target_stderr;
      }
      if (converged) {
        spec_states[s].reason = StoppingReason::kConverged;
      } else {
        still_running.push_back(s);
      }
    }
    running = std::move(still_running);
  }
  if (adaptive) {
    for (const std::size_t s : running) {
      spec_states[s].reason = StoppingReason::kBudget;
    }
  }

  result.rows = aggregate_trial_rows(result.trial_rows);
  for (auto& row : result.rows) {
    row.stopping = spec_states[row.spec_index].reason;
    for (const auto& f : result.failed_cells) {
      if (f.spec_index == row.spec_index) ++row.failed_trials;
    }
  }
  if (cache != nullptr) {
    const auto cache_stats = cache->stats();
    result.cache_hits = cache_stats.hits;
    result.cache_misses = cache_stats.misses;
  }
  result.cache_store_failures = store_failures.load(std::memory_order_relaxed);
  return result;
}

}  // namespace sbgp::sim
