#include "sim/campaign.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
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
/// that the per-wave submission still amortizes topology prep overlap.
constexpr std::size_t kDefaultAdaptiveWave = 4;

double ratio(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Everything one trial owns: its generated topology, the resolver whose
/// rollout cache the resolved deployments point into, and the readiness /
/// failure flags pair-analysis units of this trial wait on.
struct TrialState {
  std::uint64_t seed = 0;
  topology::GeneratedTopology topo;
  topology::TierInfo tiers;
  std::unique_ptr<ExperimentResolver> resolver;
  std::vector<ResolvedExperiment> resolved;
  std::atomic<bool> ready{false};   // never set if the trial's prep threw
  std::atomic<bool> failed{false};  // isolation mode: prep threw
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
  // Written so a NaN target fails too.
  if (!(campaign.target_stderr >= 0.0)) {
    throw std::invalid_argument(
        "run_campaign: target_stderr must be >= 0 (0 disables stopping)");
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
  constexpr std::size_t kNotActive = static_cast<std::size_t>(-1);

  std::vector<TrialState> states(budget);
  for (std::size_t t = 0; t < budget; ++t) {
    states[t].seed = topology::trial_seed(campaign.seed, campaign.topology, t);
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
      keys[cell] = {topo_fp, states[cell / num_specs].seed,
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

  if (campaign.merge_only) {
    // Assembly without execution: hits become rows, misses become
    // structured failures — the caller decides whether an incomplete
    // merge is an error (the CLI exits non-zero listing them).
    for (std::size_t cell = 0; cell < num_cells; ++cell) {
      const std::size_t t = cell / num_specs;
      const std::size_t s = cell % num_specs;
      if (auto row = cache->lookup(keys[cell]); row.has_value()) {
        CampaignTrialRow tr;
        tr.topology = campaign.topology;
        tr.trial = t;
        tr.topology_seed = states[t].seed;
        tr.spec_index = s;
        tr.row = std::move(*row);
        if (sink) sink(tr);
        result.trial_rows.push_back(std::move(tr));
      } else {
        result.failed_cells.push_back(
            {t, s,
             "not in cache: " + cache_entry_name(keys[cell]) +
                 " missing from '" + campaign.cache_dir + "'"});
      }
    }
    result.rows = aggregate_trial_rows(result.trial_rows);
    for (auto& row : result.rows) {
      for (const auto& f : result.failed_cells) {
        if (f.spec_index == row.spec_index) ++row.failed_trials;
      }
    }
    const auto cache_stats = cache->stats();
    result.cache_hits = cache_stats.hits;
    result.cache_misses = cache_stats.misses;
    return result;
  }

  BatchExecutor& exec =
      opts.executor != nullptr ? *opts.executor : BatchExecutor::shared();
  const std::size_t workers = exec.effective_workers(opts.threads);
  const bool strict = campaign.strict;
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
    tr.topology_seed = states[cell / num_specs].seed;
    tr.spec_index = cell % num_specs;
    tr.row = std::move(row);
    return tr;
  };

  // One wave: trials [first_trial, last_trial) x wave_specs, one
  // BatchExecutor submission (the classic whole-campaign schedule is the
  // single-wave special case). Appends the wave's rows — in (trial-major,
  // spec order) emission order — to result.trial_rows, its failures to
  // result.failed_cells, and hands every completed row to `sink` the
  // moment order allows.
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

    // Cache consult for this wave's cells only: hits resolve their slots
    // immediately (streaming as soon as order allows), and a trial whose
    // every cell hits is never generated. Cells an adaptive campaign
    // never schedules are never looked up, so cache stats count exactly
    // the attempted cells.
    std::vector<char> is_cached(num_slots, 0);
    if (cache != nullptr) {
      for (std::size_t i = 0; i < num_slots; ++i) {
        if (auto row = cache->lookup(keys[wave_cells[i]]); row.has_value()) {
          is_cached[i] = 1;
          resolve_slot(i, make_trial_row(wave_cells[i], std::move(*row)));
        }
      }
    }

    // The cells that still need engine work, and the trials they require.
    std::vector<std::size_t> active_slots;  // wave slot of active cell k
    std::vector<std::size_t> active_of_cell(num_cells, kNotActive);
    for (std::size_t i = 0; i < num_slots; ++i) {
      if (is_cached[i] == 0) {
        active_of_cell[wave_cells[i]] = active_slots.size();
        active_slots.push_back(i);
      }
    }
    const std::size_t num_active = active_slots.size();
    std::vector<std::size_t> wave_trials;
    {
      std::vector<char> needed(last_trial - first_trial, 0);
      for (const std::size_t i : active_slots) {
        needed[wave_cells[i] / num_specs - first_trial] = 1;
      }
      for (std::size_t t = first_trial; t < last_trial; ++t) {
        if (needed[t - first_trial] != 0) wave_trials.push_back(t);
      }
    }
    const std::size_t num_prep = wave_trials.size();

    // Unit layout of the wave's submission: indices [0, num_prep) prepare
    // the active trials (generate + classify + resolve every scheduled
    // spec); the rest are group units, one active (trial, spec) cell after
    // another. A cell has num_lane_chunks(num_attackers) units per
    // requested destination — analyze_sweep's unit: one destination with
    // an even chunk of at most kLaneWidth of its attackers. Destinations
    // that sampling left empty are skipped, and attacker == destination is
    // dropped from the group, exactly like make_sweep_plan. Prep units sit
    // at the lowest indices and chunks are handed out in index order, so
    // every prep is claimed (and being executed) before any worker can
    // block on its trial's readiness — pair analysis of trial t overlaps
    // generation of trials t+1...
    const auto cell_units = [&](std::size_t k) {
      const auto& spec =
          campaign.experiments[wave_cells[active_slots[k]] % num_specs];
      return num_lane_chunks(spec.num_attackers) * spec.num_destinations;
    };
    std::vector<std::size_t> cell_end(num_active);
    {
      std::size_t unit = num_prep;
      for (std::size_t k = 0; k < num_active; ++k) {
        unit += cell_units(k);
        cell_end[k] = unit;
      }
    }
    const std::size_t total_units =
        cell_end.empty() ? num_prep : cell_end.back();

    std::vector<std::vector<PairStats>> accs(
        workers, std::vector<PairStats>(num_active));
    // Per-worker scratch for a unit's attacker chunk and its pair weights.
    struct GroupBuffer {
      std::vector<AsId> attackers;
      std::vector<std::uint64_t> weights;
    };
    std::vector<GroupBuffer> group_buffers(workers);

    // One sweep-context token per active cell: all pairs of a cell share
    // the trial graph, deployment and config, so their per-destination
    // baselines are mutually reusable — and never across cells.
    std::vector<std::uint64_t> cell_tokens(num_active);
    for (auto& token : cell_tokens) token = next_sweep_context();

    // Per-cell completion machinery for incremental checkpointing: a
    // cell's units count down `cell_remaining`; the unit that brings it
    // to zero — necessarily after every other unit of the cell succeeded,
    // since failing units never decrement — merges the per-worker
    // partials in worker order (bit-for-bit deterministic), installs the
    // row into the cache immediately, and resolves the cell's emitter
    // slot. A SIGKILL therefore loses only in-flight cells. `cell_failed`
    // marks cells whose trial prep failed, so their trivially-completing
    // units cannot install a garbage row.
    std::vector<std::atomic<std::size_t>> cell_remaining(num_active);
    std::vector<std::atomic<bool>> cell_failed(num_active);
    for (std::size_t k = 0; k < num_active; ++k) {
      cell_remaining[k].store(cell_units(k), std::memory_order_relaxed);
      cell_failed[k].store(false, std::memory_order_relaxed);
    }

    // Readiness handshake: pair units of a not-yet-prepared trial block
    // on ready_cv rather than spinning (this box may oversubscribe
    // cores). In strict mode any throwing unit raises `abort` and
    // notifies, so no waiter outlives the batch and the executor rethrows
    // the first error; in isolation mode a failed prep marks its trial
    // `failed` instead, so only that trial's waiters wake and give up
    // while everything else keeps running.
    std::mutex ready_mutex;
    std::condition_variable ready_cv;
    std::atomic<bool> abort{false};

    /// Marks one unit of cell k complete; the last one merges, installs
    /// and emits.
    const auto finish_unit = [&](std::size_t k) {
      if (cell_remaining[k].fetch_sub(1, std::memory_order_acq_rel) != 1) {
        return;
      }
      if (cell_failed[k].load(std::memory_order_acquire)) return;
      const std::size_t cell = wave_cells[active_slots[k]];
      ExperimentRow row =
          states[cell / num_specs].resolved[cell % num_specs].header;
      // Merge per-worker integer partials in worker order — bit-for-bit
      // identical for any worker count, and identical to analyze_sweep.
      for (std::size_t w = 0; w < workers; ++w) row.stats += accs[w][k];
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
      resolve_slot(active_slots[k], make_trial_row(cell, std::move(row)));
    };

    const auto task = [&](std::size_t worker, std::size_t unit) {
      try {
        if (unit < num_prep) {
          const std::size_t trial = wave_trials[unit];
          TrialState& st = states[trial];
          st.topo = topology::generate_trial(campaign.topology, campaign.seed,
                                             trial);
          st.tiers = st.topo.classify();
          st.resolver = std::make_unique<ExperimentResolver>(
              st.topo.graph, st.tiers, st.topo.sample_salt);
          // Resolve only the specs this trial still runs: cached cells
          // never read their ResolvedExperiment slot, so a placeholder
          // suffices and a partially-warm trial skips the dead
          // rollout/sampling work. Specs an adaptive campaign already
          // stopped are not even part of this wave.
          st.resolved.resize(num_specs);
          for (std::size_t s = 0; s < num_specs; ++s) {
            if (active_of_cell[trial * num_specs + s] != kNotActive) {
              st.resolved[s] = st.resolver->resolve(campaign.experiments[s]);
            }
          }
          {
            const std::lock_guard<std::mutex> lock(ready_mutex);
            st.ready.store(true, std::memory_order_release);
          }
          ready_cv.notify_all();
          return;
        }
        const std::size_t k = static_cast<std::size_t>(
            std::upper_bound(cell_end.begin(), cell_end.end(), unit) -
            cell_end.begin());
        const std::size_t cell = wave_cells[active_slots[k]];
        const std::size_t trial = cell / num_specs;
        TrialState& st = states[trial];
        if (!st.ready.load(std::memory_order_acquire) &&
            !st.failed.load(std::memory_order_acquire)) {
          std::unique_lock<std::mutex> lock(ready_mutex);
          ready_cv.wait(lock, [&] {
            return st.ready.load(std::memory_order_acquire) ||
                   st.failed.load(std::memory_order_acquire) ||
                   abort.load(std::memory_order_relaxed);
          });
        }
        if (abort.load(std::memory_order_relaxed)) return;
        if (st.failed.load(std::memory_order_acquire)) {
          // Isolation mode: the whole trial is failed by its prep — mark
          // the cell so the countdown cannot install a row, then count
          // this unit done (it has nothing to compute).
          cell_failed[k].store(true, std::memory_order_release);
          finish_unit(k);
          return;
        }
        // Deterministic fault injection, keyed by the cell's stable
        // fingerprint: every unit of a doomed cell throws, on every
        // worker count, with or without a cache — so a faulted run fails
        // the exact same cells everywhere.
        injector.maybe_throw(FaultSite::kAnalysisUnit, cell_fps[cell],
                             "analysis unit of trial " +
                                 std::to_string(trial) + " spec " +
                                 std::to_string(cell % num_specs));
        const std::size_t cell_begin = k == 0 ? num_prep : cell_end[k - 1];
        const std::size_t slot = unit - cell_begin;
        const ResolvedExperiment& re = st.resolved[cell % num_specs];
        // Destination-major slot order: consecutive units of a cell share
        // a destination, so chunked workers hit the workspace's
        // per-destination cache.
        const std::size_t chunks = num_lane_chunks(
            campaign.experiments[cell % num_specs].num_attackers);
        const std::size_t d = slot / chunks;
        if (d < re.destinations.size()) {
          const AsId dest = re.destinations[d];
          GroupBuffer& buf = group_buffers[worker];
          buf.attackers.clear();
          for (const AsId m : re.attackers) {
            if (m != dest) buf.attackers.push_back(m);
          }
          const auto [begin, end] =
              lane_chunk(buf.attackers.size(), chunks, slot % chunks);
          buf.weights.clear();
          for (std::size_t i = begin; i < end; ++i) {
            buf.weights.push_back(
                pair_weight(re.traffic, buf.attackers[i], dest));
          }
          accumulate_group_into(
              st.topo.graph, dest,
              std::span<const AsId>(buf.attackers).subspan(begin, end - begin),
              buf.weights, re.cfg, *re.deployment, exec.workspace(worker),
              cell_tokens[k], accs[worker][k]);
        }
        finish_unit(k);
      } catch (...) {
        // The store must happen under the mutex, or a waiter between its
        // predicate check and its sleep would miss this (final) wakeup.
        {
          const std::lock_guard<std::mutex> lock(ready_mutex);
          if (strict) {
            abort.store(true, std::memory_order_relaxed);
          } else if (unit < num_prep) {
            states[wave_trials[unit]].failed.store(true,
                                                   std::memory_order_release);
          }
        }
        ready_cv.notify_all();
        throw;
      }
    };

    std::vector<UnitFailure> unit_failures;
    if (strict) {
      exec.run(total_units, task, workers);
    } else {
      unit_failures = exec.run_isolated(total_units, task, workers);
    }

    // Map unit failures onto cells: a prep failure fails every active
    // cell of its trial; a pair-unit failure fails its own cell. The
    // first failure (lowest unit index — run_isolated returns them
    // sorted) wins the cell's error message.
    std::vector<std::string> cell_error(num_active);
    std::vector<std::string> trial_error(last_trial - first_trial);
    for (const auto& f : unit_failures) {
      if (f.index < num_prep) {
        auto& err = trial_error[wave_trials[f.index] - first_trial];
        if (err.empty()) err = "trial preparation failed: " + f.message;
      } else {
        const std::size_t k = static_cast<std::size_t>(
            std::upper_bound(cell_end.begin(), cell_end.end(), f.index) -
            cell_end.begin());
        if (cell_error[k].empty()) cell_error[k] = f.message;
      }
    }

    // Wave-end flush: every slot still pending is a failed cell (its
    // units never all finished, or its trial prep threw). Resolving them
    // in slot order keeps sink emission ordered; the executor barrier
    // above means no worker touches the emitter concurrently anymore.
    for (std::size_t i = 0; i < num_slots; ++i) {
      if (slot_state[i] != 0) continue;
      const std::size_t cell = wave_cells[i];
      const std::size_t k = active_of_cell[cell];
      std::string error =
          !cell_error[k].empty()
              ? cell_error[k]
              : trial_error[cell / num_specs - first_trial];
      if (error.empty()) error = "cell did not complete";
      result.failed_cells.push_back(
          {cell / num_specs, cell % num_specs, std::move(error)});
      resolve_slot(i, std::nullopt);
    }

    // Append the wave's rows in emission order — result order and sink
    // order are the same by construction.
    for (std::size_t i = 0; i < num_slots; ++i) {
      if (slot_state[i] == 1) {
        result.trial_rows.push_back(std::move(slot_rows[i]));
      }
    }
  };

  // The wave loop. Fixed campaigns run [0, budget) in ceil(budget /
  // wave_stride) waves — one, by default — with every spec in every wave,
  // so the schedule (and the emitted bytes) match the classic single
  // submission. Adaptive campaigns drop converged specs from subsequent
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
