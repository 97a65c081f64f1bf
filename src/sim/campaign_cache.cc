#include "sim/campaign_cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include "sim/campaign_io.h"
#include "util/hash.h"

namespace sbgp::sim {

namespace {

namespace fs = std::filesystem;

std::string hex64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[(v >> (4 * i)) & 0xF];
  }
  return out;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("CampaignCache: " + what + ": " +
                           std::strerror(errno));
}

/// RAII advisory lock on `path` (created if absent): flock(LOCK_EX),
/// released on destruction. Advisory is enough — every writer of the
/// cache directory is this code, and readers never need the lock because
/// rename keeps entries atomic; the lock only serializes *installs* of
/// one entry so two processes finishing the same cell never interleave
/// their temp/rename sequences.
class EntryLock {
 public:
  explicit EntryLock(const fs::path& path) {
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) throw_errno("cannot open lock file '" + path.string() + "'");
    if (::flock(fd_, LOCK_EX) != 0) {
      const int saved = errno;
      ::close(fd_);
      errno = saved;
      throw_errno("cannot lock '" + path.string() + "'");
    }
  }
  ~EntryLock() {
    if (fd_ >= 0) ::close(fd_);  // closing drops the flock
  }
  EntryLock(const EntryLock&) = delete;
  EntryLock& operator=(const EntryLock&) = delete;

 private:
  int fd_ = -1;
};

/// fsync() the file at `path` (must exist). Durability half of the
/// crash-safe install: entry bytes reach the disk before the rename that
/// makes them visible.
void fsync_path(const fs::path& path, int open_flags) {
  const int fd = ::open(path.c_str(), open_flags | O_CLOEXEC);
  if (fd < 0) throw_errno("cannot reopen '" + path.string() + "' for fsync");
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    errno = saved;
    throw_errno("fsync failed for '" + path.string() + "'");
  }
}

}  // namespace

std::string cache_entry_name(const CacheKey& key) {
  // "t<16 hex>-s<16 hex>-e<16 hex>.csv", built by append: the equivalent
  // operator+ chain trips a gcc 12 -Wrestrict false positive.
  std::string name;
  name.reserve(1 + 16 + 2 + 16 + 2 + 16 + 4);
  name.append("t").append(hex64(key.topology_fingerprint));
  name.append("-s").append(hex64(key.trial_seed));
  name.append("-e").append(hex64(key.spec_fingerprint));
  name.append(".csv");
  return name;
}

std::uint64_t cache_key_fingerprint(const CacheKey& key) {
  return util::Fingerprint()
      .mix(key.topology_fingerprint)
      .mix(key.trial_seed)
      .mix(key.spec_fingerprint)
      .value();
}

CampaignCache::CampaignCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw std::runtime_error("CampaignCache: cannot create cache directory '" +
                             dir_ + "': " + ec.message());
  }
}

CampaignCache::Stats CampaignCache::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

std::optional<ExperimentRow> CampaignCache::lookup(const CacheKey& key) {
  const fs::path path = fs::path(dir_) / cache_entry_name(key);
  std::ifstream in(path);
  if (!in.is_open()) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.misses;
    return std::nullopt;
  }
  std::vector<CampaignTrialRow> rows;
  try {
    rows = read_trial_rows_csv(in);
  } catch (const std::invalid_argument&) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.corrupt;
    ++stats_.misses;
    return std::nullopt;
  }
  // An entry must hold exactly the one row its name promises, and the
  // row's own seed column must agree with the key — anything else is a
  // truncated, hand-edited, or misplaced file, and recomputing is cheaper
  // than trusting it.
  if (rows.size() != 1 || rows.front().topology_seed != key.trial_seed) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.corrupt;
    ++stats_.misses;
    return std::nullopt;
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.hits;
  }
  return std::move(rows.front().row);
}

void CampaignCache::store(const CacheKey& key, const CampaignTrialRow& row) {
  const std::string entry = cache_entry_name(key);
  const fs::path path = fs::path(dir_) / entry;
  if (fault_injector_ != nullptr) {
    fault_injector_->maybe_throw(FaultSite::kCacheWrite,
                                 cache_key_fingerprint(key),
                                 "cache install of " + entry);
  }
  // Serialize concurrent installers of this entry — threads of this
  // process and other processes sharing the directory alike.
  const EntryLock lock(fs::path(dir_) / (entry + ".lock"));
  if (std::ifstream existing(path); existing.is_open()) {
    // A concurrent writer (another shard, another thread) installed the
    // entry while we computed; its bytes are identical by construction,
    // so re-writing would only churn the disk. But only a *valid* entry
    // earns the skip — a corrupt file (torn copy, truncation) must be
    // replaced, or it would shadow the recomputed row forever.
    bool valid = false;
    try {
      std::vector<CampaignTrialRow> rows = read_trial_rows_csv(existing);
      valid = rows.size() == 1 && rows.front().topology_seed == key.trial_seed;
    } catch (const std::invalid_argument&) {
    }
    if (valid) {
      const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.already_present;
      return;
    }
  }
  // Temp name unique per process *and* per store call; the entry lock
  // already excludes same-key racers, the unique name additionally keeps
  // differently-keyed stores from ever sharing a temp path.
  static std::atomic<std::uint64_t> store_serial{0};
  const std::string tmp_name =
      entry + ".tmp" + std::to_string(::getpid()) + "." +
      std::to_string(store_serial.fetch_add(1, std::memory_order_relaxed));
  const fs::path tmp = fs::path(dir_) / tmp_name;
  {
    std::ofstream out(tmp);
    if (!out.is_open()) {
      throw std::runtime_error("CampaignCache: cannot write '" + tmp.string() +
                               "'");
    }
    write_trial_rows_csv(out, {row});
    out.flush();
    if (!out) {
      throw std::runtime_error("CampaignCache: write failed for '" +
                               tmp.string() + "'");
    }
  }
  // Durability before visibility: the entry's bytes, then the rename's
  // directory update, must survive a crash the instant lookup() can see
  // the entry. (Directory fsync after the rename.)
  fsync_path(tmp, O_WRONLY);
  std::error_code rename_ec;
  fs::rename(tmp, path, rename_ec);
  bool exdev = false;
  if (rename_ec == std::errc::cross_device_link) {
    // Cache dir straddling a filesystem boundary (bind mounts, overlay
    // upper dirs): degrade to copy + unlink. Not atomic, but the entry
    // lock keeps other installers out and a torn copy is rejected by
    // lookup()'s validation — so count the event and carry on.
    std::error_code copy_ec;
    fs::copy_file(tmp, path, fs::copy_options::overwrite_existing, copy_ec);
    std::error_code cleanup_ec;
    fs::remove(tmp, cleanup_ec);
    if (copy_ec) {
      throw std::runtime_error("CampaignCache: EXDEV copy fallback failed '" +
                               path.string() + "': " + copy_ec.message());
    }
    fsync_path(path, O_WRONLY);
    exdev = true;
  } else if (rename_ec) {
    std::error_code cleanup_ec;
    fs::remove(tmp, cleanup_ec);
    throw std::runtime_error("CampaignCache: cannot install entry '" +
                             path.string() + "': " + rename_ec.message());
  }
  fsync_path(fs::path(dir_), O_RDONLY | O_DIRECTORY);
  const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  ++stats_.stores;
  if (exdev) ++stats_.exdev_fallbacks;
}

}  // namespace sbgp::sim
