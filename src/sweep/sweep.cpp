#include "sweep/sweep.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/profile.hpp"
#include "sim/regime.hpp"
#include "sim/report.hpp"

namespace csmt::sweep {
namespace {

namespace fs = std::filesystem;

/// Bump when the result schema or any timing-relevant default changes, so
/// stale cache entries stop matching.
/// v2: results carry sim_speed + an optional interval-metrics series;
/// specs carry the interval length.
/// v3: specs carry the allocation policy and epoch (csmt::alloc).
/// v4: results schema v3 (derived sim_speed.regime tag, DESIGN.md §12).
/// v5: multi-chip timing — cross-chip traffic resolved at an end-of-cycle
/// barrier (deferred mode), shifting multi-chip counters relative to v4.
/// v6: deferred mode removed — cross-chip traffic resolves inside the tick
/// in call order again (DESIGN.md §13), moving every multi-chip counter
/// back off the v5 values.
/// v7: entries are sealed over the spec's canonical encoding as well as
/// the stats, so a spec spliced onto another point's stats misses; a
/// workload name may be a multiprogrammed mix.
/// v8: interval metrics removed — specs lose the interval length (the
/// encoding's `|mi=` field) and results the series it sampled.
/// v9: slot values divide out of an exact integer tally, moving their
/// last bits; the preset encodes the cluster's one window size.
constexpr const char* kCacheKeyVersion = "csmt-sweep-v9";

/// Whether a point may be served from or written to the result cache.
/// Neither a traced nor a --no-skip point may: each must run the kernel it
/// asks for (a traced run's trace file is a side effect a hit would not
/// produce, and --no-skip is the per-cycle reference), and neither lets a
/// cluster sleep, so its sim_speed would misreport a skipping run served
/// later from the same entry. Neither knob is part of the cache key.
bool cacheable(const sim::ExperimentSpec& spec) {
  return spec.trace_path.empty() && !spec.no_skip;
}

/// Progress rendering picks between two stderr styles: a `\r`-rewritten
/// status line on a terminal, whole newline-terminated (and throttled)
/// lines when stderr is piped to a file or a log collector.
bool stderr_is_tty() {
#if defined(__unix__) || defined(__APPLE__)
  return isatty(fileno(stderr)) == 1;
#else
  return false;
#endif
}

/// FNV-1a from offset basis `h`. The stats digest starts from the standard
/// basis, like the fingerprints; the spec hash has always started from a
/// shorter constant, kept because it names every existing cache entry.
constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
constexpr std::uint64_t kSpecHashBasis = 1469598103934665603ull;

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Canonical text encoding of a point. Includes the resolved Table 2
/// preset (not just the ArchKind name) so edits to arch_preset() change
/// the key.
std::string canonical_encoding(const sim::ExperimentSpec& spec) {
  const core::ArchConfig arch = core::arch_preset(spec.arch);
  const core::ClusterConfig& cl = arch.cluster;
  std::ostringstream out;
  out << kCacheKeyVersion << '|' << spec.workload << '|'
      << core::arch_name(spec.arch) << '|' << spec.chips << '|' << spec.scale
      << "|fp=";
  if (spec.fetch_policy) out << core::fetch_policy_name(*spec.fetch_policy);
  out << "|ws=";
  if (spec.window_size) out << *spec.window_size;
  out << "|l1p=";
  if (spec.l1_private) out << (*spec.l1_private ? 1 : 0);
  out << "|ap=" << alloc::policy_name(spec.alloc_policy);
  out << "|ae=" << spec.alloc_epoch;
  out << "|preset=" << arch.clusters << ',' << cl.width << ',' << cl.threads
      << ',' << cl.int_units << ',' << cl.ldst_units << ',' << cl.fp_units
      << ',' << cl.window << ',' << cl.sync_wake_latency << ','
      << static_cast<int>(arch.fetch_policy);
  return out.str();
}

}  // namespace

std::vector<sim::ExperimentSpec> SweepSpec::expand() const {
  std::vector<sim::ExperimentSpec> points;
  points.reserve(workloads.size() * archs.size() * chips.size() *
                 scales.size());
  for (const std::string& w : workloads) {
    for (const core::ArchKind a : archs) {
      for (const unsigned c : chips) {
        for (const unsigned s : scales) {
          sim::ExperimentSpec spec;
          spec.workload = w;
          spec.arch = a;
          spec.chips = c;
          spec.scale = s;
          points.push_back(std::move(spec));
        }
      }
    }
  }
  return points;
}

std::uint64_t spec_hash(const sim::ExperimentSpec& spec) {
  return fnv1a(canonical_encoding(spec), kSpecHashBasis);
}

std::string cache_entry_name(const sim::ExperimentSpec& spec) {
  return "csmt-" + hex16(spec_hash(spec)) + ".json";
}

std::uint64_t stats_digest(const json::Value& stats) {
  return fnv1a(stats.dump(), kFnvOffsetBasis);
}

std::uint64_t stats_digest(const sim::ExperimentResult& result) {
  return stats_digest(*sim::to_json(result).find("stats"));
}

std::uint64_t entry_seal(const sim::ExperimentSpec& spec,
                         const json::Value& stats) {
  return fnv1a(stats.dump(), fnv1a(canonical_encoding(spec), kFnvOffsetBasis));
}

SweepRunner::SweepRunner(SweepOptions options) : options_(std::move(options)) {
  if (options_.jobs == 0) {
    options_.jobs = std::max(1u, std::thread::hardware_concurrency());
  }
  if (!options_.cache_dir.empty()) {
    std::error_code ec;
    fs::create_directories(options_.cache_dir, ec);
    if (ec) {
      std::fprintf(stderr,
                   "csmt: cannot create cache dir '%s' (%s); caching off\n",
                   options_.cache_dir.c_str(), ec.message().c_str());
      options_.cache_dir.clear();
    }
  }
}

std::vector<sim::ExperimentResult> SweepRunner::run(const SweepSpec& spec) {
  return run(spec.expand());
}

std::vector<sim::ExperimentResult> SweepRunner::run(
    const std::vector<sim::ExperimentSpec>& points) {
  std::vector<sim::ExperimentResult> results(points.size());

  // Progress: stderr only (stdout belongs to JSON artifacts, which must
  // never interleave with progress text). On a terminal the line is
  // rewritten in place with `\r`; piped, it becomes whole
  // newline-terminated lines throttled to ~2/s so logs stay short and
  // line-parseable. Emission is a single fprintf, so concurrent workers
  // interleave whole lines, never fragments.
  const bool tty = stderr_is_tty();
  const obs::WallTimer sweep_timer;
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> hits{0};
  // Per-sweep regime tally, indexed by sim::Regime.
  std::array<std::atomic<std::uint64_t>, 3> regimes{};
  std::atomic<std::int64_t> last_emit_ms{-1000};
  auto emit_progress = [&](bool final_line) {
    if (!options_.progress || points.empty()) return;
    if (!tty && !final_line) {
      const std::int64_t now_ms =
          static_cast<std::int64_t>(sweep_timer.elapsed_seconds() * 1e3);
      std::int64_t prev = last_emit_ms.load();
      if (now_ms - prev < 500 ||
          !last_emit_ms.compare_exchange_strong(prev, now_ms))
        return;
    }
    std::fprintf(
        stderr,
        "%scsmt sweep: %llu/%zu done (hits=%llu) "
        "regimes[busy/mixed/idle]=%llu/%llu/%llu elapsed=%.1fs%s",
        tty ? "\r" : "", static_cast<unsigned long long>(done.load()),
        points.size(), static_cast<unsigned long long>(hits.load()),
        static_cast<unsigned long long>(
            regimes[static_cast<int>(sim::Regime::kBusy)].load()),
        static_cast<unsigned long long>(
            regimes[static_cast<int>(sim::Regime::kMixed)].load()),
        static_cast<unsigned long long>(
            regimes[static_cast<int>(sim::Regime::kIdle)].load()),
        sweep_timer.elapsed_seconds(), (!tty || final_line) ? "\n" : "");
    std::fflush(stderr);
  };
  // Every completed point (cache hit or simulated) passes through here:
  // tally its regime for the progress line.
  auto note_point = [&](const sim::ExperimentResult& r) {
    ++done;
    if (r.sim_speed.measured) {
      ++regimes[static_cast<int>(
          sim::classify_regime(r.sim_speed.quiet_fraction()))];
    }
  };

  // Cache probes are serial (they are file reads, not simulations); only
  // the misses are simulated, by min(jobs, misses) workers that claim them
  // in index order from one atomic counter. Each worker writes only the
  // results[i] it claimed, so ordering and bit-identity are independent of
  // scheduling. Every finished cacheable point is published as it
  // completes, so rerunning an interrupted sweep against the same cache
  // dir simulates only the points it lacks.
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::optional<sim::ExperimentResult> cached =
        cache_probe(options_.cache_dir, points[i]);
    if (cached) {
      results[i] = std::move(*cached);
      ++counters_.cache_hits;
      ++hits;
      note_point(results[i]);
      emit_progress(false);
    } else {
      misses.push_back(i);
    }
  }

  std::atomic<std::size_t> next_miss{0};
  auto work = [&] {
    for (std::size_t k = next_miss++; k < misses.size(); k = next_miss++) {
      const std::size_t i = misses[k];
      results[i] = sim::run_experiment(points[i]);
      cache_publish(options_.cache_dir, results[i]);
      note_point(results[i]);
      emit_progress(false);
    }
  };
  {
    // A jthread joins when destroyed, so no worker outlives this scope.
    std::vector<std::jthread> workers(
        std::min<std::size_t>(options_.jobs, misses.size()));
    for (std::jthread& w : workers) w = std::jthread(work);
  }
  counters_.executed += misses.size();

  emit_progress(true);
  return results;
}

std::optional<sim::ExperimentResult> cache_probe(
    const std::string& cache_dir, const sim::ExperimentSpec& spec) {
  if (cache_dir.empty() || !cacheable(spec)) return std::nullopt;
  const fs::path path = fs::path(cache_dir) / cache_entry_name(spec);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  const auto doc = json::Value::parse(text.str());
  if (!doc) return std::nullopt;
  auto result = sim::result_from_json(*doc);
  // A hash collision or hand-edited entry for a different point must not
  // masquerade as this one, and the counters served must be the ones the
  // entry was sealed with for this spec: the seal is recomputed from the
  // requested spec and the decoded stats, so an in-range edit or another
  // point's stats spliced under this spec still misses. `validated` lies
  // outside the seal, so only the one value cache_publish writes is
  // served; any other is recomputed.
  const json::Value* seal = doc->find("seal");
  if (!result || !(result->spec == spec) || !result->validated || !seal ||
      !seal->is_string() ||
      seal->as_string() !=
          hex16(entry_seal(spec, *sim::to_json(*result).find("stats"))))
    return std::nullopt;
  return result;
}

void cache_publish(const std::string& cache_dir,
                   const sim::ExperimentResult& result) {
  if (cache_dir.empty() || !cacheable(result.spec) || !result.validated)
    return;
  const fs::path path = fs::path(cache_dir) / cache_entry_name(result.spec);
  // Write-then-rename so no reader ever observes a torn entry. The tmp name
  // carries the pid: in-process workers already serialize per point, but
  // two *processes* racing the same entry (concurrent benches sharing a
  // cache dir) must not interleave writes into one tmp file —
  // each renames its own complete file into place, last one wins.
  fs::path tmp = path;
#if defined(__unix__) || defined(__APPLE__)
  tmp += ".tmp." + std::to_string(static_cast<long long>(::getpid()));
#else
  tmp += ".tmp";
#endif
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    // The --json artifact is to_json alone; only cache entries carry the
    // seal cache_probe checks.
    json::Value entry = sim::to_json(result);
    entry["seal"] = hex16(entry_seal(result.spec, *entry.find("stats")));
    out << entry.dump(2) << '\n';
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
}

}  // namespace csmt::sweep
