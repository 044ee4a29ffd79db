// Tests for the sweep subsystem: grid expansion, parallel determinism
// (jobs=1 and jobs=4 must be bit-identical) and the on-disk result cache,
// whose entries fail closed: a corrupted entry is recomputed, never served.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/report.hpp"
#include "sweep/sweep.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace csmt::sweep {
namespace {

namespace fs = std::filesystem;

SweepSpec small_grid() {
  SweepSpec spec;
  spec.workloads = {"swim", "tomcatv"};
  spec.archs = {core::ArchKind::kFa2, core::ArchKind::kSmt2};
  spec.chips = {1};
  spec.scales = {1};
  return spec;
}

SweepOptions quiet(unsigned jobs, std::string cache_dir = {}) {
  SweepOptions options;
  options.jobs = jobs;
  options.cache_dir = std::move(cache_dir);
  options.progress = false;
  return options;
}

/// Bit-exact RunStats comparison (doubles compared with ==, deliberately:
/// the determinism guarantee is bit-identity, not approximate equality).
void expect_identical(const sim::ExperimentResult& a,
                      const sim::ExperimentResult& b) {
  EXPECT_EQ(a.spec, b.spec);
  EXPECT_EQ(a.validated, b.validated);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.stats.committed_useful, b.stats.committed_useful);
  EXPECT_EQ(a.stats.committed_sync, b.stats.committed_sync);
  EXPECT_EQ(a.stats.fetched, b.stats.fetched);
  EXPECT_EQ(a.stats.timed_out, b.stats.timed_out);
  EXPECT_EQ(a.stats.avg_running_threads, b.stats.avg_running_threads);
  for (std::size_t i = 0; i < core::kNumSlots; ++i) {
    EXPECT_EQ(a.stats.slots.slots[i], b.stats.slots.slots[i]) << "slot " << i;
  }
  EXPECT_EQ(a.stats.predictor.cond_lookups, b.stats.predictor.cond_lookups);
  EXPECT_EQ(a.stats.predictor.cond_mispredicts,
            b.stats.predictor.cond_mispredicts);
  EXPECT_EQ(a.stats.predictor.btb_misses, b.stats.predictor.btb_misses);
  EXPECT_EQ(a.stats.mem.loads, b.stats.mem.loads);
  EXPECT_EQ(a.stats.mem.stores, b.stats.mem.stores);
  EXPECT_EQ(a.stats.mem.by_level, b.stats.mem.by_level);
  EXPECT_EQ(a.stats.mem.bank_rejections, b.stats.mem.bank_rejections);
  EXPECT_EQ(a.stats.mem.mshr_rejections, b.stats.mem.mshr_rejections);
  EXPECT_EQ(a.stats.mem.upgrades, b.stats.mem.upgrades);
  EXPECT_EQ(a.stats.mem.l1_miss_rate, b.stats.mem.l1_miss_rate);
  EXPECT_EQ(a.stats.mem.l2_miss_rate, b.stats.mem.l2_miss_rate);
  EXPECT_EQ(a.stats.mem.tlb_miss_rate, b.stats.mem.tlb_miss_rate);
  EXPECT_EQ(a.stats.dash.has_value(), b.stats.dash.has_value());
  EXPECT_EQ(a.job_finish, b.job_finish);
}

/// Unique scratch dir per test invocation (pid-based; tests run in their
/// own binary so this does not collide under parallel ctest).
fs::path scratch_dir(const std::string& name) {
  return fs::temp_directory_path() /
         ("csmt_" + name + "_" + std::to_string(::getpid()));
}

std::string read_text(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

json::Value read_json(const fs::path& path) {
  auto doc = json::Value::parse(read_text(path));
  EXPECT_TRUE(doc.has_value()) << path;
  return doc ? std::move(*doc) : json::Value();
}

void write_json(const fs::path& path, const json::Value& doc) {
  std::ofstream out(path, std::ios::trunc);
  out << doc.dump(2);
}

/// The "seal" string a cache entry for `spec` with this "stats" object
/// carries.
std::string seal_hex(const sim::ExperimentSpec& spec,
                     const json::Value& stats) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(entry_seal(spec, stats)));
  return hex;
}

TEST(SweepSpec, ExpandsWorkloadMajor) {
  SweepSpec spec = small_grid();
  spec.chips = {1, 4};
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 2u * 2u * 2u);
  // Workload-major, then arch, then chips.
  EXPECT_EQ(points[0].workload, "swim");
  EXPECT_EQ(points[0].arch, core::ArchKind::kFa2);
  EXPECT_EQ(points[0].chips, 1u);
  EXPECT_EQ(points[1].chips, 4u);
  EXPECT_EQ(points[2].arch, core::ArchKind::kSmt2);
  EXPECT_EQ(points[4].workload, "tomcatv");
  for (const auto& p : points) EXPECT_EQ(p.scale, 1u);
}

TEST(SweepRunner, ParallelIsBitIdenticalToSerial) {
  SweepRunner serial(quiet(1));
  SweepRunner parallel(quiet(4));
  const auto a = serial.run(small_grid());
  const auto b = parallel.run(small_grid());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(serial.counters().executed, 4u);
  EXPECT_EQ(parallel.counters().executed, 4u);
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i]);
  // Sanity: the simulation actually ran and validated.
  for (const auto& r : a) {
    EXPECT_GT(r.stats.cycles, 0u);
    EXPECT_TRUE(r.validated);
  }
}

TEST(SweepRunner, CacheHitSkipsSimulation) {
  const fs::path dir = scratch_dir("sweep_cache");
  fs::remove_all(dir);

  SweepRunner first(quiet(2, dir.string()));
  const auto a = first.run(small_grid());
  EXPECT_EQ(first.counters().executed, 4u);
  EXPECT_EQ(first.counters().cache_hits, 0u);

  SweepRunner second(quiet(2, dir.string()));
  const auto b = second.run(small_grid());
  EXPECT_EQ(second.counters().executed, 0u);
  EXPECT_EQ(second.counters().cache_hits, 4u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i]);

  fs::remove_all(dir);
}

TEST(SweepRunner, CachedResultIsReturnedWithoutRerun) {
  // Replace a cached entry with a validly sealed one for a different
  // cycle count; the runner must hand back that value — direct proof the
  // simulation was not re-run.
  const fs::path dir = scratch_dir("sweep_tamper");
  fs::remove_all(dir);

  SweepSpec grid = small_grid();
  grid.workloads = {"swim"};
  grid.archs = {core::ArchKind::kSmt2};
  SweepRunner first(quiet(1, dir.string()));
  const auto a = first.run(grid);
  ASSERT_EQ(a.size(), 1u);

  ASSERT_TRUE(fs::exists(dir / cache_entry_name(a[0].spec)));
  const std::uint64_t tampered = a[0].stats.cycles + 777;
  sim::ExperimentResult sealed = a[0];
  sealed.stats.cycles = tampered;
  cache_publish(dir.string(), sealed);

  SweepRunner second(quiet(1, dir.string()));
  const auto b = second.run(grid);
  EXPECT_EQ(second.counters().cache_hits, 1u);
  EXPECT_EQ(second.counters().executed, 0u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].stats.cycles, tampered);

  fs::remove_all(dir);
}

TEST(SweepRunner, NoSkipAndTracedPointsNeverTouchTheCache) {
  // A --no-skip point must run the per-cycle kernel it asks for and a
  // traced point must write its trace, so neither is served from the
  // cache. Neither lets a cluster sleep either, so neither may publish an
  // entry that a later skipping run would be served.
  const fs::path dir = scratch_dir("sweep_bypass");
  const fs::path trace = scratch_dir("sweep_bypass_trace");
  fs::remove_all(dir);
  SweepSpec grid = small_grid();
  grid.workloads = {"swim"};
  grid.archs = {core::ArchKind::kSmt2};
  const sim::ExperimentSpec skip = grid.expand().at(0);
  sim::ExperimentSpec no_skip = skip;
  no_skip.no_skip = true;
  sim::ExperimentSpec traced = skip;
  traced.trace_path = trace.string();
  auto entries = [&dir] {
    return std::distance(fs::directory_iterator(dir),
                         fs::directory_iterator());
  };

  for (const sim::ExperimentSpec& spec : {no_skip, traced}) {
    SweepRunner runner(quiet(1, dir.string()));
    const auto r = runner.run(std::vector<sim::ExperimentSpec>{spec});
    EXPECT_EQ(runner.counters().executed, 1u);
    EXPECT_TRUE(r.at(0).validated);
    EXPECT_EQ(entries(), 0) << "a bypassing point wrote a cache entry";
  }

  SweepRunner first(quiet(1, dir.string()));
  const auto clean = first.run(std::vector<sim::ExperimentSpec>{skip});
  const fs::path entry = dir / cache_entry_name(skip);
  ASSERT_TRUE(fs::exists(entry));
  const std::string bytes = read_text(entry);
  for (const sim::ExperimentSpec& spec : {no_skip, traced}) {
    SweepRunner runner(quiet(1, dir.string()));
    const auto r = runner.run(std::vector<sim::ExperimentSpec>{spec});
    EXPECT_EQ(runner.counters().cache_hits, 0u);
    EXPECT_EQ(runner.counters().executed, 1u);
    EXPECT_EQ(r.at(0).sim_speed.quiet_cycles, 0u);
    EXPECT_EQ(stats_digest(r.at(0)), stats_digest(clean.at(0)));
    EXPECT_EQ(read_text(entry), bytes) << "a bypassing point rewrote the entry";
  }

  fs::remove_all(dir);
  fs::remove(trace);
}

TEST(SweepRunner, CorruptCacheEntryFallsBackToSimulation) {
  const fs::path dir = scratch_dir("sweep_corrupt");
  fs::remove_all(dir);

  SweepSpec grid = small_grid();
  grid.workloads = {"swim"};
  grid.archs = {core::ArchKind::kFa2};
  const auto points = grid.expand();
  ASSERT_EQ(points.size(), 1u);

  fs::create_directories(dir);
  {
    std::ofstream out(dir / cache_entry_name(points[0]));
    out << "{ not json";
  }
  SweepRunner runner(quiet(1, dir.string()));
  const auto results = runner.run(grid);
  EXPECT_EQ(runner.counters().executed, 1u);
  EXPECT_EQ(runner.counters().cache_hits, 0u);
  EXPECT_GT(results[0].stats.cycles, 0u);

  fs::remove_all(dir);
}

/// Runs the one-point `grid` into a fresh cache, applies `corrupt` to the
/// entry's JSON and runs it again. The entry must be a miss, the recomputed
/// result must equal the clean one, and the entry must have been rewritten
/// clean. With `reseal`, the corrupted entry gets the seal its spec and
/// corrupted "stats" object hash to, so only the decoder's range checks
/// stand between the corruption and a served hit.
void expect_recomputed(const std::string& name, const SweepSpec& grid,
                       const std::function<void(json::Value&)>& corrupt,
                       bool reseal) {
  const fs::path dir = scratch_dir(name);
  fs::remove_all(dir);
  SweepRunner first(quiet(1, dir.string()));
  const auto clean = first.run(grid);
  ASSERT_EQ(clean.size(), 1u);

  const sim::ExperimentSpec& spec = clean[0].spec;
  const fs::path entry = dir / cache_entry_name(spec);
  json::Value doc = read_json(entry);
  // Resealing reproduces the writer's seal exactly, so a resealed entry
  // differs from a genuine one only in the corrupted field.
  ASSERT_EQ(doc["seal"].as_string(), seal_hex(spec, doc["stats"]));
  corrupt(doc);
  if (reseal) doc["seal"] = seal_hex(spec, doc["stats"]);
  write_json(entry, doc);

  SweepRunner second(quiet(1, dir.string()));
  const auto again = second.run(grid);
  EXPECT_EQ(second.counters().cache_hits, 0u);
  EXPECT_EQ(second.counters().executed, 1u);
  ASSERT_EQ(again.size(), 1u);
  expect_identical(again[0], clean[0]);
  EXPECT_EQ(stats_digest(again[0]), stats_digest(clean[0]));

  const auto rewritten = cache_probe(dir.string(), clean[0].spec);
  ASSERT_TRUE(rewritten) << "corrupted entry was not rewritten";
  EXPECT_EQ(stats_digest(*rewritten), stats_digest(clean[0]));
  fs::remove_all(dir);
}

SweepSpec one_point(unsigned chips) {
  SweepSpec grid = small_grid();
  grid.workloads = {"swim"};
  grid.archs = {core::ArchKind::kSmt2};
  grid.chips = {chips};
  return grid;
}

TEST(SweepCacheCorruption, NegativeCounterIsRecomputed) {
  expect_recomputed("corrupt_counter", one_point(1), [](json::Value& doc) {
    json::Value& cycles = doc["stats"]["cycles"];
    cycles = -cycles.as_number();
  }, true);
}

TEST(SweepCacheCorruption, NegativeSlotIsRecomputed) {
  expect_recomputed("corrupt_slot", one_point(1), [](json::Value& doc) {
    doc["stats"]["slots"]["memory"] = -5.0;
  }, true);
}

TEST(SweepCacheCorruption, MissRateAboveOneIsRecomputed) {
  expect_recomputed("corrupt_rate", one_point(1), [](json::Value& doc) {
    doc["stats"]["mem"]["l2_miss_rate"] = 1.5;
  }, true);
}

TEST(SweepCacheCorruption, FractionalDashCounterIsRecomputed) {
  expect_recomputed("corrupt_dash", one_point(4), [](json::Value& doc) {
    json::Value& fetches = doc["stats"]["dash"]["remote_fetches"];
    ASSERT_TRUE(fetches.is_number());
    fetches = fetches.as_number() + 0.5;
  }, true);
}

TEST(SweepCacheCorruption, DigestMismatchIsRecomputed) {
  // In range, so only the seal catches it.
  expect_recomputed("corrupt_digest", one_point(1), [](json::Value& doc) {
    json::Value& cycles = doc["stats"]["cycles"];
    cycles = 2 * cycles.as_number();
  }, false);
}

TEST(SweepCacheCorruption, MissingDigestIsRecomputed) {
  // Also what an entry written before entries carried seals looks like,
  // so caches from older builds are recomputed rather than trusted.
  expect_recomputed("corrupt_unsealed", one_point(1), [](json::Value& doc) {
    json::Value unsealed = json::Value::object();
    for (const auto& [key, value] : doc.members()) {
      if (key != "seal") unsealed[key] = value;
    }
    doc = std::move(unsealed);
  }, false);
}

TEST(SweepCacheCorruption, ValidatedFlipIsRecomputed) {
  // `validated` lies outside the seal, and only validated results are
  // published, so an entry claiming anything else is recomputed.
  expect_recomputed("corrupt_validated", one_point(1), [](json::Value& doc) {
    doc["validated"] = false;
  }, false);
}

SweepSpec mix_point() {
  SweepSpec grid = one_point(1);
  grid.workloads = {"swim+ocean"};
  return grid;
}

TEST(SweepCache, MixEntryRoundTripsJobFinish) {
  const fs::path dir = scratch_dir("sweep_mix");
  fs::remove_all(dir);
  SweepRunner first(quiet(1, dir.string()));
  const auto clean = first.run(mix_point());
  ASSERT_EQ(clean.size(), 1u);
  ASSERT_EQ(clean[0].job_finish.size(), 2u);
  EXPECT_GT(clean[0].job_finish[0], 0u);
  EXPECT_LE(clean[0].job_finish[1], clean[0].stats.cycles);

  SweepRunner second(quiet(1, dir.string()));
  const auto cached = second.run(mix_point());
  EXPECT_EQ(second.counters().cache_hits, 1u);
  expect_identical(cached[0], clean[0]);
  fs::remove_all(dir);
}

TEST(SweepCacheCorruption, TamperedJobFinishIsRecomputed) {
  // In range, so only the seal catches it.
  expect_recomputed("corrupt_job_finish", mix_point(), [](json::Value& doc) {
    json::Value& finish = doc["stats"]["job_finish"].items()[0];
    finish = finish.as_number() - 1;
  }, false);
}

TEST(SweepCacheCorruption, JobFinishPastTheRunIsRecomputed) {
  expect_recomputed("corrupt_job_late", mix_point(), [](json::Value& doc) {
    doc["stats"]["job_finish"].items()[1] =
        doc["stats"]["cycles"].as_number() + 1;
  }, true);
}

/// `target`'s cache entry with its whole spec kept and everything else —
/// stats, seal, sim_speed — taken from `donor`'s entry.
std::string spec_splice(const std::string& target, const std::string& donor) {
  auto spliced = json::Value::parse(donor);
  auto kept = json::Value::parse(target);
  EXPECT_TRUE(spliced && kept);
  if (!spliced || !kept) return {};
  (*spliced)["spec"] = std::move((*kept)["spec"]);
  return spliced->dump(2);
}

TEST(SweepCacheCorruption, SplicedSpecIsRecomputed) {
  // Figure 7's fmm/SMT2 spec spliced onto the fmm/SMT4 entry's stats and
  // seal: every field decodes and the stats match their own digest, so
  // only a seal that covers the spec turns the splice into a miss.
  const fs::path dir = scratch_dir("sweep_spec_splice");
  fs::remove_all(dir);
  SweepSpec grid = one_point(1);
  grid.workloads = {"fmm"};
  grid.archs = {core::ArchKind::kSmt2, core::ArchKind::kSmt4};
  SweepRunner first(quiet(1, dir.string()));
  const auto clean = first.run(grid);
  ASSERT_EQ(clean.size(), 2u);
  ASSERT_NE(clean[0].stats.cycles, clean[1].stats.cycles);

  const fs::path smt2 = dir / cache_entry_name(clean[0].spec);
  const fs::path smt4 = dir / cache_entry_name(clean[1].spec);
  const std::string spliced = spec_splice(read_text(smt2), read_text(smt4));
  {
    std::ofstream out(smt2, std::ios::binary | std::ios::trunc);
    out << spliced;
  }
  EXPECT_FALSE(cache_probe(dir.string(), clean[0].spec));

  SweepRunner second(quiet(1, dir.string()));
  const auto again = second.run(grid);
  EXPECT_EQ(second.counters().cache_hits, 1u);
  EXPECT_EQ(second.counters().executed, 1u);
  ASSERT_EQ(again.size(), 2u);
  expect_identical(again[0], clean[0]);
  EXPECT_EQ(stats_digest(again[0]), stats_digest(clean[0]));
  fs::remove_all(dir);
}

/// Byte ranges [begin, end) of the number and true/false tokens of a JSON
/// text, outside strings.
struct JsonTokens {
  std::vector<std::pair<std::size_t, std::size_t>> numbers;
  std::vector<std::pair<std::size_t, std::size_t>> bools;
};

JsonTokens scan_tokens(const std::string& text) {
  const auto in_number = [](char c) {
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
           c == '+' || c == '-';
  };
  JsonTokens t;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      std::size_t end = i + 1;
      while (end < text.size() && in_number(text[end])) ++end;
      t.numbers.emplace_back(i, end);
      i = end - 1;
    } else if (text.compare(i, 4, "true") == 0) {
      t.bools.emplace_back(i, i + 4);
      i += 3;
    } else if (text.compare(i, 5, "false") == 0) {
      t.bools.emplace_back(i, i + 5);
      i += 4;
    }
  }
  return t;
}

TEST(SweepCacheCorruption, SeededMutantsMissOrMatchTheEntry) {
  // A fixed-seed mutation harness over one sealed entry. Every mutant must
  // probe as a miss or as the entry it came from (same spec, stats digest
  // and validated flag): never a crash, UB, or a different result. A
  // 4-chip point with a dynamic policy carries every optional block the
  // decoder reads: dash, by_level and alloc.
  const fs::path dir = scratch_dir("sweep_mutants");
  fs::remove_all(dir);
  fs::create_directories(dir);
  sim::ExperimentSpec spec;
  spec.workload = "ocean";
  spec.arch = core::ArchKind::kSmt2;
  spec.chips = 4;
  spec.scale = 1;
  spec.alloc_policy = alloc::PolicyKind::kSymbiosis;
  spec.alloc_epoch = 1000;
  const sim::ExperimentResult original = sim::run_experiment(spec);
  ASSERT_TRUE(original.validated);
  sim::ExperimentSpec other_spec = spec;
  other_spec.arch = core::ArchKind::kSmt4;
  const sim::ExperimentResult other = sim::run_experiment(other_spec);
  cache_publish(dir.string(), original);
  cache_publish(dir.string(), other);
  const fs::path entry = dir / cache_entry_name(spec);
  const std::string text = read_text(entry);
  const std::string donor = read_text(dir / cache_entry_name(other_spec));
  for (const char* key :
       {"\"dash\"", "\"by_level\"", "\"alloc\"", "\"validated\""}) {
    ASSERT_NE(text.find(key), std::string::npos) << key;
  }
  ASSERT_TRUE(cache_probe(dir.string(), spec)) << "clean entry must hit";
  const std::uint64_t want_digest = stats_digest(original);
  const JsonTokens tokens = scan_tokens(text);
  ASSERT_FALSE(tokens.numbers.empty());
  ASSERT_FALSE(tokens.bools.empty());

  // Splices join a random prefix of the entry to a random suffix of the
  // donor, cut independently; a spec splice keeps the entry's whole spec
  // and takes everything else from the donor.
  enum Kind { kBitFlip, kTruncate, kSplice, kNegate, kHuge, kOverflow,
              kBoolSwap, kSpecSplice, kNumKinds };
  const char* const kind_names[kNumKinds] = {
      "bit flip", "truncation", "splice", "negation", "1e400",
      "2^64", "bool swap", "spec splice"};
  Rng rng(0xC0FFEE);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.below(static_cast<std::uint32_t>(n)));
  };
  constexpr int kMutants = 1001;
  int misses[kNumKinds] = {};
  int wrong = 0;
  for (int m = 0; m < kMutants; ++m) {
    const Kind kind = static_cast<Kind>(m % kNumKinds);
    std::string mutant = text;
    switch (kind) {
      case kBitFlip:
        mutant[pick(mutant.size())] ^= static_cast<char>(1u << rng.below(8));
        break;
      case kTruncate:
        mutant.resize(pick(mutant.size()));
        break;
      case kSplice:
        mutant = text.substr(0, pick(text.size())) +
                 donor.substr(pick(donor.size()));
        break;
      case kNegate: {
        const auto [b, e] = tokens.numbers[pick(tokens.numbers.size())];
        if (mutant[b] == '-') {
          mutant.erase(b, 1);
        } else {
          mutant.insert(b, 1, '-');
        }
        break;
      }
      case kHuge:
      case kOverflow: {
        const auto [b, e] = tokens.numbers[pick(tokens.numbers.size())];
        mutant.replace(b, e - b,
                       kind == kHuge ? "1e400" : "18446744073709551616");
        break;
      }
      case kBoolSwap: {
        const auto [b, e] = tokens.bools[pick(tokens.bools.size())];
        mutant.replace(b, e - b, e - b == 4 ? "false" : "true");
        break;
      }
      case kSpecSplice:
        mutant = spec_splice(text, donor);
        break;
      case kNumKinds:
        break;
    }
    {
      std::ofstream out(entry, std::ios::binary | std::ios::trunc);
      out << mutant;
    }
    const auto probed = cache_probe(dir.string(), spec);
    if (!probed) {
      ++misses[kind];
      continue;
    }
    if (!(probed->spec == spec) || stats_digest(*probed) != want_digest ||
        !probed->validated) {
      if (++wrong <= 5) {
        ADD_FAILURE() << "mutant " << m << " (" << kind_names[kind]
                      << ") was served as a different result";
      }
    }
  }
  EXPECT_EQ(wrong, 0) << "mutants served as a different result";
  for (int k = 0; k < kNumKinds; ++k) {
    EXPECT_GT(misses[k], 0) << kind_names[k] << " never caused a miss";
  }
  fs::remove_all(dir);
}

TEST(SweepHash, DistinguishesEveryAxis) {
  sim::ExperimentSpec base;
  base.workload = "swim";
  base.arch = core::ArchKind::kSmt2;
  base.chips = 1;
  base.scale = 1;

  auto hash_of = [](sim::ExperimentSpec s) { return spec_hash(s); };
  const std::uint64_t h = hash_of(base);

  sim::ExperimentSpec w = base;
  w.workload = "ocean";
  sim::ExperimentSpec a = base;
  a.arch = core::ArchKind::kFa2;
  sim::ExperimentSpec c = base;
  c.chips = 4;
  sim::ExperimentSpec s = base;
  s.scale = 2;
  sim::ExperimentSpec f = base;
  f.fetch_policy = core::FetchPolicy::kIcount;
  sim::ExperimentSpec ws = base;
  ws.window_size = 32;
  sim::ExperimentSpec l1 = base;
  l1.l1_private = true;
  sim::ExperimentSpec ap = base;
  ap.alloc_policy = alloc::PolicyKind::kSymbiosis;
  sim::ExperimentSpec ae = base;
  ae.alloc_epoch = 1000;
  for (const auto& other : {w, a, c, s, f, ws, l1, ap, ae}) {
    EXPECT_NE(spec_hash(other), h);
  }
  // And the hash is stable for equal specs.
  EXPECT_EQ(hash_of(base), h);
}

#if defined(__unix__) || defined(__APPLE__)
TEST(SweepCache, ConcurrentProcessPublishersNeverTearAnEntry) {
  // Regression for the multi-process cache hazard: two processes racing
  // cache_publish on the SAME entry used to share one tmp file name, so
  // their writes interleaved and a torn entry could be renamed into place.
  // With pid-unique tmp names each process renames its own complete file;
  // a reader must only ever observe a miss or a complete, parseable entry.
  const fs::path dir = scratch_dir("sweep_race");
  fs::remove_all(dir);
  fs::create_directories(dir);

  sim::ExperimentSpec spec;
  spec.workload = "swim";
  spec.arch = core::ArchKind::kFa2;
  spec.chips = 1;
  spec.scale = 1;
  const sim::ExperimentResult result = sim::run_experiment(spec);

  // Forked (not spawned) children are safe here: this test binary runs no
  // background threads, and the children only publish and _exit.
  constexpr int kRounds = 200;
  std::vector<pid_t> children;
  for (int c = 0; c < 2; ++c) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      for (int i = 0; i < kRounds; ++i) cache_publish(dir.string(), result);
      ::_exit(0);
    }
    children.push_back(pid);
  }

  // While they race, hammer the reader side: every observation of the
  // entry file must parse and decode — never a torn interleaving.
  const fs::path entry = dir / cache_entry_name(spec);
  std::size_t live = children.size();
  std::size_t reads = 0;
  while (live > 0) {
    for (auto it = children.begin(); it != children.end();) {
      int status = 0;
      if (::waitpid(*it, &status, WNOHANG) == *it) {
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
        it = children.erase(it);
        --live;
      } else {
        ++it;
      }
    }
    std::ifstream in(entry, std::ios::binary);
    if (!in) continue;
    std::ostringstream text;
    text << in.rdbuf();
    if (text.str().empty()) continue;
    ++reads;
    const auto doc = json::Value::parse(text.str());
    ASSERT_TRUE(doc) << "torn cache entry observed mid-race";
    ASSERT_TRUE(sim::result_from_json(*doc));
  }
  EXPECT_GT(reads, 0u);

  // Settled state: the entry probes clean and no tmp litter survives.
  const auto probed = cache_probe(dir.string(), spec);
  ASSERT_TRUE(probed);
  expect_identical(*probed, result);
  for (const auto& e : fs::directory_iterator(dir)) {
    EXPECT_EQ(e.path().extension(), ".json")
        << "leftover tmp file: " << e.path();
  }
  fs::remove_all(dir);
}
#endif  // __unix__ || __APPLE__

}  // namespace
}  // namespace csmt::sweep
