// csmt_perfbench: the repository benchmark. Runs one workload through
// csmt's public API, checks every simulated result, and prints the metrics
// as one JSON object on the last line of stdout.
//
//   csmt_perfbench --workload paper-grid|chase|mix-alloc --seed N
//                  --seconds S --trace 0|1 --scratch DIR [--spans PATH]
//                  [--tiny]
//
// Workloads:
//   paper-grid  the Fig. 4/5/7/8 grid (6 apps x FA1/2/4/8, SMT1/2/4 x 1 and
//               4 chips = 84 points, scale 4) through SweepRunner at
//               --jobs 2 from an empty result cache, then a warm re-run.
//   chase       four pointer-chase points run serially with Machine::run;
//               every dependent load lands on a fresh page, and the seed
//               sets each chain's page permutation.
//   mix-alloc   the multiprogrammed mixes on SMT2 and FA8 under all four
//               allocation policies, serially with Machine::run(const Mix&).
//
// --trace 0 reports the end-to-end metrics from runs with the phase
// profiler off. --trace 1 alternates untraced and profiled repetitions and
// reports the per-layer metrics; it also records one span per call the
// benchmark makes into a layer's public function and writes them to
// --spans at exit.
//
// Each layer is timed from outside, around the benchmark's own calls. The
// only in-program instrumentation read is obs::PhaseProfiler, SimSpeed and
// the RunStats counters. A per-layer metric a workload does not exercise
// reads 0: sim.cps.* outside chase, alloc.* and workloads.validate_s outside
// mix-alloc (SweepRunner validates inside run_experiment), sweep.* outside
// paper-grid.
#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "alloc/policy.hpp"
#include "core/arch_config.hpp"
#include "isa/builder.hpp"
#include "mem/paged_memory.hpp"
#include "obs/profile.hpp"
#include "sim/experiment.hpp"
#include "sim/machine.hpp"
#include "sim/report.hpp"
#include "sweep/sweep.hpp"
#include "workloads/workload.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#else
#define PERFBENCH_SANITIZED 0
#endif

namespace {

using namespace csmt;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 14695981039346656037ull) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Shortest round-trip decimal form: every digit as measured.
std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Spans: one per call the benchmark makes into a layer's public function.
// Kept in memory, written once at exit; only the traced run records them.

struct SpanRec {
  std::string name;
  double start = 0.0;  ///< seconds since benchmark start
  double end = 0.0;
  int parent = -1;  ///< index into the span list, -1 = root
  int run = 0;      ///< repetition id
};

class Spans {
 public:
  explicit Spans(bool on) : on_(on), t0_(Clock::now()) {}

  /// Times `fn` and returns its host seconds; records a span when on.
  template <class F>
  double time(const char* name, F&& fn) {
    const Clock::time_point start = Clock::now();
    int idx = -1;
    if (on_) {
      idx = static_cast<int>(spans_.size());
      spans_.push_back({name, rel(start), 0.0,
                        open_.empty() ? -1 : open_.back(), run_});
      open_.push_back(idx);
    }
    fn();
    const Clock::time_point end = Clock::now();
    if (on_) {
      open_.pop_back();
      spans_[static_cast<std::size_t>(idx)].end = rel(end);
    }
    return std::chrono::duration<double>(end - start).count();
  }

  void set_run(int run) { run_ = run; }

  /// Self time (duration minus the children's) summed per span name.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end - spans_[i].start;
    for (const SpanRec& s : spans_) {
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] += self[i];
    return out;
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %s, "
                   "\"end_s\": %s, \"parent\": %d, \"run\": %d}%s\n",
                   i, s.name.c_str(), num(s.start).c_str(),
                   num(s.end).c_str(), s.parent, s.run,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double rel(Clock::time_point t) const {
    return std::chrono::duration<double>(t - t0_).count();
  }

  bool on_;
  Clock::time_point t0_;
  int run_ = 0;
  std::vector<SpanRec> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------------------
// Per-repetition results.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Deterministic counters of one repetition; every one must repeat exactly.
struct Tally {
  std::uint64_t cycles = 0;
  std::uint64_t quiet = 0;
  std::uint64_t cluster_quiet = 0;
  std::uint64_t cluster_cycles = 0;  ///< cycles x clusters in the machine
  std::uint64_t committed = 0;
  std::uint64_t fetched = 0;
  std::uint64_t accesses = 0;
  std::uint64_t retries = 0;
  double l1_misses = 0.0, l2_misses = 0.0, tlb_misses = 0.0;
  std::uint64_t remote_fetches = 0, interventions = 0, invalidations = 0;
  std::uint64_t epochs = 0, migrations = 0, stall_cycles = 0;

  void add(const sim::RunStats& s, std::uint64_t quiet_cycles,
           std::uint64_t cluster_quiet_cycles, unsigned clusters) {
    cycles += s.cycles;
    quiet += quiet_cycles;
    cluster_quiet += cluster_quiet_cycles;
    cluster_cycles += s.cycles * clusters;
    committed += s.committed_useful + s.committed_sync;
    fetched += s.fetched;
    const std::uint64_t acc = s.mem.loads + s.mem.stores;
    accesses += acc;
    retries += s.mem.bank_rejections + s.mem.mshr_rejections;
    l1_misses += s.mem.l1_miss_rate * static_cast<double>(acc);
    l2_misses += s.mem.l2_miss_rate * static_cast<double>(acc);
    tlb_misses += s.mem.tlb_miss_rate * static_cast<double>(acc);
    if (s.dash) {
      remote_fetches += s.dash->remote_fetches;
      interventions += s.dash->interventions;
      invalidations += s.dash->invalidations_sent;
    }
    epochs += s.alloc.epochs;
    migrations += s.alloc.migrations;
    stall_cycles += s.alloc.stall_cycles;
  }

  /// The per-layer counts, as metrics.
  std::vector<Metric> counts() const {
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    const double acc = n(accesses);
    return {
        {"sim.quiet_frac", ratio(n(quiet), n(cycles)), "ratio"},
        {"sim.cluster_quiet_frac", ratio(n(cluster_quiet), n(cluster_cycles)),
         "ratio"},
        {"core.committed", n(committed), "count"},
        {"core.fetched", n(fetched), "count"},
        {"cache.accesses", acc, "count"},
        {"cache.retries", n(retries), "count"},
        {"cache.l1_miss_rate", ratio(l1_misses, acc), "ratio"},
        {"cache.l2_miss_rate", ratio(l2_misses, acc), "ratio"},
        {"cache.tlb_miss_rate", ratio(tlb_misses, acc), "ratio"},
        {"noc.remote_fetches", n(remote_fetches), "count"},
        {"noc.interventions", n(interventions), "count"},
        {"noc.invalidations", n(invalidations), "count"},
        {"alloc.epochs", n(epochs), "count"},
        {"alloc.migrations", n(migrations), "count"},
        {"alloc.stall_cycles", n(stall_cycles), "cycles"},
    };
  }
};

struct Rep {
  double wall_s = 0.0;    ///< the workload's runs (cold SweepRunner::run)
  double run_s = 0.0;     ///< host seconds inside Machine::run
  double build_s = 0.0;   ///< input build (Workload::build / chase inputs)
  double ctor_s = 0.0;    ///< sim::Machine constructor
  double validate_s = 0.0;
  double warm_s = 0.0;    ///< paper-grid warm pass
  unsigned jobs = 1;
  Tally tally;
  std::array<double, obs::kNumPhases> phases = {};
  std::map<std::string, double> cps;  ///< per-regime cycles/s (chase)
  /// Host seconds per simulated cycle, static vs dynamic policies (mixes).
  double static_run_s = 0.0, dynamic_run_s = 0.0;
  std::uint64_t static_cycles = 0, dynamic_cycles = 0;
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  double setup_s() const { return build_s + ctor_s; }
  double sim_cps() const {
    return run_s > 0 ? static_cast<double>(tally.cycles) / run_s : 0.0;
  }
  void fail(const std::string& why) {
    ++failed;
    failures.push_back(why);
  }
};

/// RunStats digest: FNV-1a over the "stats" object of sim::to_json (the
/// host-dependent sim_speed lives outside it).
std::uint64_t stats_digest(const sim::ExperimentResult& r) {
  const json::Value doc = sim::to_json(r);
  const json::Value* stats = doc.find("stats");
  return fnv1a(stats ? stats->dump() : std::string());
}

struct Ctx {
  std::string workload;
  std::uint64_t seed = 1;
  bool tiny = false;
  std::string scratch;
  Spans* spans = nullptr;
};

// ---------------------------------------------------------------------------
// paper-grid

constexpr unsigned kGridJobs = 2;

std::vector<sim::ExperimentSpec> grid_points(bool tiny) {
  sweep::SweepSpec spec;
  spec.workloads = workloads::workload_names();
  if (tiny) spec.workloads.resize(2);
  spec.archs = {core::ArchKind::kFa1,  core::ArchKind::kFa2,
                core::ArchKind::kFa4,  core::ArchKind::kFa8,
                core::ArchKind::kSmt1, core::ArchKind::kSmt2,
                core::ArchKind::kSmt4};
  spec.chips = {1, 4};
  spec.scales = {tiny ? 1u : 4u};
  return spec.expand();
}

std::string point_name(const sim::ExperimentSpec& s) {
  return s.workload + "/" + core::arch_name(s.arch) + "/x" +
         std::to_string(s.chips) + "/s" + std::to_string(s.scale);
}

/// Serial pre-pass doing exactly what run_experiment does before a point's
/// run: construct the Machine, then build the workload into fresh memory.
void grid_setup_pass(const Ctx& ctx, const std::vector<sim::ExperimentSpec>& pts,
                     Rep& rep) {
  for (const sim::ExperimentSpec& spec : pts) {
    sim::MachineConfig mc;
    mc.arch = core::arch_preset(spec.arch);
    mc.chips = spec.chips;
    std::unique_ptr<sim::Machine> machine;
    rep.ctor_s += ctx.spans->time("sim.Machine", [&] {
      machine = std::make_unique<sim::Machine>(mc);
    });
    const auto wl = workloads::make_workload(spec.workload);
    mem::PagedMemory memory;
    rep.build_s += ctx.spans->time("workloads.build", [&] {
      (void)wl->build(memory, mc.total_threads(), spec.scale);
    });
  }
}

sweep::SweepOptions grid_options(unsigned jobs, const std::string& cache_dir) {
  sweep::SweepOptions o;  // explicit: never from_env()
  o.jobs = jobs;
  o.cache_dir = cache_dir;
  o.progress = false;
  o.ckpt_interval = 0;
  o.serve_telemetry = -1;
  return o;
}

Rep run_paper_grid(const Ctx& ctx, int rep_id, bool profiled) {
  Rep rep;
  const std::vector<sim::ExperimentSpec> base = grid_points(ctx.tiny);
  std::vector<sim::ExperimentSpec> pts = base;
  for (sim::ExperimentSpec& p : pts) p.profile_phases = profiled;

  // Set-up: several serial passes (one takes ~0.05 s), median of their
  // totals.
  if (!profiled) {
    std::vector<double> ctor, build;
    for (int pass = 0; pass < 5; ++pass) {
      Rep r;
      grid_setup_pass(ctx, base, r);
      ctor.push_back(r.ctor_s);
      build.push_back(r.build_s);
    }
    rep.ctor_s = median(ctor);
    rep.build_s = median(build);
  }

  // The profiler only reports from a serial sweep.
  rep.jobs = profiled ? 1 : kGridJobs;
  const std::string cache =
      (fs::path(ctx.scratch) / ("grid-cache-" + std::to_string(rep_id)))
          .string();
  std::error_code ec;
  fs::remove_all(cache, ec);

  std::vector<sim::ExperimentResult> cold, warm;
  sweep::SweepCounters warm_counters;
  {
    sweep::SweepRunner runner(grid_options(rep.jobs, cache));
    rep.wall_s = ctx.spans->time("sweep.run", [&] { cold = runner.run(pts); });
  }
  {
    sweep::SweepRunner runner(grid_options(rep.jobs, cache));
    rep.warm_s = ctx.spans->time("sweep.run", [&] { warm = runner.run(pts); });
    warm_counters = runner.counters();
  }
  fs::remove_all(cache, ec);

  for (std::size_t i = 0; i < cold.size(); ++i) {
    const sim::ExperimentResult& r = cold[i];
    const std::string name = point_name(r.spec);
    ++rep.attempted;
    if (r.stats.timed_out) rep.fail(name + ": timed out");
    else if (!r.validated) rep.fail(name + ": failed Workload::validate");
    const unsigned clusters = r.spec.chips * core::arch_preset(r.spec.arch).clusters;
    rep.tally.add(r.stats, r.sim_speed.quiet_cycles,
                  r.sim_speed.cluster_quiet_cycles, clusters);
    rep.run_s += r.sim_speed.wall_seconds;
    for (std::size_t k = 0; k < obs::kNumPhases; ++k)
      rep.phases[k] += r.sim_speed.phase_seconds[k];
    rep.digests.emplace_back(name, stats_digest(r));
  }
  // Warm pass: every point must come from the cache, unchanged.
  rep.attempted += warm.size();
  if (warm_counters.cache_hits != base.size() || warm_counters.executed != 0) {
    for (std::uint64_t k = warm_counters.cache_hits; k < base.size(); ++k)
      rep.fail("warm pass missed the result cache");
  }
  for (std::size_t i = 0; i < warm.size() && i < cold.size(); ++i) {
    if (stats_digest(warm[i]) != rep.digests[i].second)
      rep.fail(point_name(warm[i].spec) + ": warm result differs from cold");
  }
  return rep;
}

// ---------------------------------------------------------------------------
// chase

constexpr Addr kChaseArgs = 1 << 16;
constexpr Addr kChaseBase = 1 << 24;

struct ChasePoint {
  const char* regime;  ///< sim.cps.<regime>
  core::ArchKind arch;
  unsigned chips;
  std::uint64_t iters;   ///< dependent loads per chasing thread
  bool cluster_idle;     ///< only tid 0 chases; the rest wait at a barrier
};

std::vector<ChasePoint> chase_points(bool tiny) {
  const std::uint64_t k = tiny ? 16 : 1;
  return {
      {"idle", core::ArchKind::kFa1, 4, 512 / k, false},
      {"busy", core::ArchKind::kSmt2, 4, 512 / k, false},
      {"cluster-idle", core::ArchKind::kFa2, 4, 4096 / k, true},
      {"lowend", core::ArchKind::kSmt2, 1, 512 / k, false},
  };
}

/// ALU work per chase step on the cluster-idle point, independent of the
/// load, so thread 0's cluster keeps issuing under the miss.
constexpr unsigned kClusterIdleAlu = 16;

/// Per-thread chase: p = start[tid]; `iters` times p = mem[p]; then
/// final[tid] = p. Start and final slots live in the argument block.
/// With `cluster_idle`, only tid 0 chases (with ALU work per step) while
/// every other thread blocks at the closing barrier.
isa::Program chase_program(std::uint64_t iters, bool cluster_idle) {
  isa::ProgramBuilder b(cluster_idle ? "chase-cluster-idle" : "chase");
  const isa::Reg slot = b.ireg(), p = b.ireg(), cnt = b.ireg(),
                 n8 = b.ireg(), acc = b.ireg();
  const isa::Label join = b.new_label(), loop = b.new_label();
  b.slli(slot, b.tid(), 3);
  b.add(slot, slot, b.args());
  b.slli(n8, b.nthreads(), 3);
  if (cluster_idle) b.bne(b.tid(), b.zero(), join);
  b.ld(p, slot, 0);
  b.li(cnt, static_cast<std::int64_t>(iters));
  b.li(acc, 1);
  b.bind(loop);
  b.ld(p, p, 0);  // the serializing dependence
  if (cluster_idle) {
    for (unsigned k = 0; k < kClusterIdleAlu; ++k) b.add(acc, acc, acc);
  }
  b.addi(cnt, cnt, -1);
  b.bne(cnt, b.zero(), loop);
  b.add(slot, slot, n8);
  b.st(slot, 0, p);
  b.bind(join);
  if (cluster_idle) {
    const isa::Reg bar = b.ireg();
    b.add(bar, b.args(), n8);
    b.add(bar, bar, n8);
    b.barrier(bar, b.nthreads());
  }
  b.halt();
  return b.take();
}

/// Lays out one chain per chasing thread: step i sits on page perm[i] of
/// the thread's page set, so every load lands on a page its chip (TLB, L2)
/// has never touched. Threads share a page set only with the threads in the
/// same context slot of the other chips (the single-job fill places tid t
/// on chip t / threads_per_chip), and each chip owns its own 64-byte line
/// of every page, which keeps functional memory at one page set per slot.
/// The seed sets each thread's page permutation and word within its line.
/// Returns the expected final pointer of each thread.
std::vector<Addr> init_chase_memory(mem::PagedMemory& memory, unsigned threads,
                                    unsigned chasers, unsigned per_chip,
                                    std::uint64_t iters, std::uint64_t seed) {
  constexpr std::uint64_t kLineWords = 8;
  const std::uint64_t pages = iters + 1;
  std::vector<Addr> finals(threads, 0);
  std::vector<std::uint64_t> perm(pages);
  for (unsigned t = 0; t < chasers; ++t) {
    std::uint64_t s = seed * 0x100000001b3ull + t;
    for (std::uint64_t i = 0; i < pages; ++i) perm[i] = i;
    for (std::uint64_t i = pages - 1; i > 0; --i)
      std::swap(perm[i], perm[splitmix64(s) % (i + 1)]);
    const Addr region = kChaseBase + (t % per_chip) * pages * mem::kPageBytes;
    const std::uint64_t line = t / per_chip;
    const auto addr = [&](std::uint64_t i) {
      return region + perm[i] * mem::kPageBytes +
             (line * kLineWords + splitmix64(s) % kLineWords) * kWordBytes;
    };
    Addr cur = addr(0);
    memory.write(kChaseArgs + t * kWordBytes, cur);
    for (std::uint64_t i = 1; i <= iters; ++i) {
      const Addr next = addr(i);
      memory.write(cur, next);
      cur = next;
    }
    finals[t] = cur;
  }
  return finals;
}

Rep run_chase(const Ctx& ctx, bool profiled) {
  Rep rep;
  const Clock::time_point t0 = Clock::now();
  for (const ChasePoint& pt : chase_points(ctx.tiny)) {
    sim::MachineConfig mc;
    mc.arch = core::arch_preset(pt.arch);
    mc.chips = pt.chips;
    mc.max_cycles = 200'000'000;
    obs::PhaseProfiler profiler;
    if (profiled) mc.profiler = &profiler;
    const unsigned threads = mc.total_threads();
    const unsigned chasers = pt.cluster_idle ? 1 : threads;

    mem::PagedMemory memory;
    isa::Program program;
    std::vector<Addr> finals;
    rep.build_s += ctx.spans->time("isa.build", [&] {
      program = chase_program(pt.iters, pt.cluster_idle);
      finals = init_chase_memory(memory, threads, chasers,
                                 mc.arch.threads_per_chip(), pt.iters,
                                 ctx.seed);
    });
    std::unique_ptr<sim::Machine> machine;
    rep.ctor_s += ctx.spans->time("sim.Machine", [&] {
      machine = std::make_unique<sim::Machine>(mc);
    });
    sim::MultiRunStats out;
    const double run_s = ctx.spans->time("sim.run", [&] {
      out = machine->run(sim::Mix::single(program, memory, kChaseArgs, threads));
    });
    rep.run_s += run_s;
    const sim::RunStats& s = out.combined;
    rep.tally.add(s, machine->quiet_cycles(), machine->cluster_quiet_cycles(),
                  pt.chips * mc.arch.clusters);
    rep.cps[pt.regime] = run_s > 0 ? static_cast<double>(s.cycles) / run_s : 0.0;
    for (std::size_t k = 0; k < obs::kNumPhases; ++k)
      rep.phases[k] += profiler.seconds(static_cast<obs::Phase>(k));

    const std::string name = std::string("chase-") + pt.regime + "/" +
                             core::arch_name(pt.arch) + "/x" +
                             std::to_string(pt.chips);
    ++rep.attempted;
    bool ok = !s.timed_out;
    for (unsigned t = 0; ok && t < chasers; ++t) {
      ok = memory.read(kChaseArgs + (threads + t) * kWordBytes) ==
           finals[t];
    }
    if (s.timed_out) rep.fail(name + ": timed out");
    else if (!ok) rep.fail(name + ": wrong final pointer");
    sim::ExperimentResult r;
    r.stats = s;
    rep.digests.emplace_back(name, stats_digest(r));
  }
  rep.wall_s = seconds_since(t0);
  return rep;
}

// ---------------------------------------------------------------------------
// mix-alloc

struct ShareMix {
  const char* name;
  std::vector<std::pair<const char*, unsigned>> jobs;  ///< (workload, 8ths)
};

const std::vector<ShareMix>& policy_mixes() {
  static const std::vector<ShareMix> mixes = {
      {"swim+ocean", {{"swim", 4}, {"ocean", 4}}},
      {"tomcatv+vpenta", {{"tomcatv", 4}, {"vpenta", 4}}},
      {"tomcatv+mgrid", {{"tomcatv", 2}, {"mgrid", 6}}},
  };
  return mixes;
}

constexpr alloc::PolicyKind kPolicies[] = {
    alloc::PolicyKind::kStatic,
    alloc::PolicyKind::kGreedyUtil,
    alloc::PolicyKind::kSymbiosis,
    alloc::PolicyKind::kIpcMigrate,
};

struct BuiltJob {
  std::unique_ptr<workloads::Workload> wl;
  std::unique_ptr<mem::PagedMemory> memory;
  workloads::WorkloadBuild build;
  unsigned threads = 0;
};

Rep run_mix_alloc(const Ctx& ctx, bool profiled) {
  Rep rep;
  const unsigned scale = ctx.tiny ? 1 : 2;  // ext_multiprogram's scale
  const std::size_t nmixes = ctx.tiny ? 1 : policy_mixes().size();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t m = 0; m < nmixes; ++m) {
    const ShareMix& mix = policy_mixes()[m];
    for (const core::ArchKind arch :
         {core::ArchKind::kSmt2, core::ArchKind::kFa8}) {
      for (const alloc::PolicyKind policy : kPolicies) {
        sim::MachineConfig mc;
        mc.arch = core::arch_preset(arch);
        mc.alloc.policy = policy;
        obs::PhaseProfiler profiler;
        if (profiled) mc.profiler = &profiler;
        const unsigned total = mc.total_threads();
        const std::string name = std::string(mix.name) + "/" +
                                 core::arch_name(arch) + "/" +
                                 alloc::policy_name(policy);

        std::vector<BuiltJob> built;
        for (const auto& [wname, eighths] : mix.jobs) {
          BuiltJob j;
          j.threads = total / 8 * eighths;
          j.wl = workloads::make_workload(wname);
          j.memory = std::make_unique<mem::PagedMemory>();
          rep.build_s += ctx.spans->time("workloads.build", [&] {
            j.build = j.wl->build(*j.memory, j.threads, scale);
          });
          built.push_back(std::move(j));
        }
        sim::Mix run_mix;
        for (const BuiltJob& j : built) {
          run_mix.jobs.push_back({&j.build.program, j.memory.get(),
                                  j.build.args_base, j.threads});
        }
        std::unique_ptr<sim::Machine> machine;
        rep.ctor_s += ctx.spans->time("sim.Machine", [&] {
          machine = std::make_unique<sim::Machine>(mc);
        });
        sim::MultiRunStats out;
        const double run_s = ctx.spans->time(
            "sim.run", [&] { out = machine->run(run_mix); });
        rep.run_s += run_s;
        const sim::RunStats& s = out.combined;
        rep.tally.add(s, machine->quiet_cycles(),
                      machine->cluster_quiet_cycles(), mc.arch.clusters);
        if (policy == alloc::PolicyKind::kStatic) {
          rep.static_run_s += run_s;
          rep.static_cycles += s.cycles;
        } else {
          rep.dynamic_run_s += run_s;
          rep.dynamic_cycles += s.cycles;
        }
        for (std::size_t k = 0; k < obs::kNumPhases; ++k)
          rep.phases[k] += profiler.seconds(static_cast<obs::Phase>(k));

        bool valid = true;
        rep.validate_s += ctx.spans->time("workloads.validate", [&] {
          for (const BuiltJob& j : built) {
            valid = j.wl->validate(*j.memory, j.build, j.threads, scale) &&
                    valid;
          }
        });
        ++rep.attempted;
        if (s.timed_out) rep.fail(name + ": timed out");
        else if (!valid) rep.fail(name + ": failed Workload::validate");

        sim::ExperimentResult r;
        r.spec.alloc_policy = policy;  // so to_json includes the alloc block
        r.stats = s;
        std::string key = std::to_string(out.makespan);
        for (const Cycle f : out.job_finish) key += "," + std::to_string(f);
        rep.digests.emplace_back(name, fnv1a(key, stats_digest(r)));
      }
    }
  }
  rep.wall_s = seconds_since(t0);
  return rep;
}

// ---------------------------------------------------------------------------
// Repetitions, checks and reporting

Rep run_workload(const Ctx& ctx, int rep_id, bool profiled) {
  ctx.spans->set_run(rep_id);
  Rep rep;
  ctx.spans->time("bench.rep", [&] {
    if (ctx.workload == "paper-grid") rep = run_paper_grid(ctx, rep_id, profiled);
    else if (ctx.workload == "chase") rep = run_chase(ctx, profiled);
    else rep = run_mix_alloc(ctx, profiled);
  });
  return rep;
}

constexpr double kFailFloor = 1e-6;

/// Fails each run whose RunStats digest differs from the first repetition's,
/// and the repetition's count check (one more attempt) when any per-layer
/// count drifted.
void check_repeat(const Rep& first, Rep& rep, int rep_id) {
  const std::string tag = "rep " + std::to_string(rep_id) + ": ";
  for (std::size_t i = 0; i < rep.digests.size(); ++i) {
    if (i >= first.digests.size() || rep.digests[i] != first.digests[i])
      rep.fail(tag + "digest of " + rep.digests[i].first + " differs from rep 0");
  }
  ++rep.attempted;
  std::string drifted;
  const auto a = first.tally.counts(), b = rep.tally.counts();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (b[i].value != a[i].value)
      drifted += " " + a[i].name + " (" + num(a[i].value) + " -> " +
                 num(b[i].value) + ")";
  }
  if (!drifted.empty()) rep.fail(tag + "counts drifted:" + drifted);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  bool tiny = false;
  std::string scratch = ".bench_build/scratch";
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "csmt_perfbench: %s\nusage: csmt_perfbench --workload "
               "paper-grid|chase|mix-alloc --seed N --seconds S --trace 0|1 "
               "[--scratch DIR] [--spans PATH] [--tiny]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = value();
      else if (k == "--seed") a.seed = std::stoull(value());
      else if (k == "--seconds") a.seconds = std::stoi(value());
      else if (k == "--trace") a.trace = std::stoi(value());
      else if (k == "--scratch") a.scratch = value();
      else if (k == "--spans") a.spans_path = value();
      else if (k == "--tiny") a.tiny = true;
      else usage(("unknown argument " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.workload != "paper-grid" && a.workload != "chase" &&
      a.workload != "mix-alloc")
    usage("unknown --workload");
  if (a.seconds < 1 || a.seconds > 600) usage("--seconds out of range");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (PERFBENCH_SANITIZED) {
    std::fprintf(stderr,
                 "csmt_perfbench: refusing to report timings from a "
                 "sanitizer build\n");
    return 3;
  }
  std::printf("context: host_threads=%u build_type=%s cxx_flags=\"%s\" "
              "compiler=\"%s\" sanitize=OFF\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_CXX_FLAGS, PERFBENCH_COMPILER);

  Spans spans(args.trace == 1);
  Ctx ctx{args.workload, args.seed, args.tiny, args.scratch, &spans};
  std::error_code ec;
  fs::create_directories(args.scratch, ec);

  // Repeat until --seconds have passed (at least two repetitions). --trace 1
  // alternates untraced and profiled repetitions, ends on a whole pair, and
  // spends half the time, as a profiled repetition costs up to three
  // untraced ones.
  const double budget =
      args.tiny ? 0.0 : args.trace == 1 ? args.seconds / 2.0 : args.seconds;
  const Clock::time_point start = Clock::now();
  std::vector<Rep> plain, traced;
  try {
    for (int i = 0;; ++i) {
      const bool profiled = args.trace == 1 && i % 2 == 1;
      if (i >= 2 && !profiled && seconds_since(start) >= budget) break;
      Rep rep = run_workload(ctx, i, profiled);
      if (!plain.empty()) check_repeat(plain.front(), rep, i);
      (profiled ? traced : plain).push_back(std::move(rep));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "csmt_perfbench: %s\n", e.what());
    return 1;
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const std::vector<Rep>* set : {&plain, &traced}) {
    for (const Rep& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
      for (const std::string& f : r.failures)
        std::printf("FAIL %s: %s\n", args.workload.c_str(), f.c_str());
    }
  }

  // The samples behind the medians.
  for (std::size_t i = 0; i < plain.size(); ++i) {
    std::printf("rep %zu wall_s %s sim_cps %s setup_s %s\n", i,
                num(plain[i].wall_s).c_str(), num(plain[i].sim_cps()).c_str(),
                num(plain[i].setup_s()).c_str());
  }

  // Per-run digests of the first repetition, then the workload digest.
  std::uint64_t wl_digest = fnv1a(args.workload);
  for (const auto& [name, d] : plain.front().digests) {
    std::printf("digest %s %s %s\n", args.workload.c_str(), name.c_str(),
                hex64(d).c_str());
    wl_digest = fnv1a(hex64(d), wl_digest);
  }
  std::printf("digest %s * %s\n", args.workload.c_str(),
              hex64(wl_digest).c_str());

  const auto med = [](const std::vector<Rep>& set, auto get) {
    std::vector<double> v;
    for (const Rep& r : set) v.push_back(get(r));
    return median(std::move(v));
  };
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    // Failed runs over runs attempted, floored at kFailFloor so the metric
    // is never 0: the floor reads "nothing failed", and one failure raises
    // it by orders of magnitude.
    const double fail_frac =
        std::max(static_cast<double>(failed) / static_cast<double>(attempted),
                 kFailFloor);
    metrics = {
        {"wall_s", med(plain, [](const Rep& r) { return r.wall_s; }), "s"},
        {"sim_cps", med(plain, [](const Rep& r) { return r.sim_cps(); }),
         "cycles/s"},
        {"setup_s", med(plain, [](const Rep& r) { return r.setup_s(); }), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"fail_frac", fail_frac, "ratio"},
    };
  } else {
    const Rep& p0 = plain.front();
    const double run_s = med(plain, [](const Rep& r) { return r.run_s; });
    const double traced_run_s =
        med(traced, [](const Rep& r) { return r.run_s; });
    const auto phase = [&](obs::Phase ph) {
      return med(traced, [ph](const Rep& r) {
        return r.phases[static_cast<std::size_t>(ph)];
      });
    };
    const double phase_sum = med(traced, [](const Rep& r) {
      double s = 0.0;
      for (const double p : r.phases) s += p;
      return s;
    });
    const auto cps = [&](const char* regime) {
      return med(plain, [regime](const Rep& r) {
        const auto it = r.cps.find(regime);
        return it == r.cps.end() ? 0.0 : it->second;
      });
    };
    const double committed = static_cast<double>(p0.tally.committed);
    const double issue_s = phase(obs::Phase::kIssue);
    const bool is_grid = args.workload == "paper-grid";
    const double dyn_cost = med(plain, [](const Rep& r) {
      if (!r.static_cycles || !r.dynamic_cycles || r.static_run_s <= 0)
        return 0.0;
      return (r.dynamic_run_s / static_cast<double>(r.dynamic_cycles)) /
             (r.static_run_s / static_cast<double>(r.static_cycles));
    });
    metrics = {
        {"sim.run_s", run_s, "s"},
        {"sim.machine_ctor_s", med(plain, [](const Rep& r) { return r.ctor_s; }),
         "s"},
        {"sim.unattributed_s", traced_run_s - phase_sum, "s"},
        {"sim.cps.idle", cps("idle"), "cycles/s"},
        {"sim.cps.busy", cps("busy"), "cycles/s"},
        {"sim.cps.cluster-idle", cps("cluster-idle"), "cycles/s"},
        {"sim.cps.lowend", cps("lowend"), "cycles/s"},
        {"core.fetch_s", phase(obs::Phase::kFetch), "s"},
        {"core.issue_s", issue_s, "s"},
        {"core.commit_s", phase(obs::Phase::kCommit), "s"},
        {"core.issue_ns_per_inst", committed > 0 ? issue_s / committed * 1e9 : 0.0,
         "ns"},
        {"cache.memory_s", phase(obs::Phase::kMemory), "s"},
        {"noc.noc_s", phase(obs::Phase::kNoc), "s"},
        {"workloads.build_s", med(plain, [](const Rep& r) { return r.build_s; }),
         "s"},
        {"workloads.validate_s",
         med(plain, [](const Rep& r) { return r.validate_s; }), "s"},
        {"alloc.dyn_cost", dyn_cost, "ratio"},
        {"sweep.pool_eff",
         is_grid ? med(plain,
                       [](const Rep& r) {
                         return r.run_s / (r.jobs * r.wall_s);
                       })
                 : 0.0,
         "ratio"},
        {"sweep.warm_s",
         is_grid ? med(plain, [](const Rep& r) { return r.warm_s; }) : 0.0,
         "s"},
        {"obs.profiler_overhead", run_s > 0 ? traced_run_s / run_s - 1.0 : 0.0,
         "ratio"},
    };
    for (const Metric& m : p0.tally.counts()) metrics.push_back(m);
    for (const auto& [name, s] : spans.self_seconds())
      std::printf("span-self %s %s s\n", name.c_str(), num(s).c_str());
    if (!args.spans_path.empty() && !spans.write(args.spans_path))
      std::fprintf(stderr, "csmt_perfbench: cannot write spans to '%s'\n",
                   args.spans_path.c_str());
  }

  std::string out = "{\"correct\": " + std::string(failed ? "false" : "true") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
