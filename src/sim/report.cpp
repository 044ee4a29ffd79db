#include "sim/report.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <string_view>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/hazards.hpp"
#include "sim/regime.hpp"

namespace csmt::sim {
namespace {

using core::Slot;

// Legend order of the paper's figures (top-of-bar to bottom):
// other, structural, memory, data, control, sync, fetch, useful.
constexpr Slot kLegend[] = {Slot::kOther,  Slot::kStructural, Slot::kMemory,
                            Slot::kData,   Slot::kControl,    Slot::kSync,
                            Slot::kFetch,  Slot::kUseful};

/// Baseline cycles per workload (for normalization).
std::map<std::string, double> baseline_cycles(
    const std::vector<ExperimentResult>& results,
    const std::string& baseline_arch) {
  std::map<std::string, double> base;
  for (const ExperimentResult& r : results) {
    if (core::arch_name(r.spec.arch) == baseline_arch) {
      base[r.spec.workload] = static_cast<double>(r.stats.cycles);
    }
  }
  return base;
}

double normalized(const ExperimentResult& r,
                  const std::map<std::string, double>& base) {
  const auto it = base.find(r.spec.workload);
  if (it == base.end() || it->second <= 0) return 0.0;
  return 100.0 * static_cast<double>(r.stats.cycles) / it->second;
}

}  // namespace

std::string render_figure(const std::string& title,
                          const std::vector<ExperimentResult>& results,
                          const std::string& baseline_arch) {
  const auto base = baseline_cycles(results, baseline_arch);

  std::vector<std::string> names;
  for (const Slot s : kLegend) names.emplace_back(slot_name(s));
  // One character cell = 2 normalized units; bars of 100 are 50 cells wide.
  StackedBarChart chart(names, 2.0);

  for (const ExperimentResult& r : results) {
    const double norm = normalized(r, base);
    StackedBar bar;
    bar.label = r.spec.workload + "/" + core::arch_name(r.spec.arch);
    if (r.stats.timed_out) bar.label += " (TIMED OUT)";
    for (const Slot s : kLegend) {
      bar.segments.push_back(norm * r.stats.slots.fraction(s));
    }
    chart.add(std::move(bar));
  }

  std::string out;
  out += "== " + title + " ==\n";
  out += "(execution time normalized to " + baseline_arch +
         " = 100, split by issue-slot category)\n";
  out += chart.render();
  return out;
}

std::string render_normalized_table(
    const std::vector<ExperimentResult>& results,
    const std::string& baseline_arch) {
  const auto base = baseline_cycles(results, baseline_arch);

  // Column per architecture (insertion order), row per workload.
  std::vector<std::string> archs;
  std::vector<std::string> workloads;
  std::map<std::string, std::map<std::string, std::string>> cell;
  for (const ExperimentResult& r : results) {
    const std::string arch = core::arch_name(r.spec.arch);
    if (std::find(archs.begin(), archs.end(), arch) == archs.end())
      archs.push_back(arch);
    if (std::find(workloads.begin(), workloads.end(), r.spec.workload) ==
        workloads.end())
      workloads.push_back(r.spec.workload);
    cell[r.spec.workload][arch] =
        r.stats.timed_out ? "TIMEOUT" : format_fixed(normalized(r, base), 1);
  }

  AsciiTable table;
  std::vector<std::string> header = {"workload"};
  header.insert(header.end(), archs.begin(), archs.end());
  table.header(header);
  for (const std::string& w : workloads) {
    std::vector<std::string> row = {w};
    for (const std::string& a : archs) {
      const auto it = cell[w].find(a);
      row.push_back(it == cell[w].end() ? "-" : it->second);
    }
    table.row(row);
  }
  return table.render();
}

std::string render_summary_table(
    const std::vector<ExperimentResult>& results) {
  AsciiTable table;
  table.header({"workload", "arch", "chips", "cycles", "useful IPC",
                "useful%", "sync%", "mem%", "avg threads", "regime",
                "valid"});
  for (const ExperimentResult& r : results) {
    table.row({r.spec.workload, core::arch_name(r.spec.arch),
               std::to_string(r.spec.chips),
               format_count(r.stats.cycles),
               format_fixed(r.stats.useful_ipc(), 2),
               format_percent(r.stats.slots.fraction(Slot::kUseful)),
               format_percent(r.stats.slots.fraction(Slot::kSync)),
               format_percent(r.stats.slots.fraction(Slot::kMemory)),
               format_fixed(r.stats.avg_running_threads, 2),
               r.sim_speed.measured
                   ? regime_name(
                         classify_regime(r.sim_speed.quiet_fraction()))
                   : "-",
               r.stats.timed_out ? "TIMEOUT" : (r.validated ? "yes" : "NO")});
  }
  return table.render();
}

std::string render_epoch_sparklines(
    const std::vector<ExperimentResult>& results) {
  std::string out;
  for (const ExperimentResult& r : results) {
    if (r.stats.epochs.empty()) continue;
    std::vector<double> ipc, threads, l2;
    ipc.reserve(r.stats.epochs.size());
    for (const obs::EpochSample& e : r.stats.epochs) {
      ipc.push_back(e.useful_ipc());
      threads.push_back(e.avg_running_threads);
      l2.push_back(static_cast<double>(e.counters.l2_misses));
    }
    const auto minmax = [](const std::vector<double>& xs) {
      const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
      return " [" + format_fixed(*lo, 2) + ", " + format_fixed(*hi, 2) + "]";
    };
    out += r.spec.workload + "/" + core::arch_name(r.spec.arch) + " x" +
           std::to_string(r.spec.chips) + "  (" +
           std::to_string(r.stats.epochs.size()) + " epochs of " +
           format_count(r.spec.metrics_interval) + " cycles)\n";
    out += "  useful IPC  " + obs::sparkline(ipc) + minmax(ipc) + "\n";
    out += "  run threads " + obs::sparkline(threads) + minmax(threads) + "\n";
    out += "  L2 misses   " + obs::sparkline(l2) + minmax(l2) + "\n";
  }
  return out;
}

namespace {

/// The spec alone — the object to_json() nests under "spec". Knobs outside
/// spec identity (trace_path, profile_phases, no_skip) are not encoded.
json::Value spec_to_json(const ExperimentSpec& sp) {
  json::Value spec = json::Value::object();
  spec["workload"] = sp.workload;
  spec["arch"] = core::arch_name(sp.arch);
  spec["chips"] = sp.chips;
  spec["scale"] = sp.scale;
  if (sp.fetch_policy)
    spec["fetch_policy"] = core::fetch_policy_name(*sp.fetch_policy);
  if (sp.window_size) spec["window_size"] = *sp.window_size;
  if (sp.l1_private) spec["l1_private"] = *sp.l1_private;
  if (sp.metrics_interval) spec["metrics_interval"] = sp.metrics_interval;
  // Allocation fields appear only for dynamic policies, so artifacts of
  // `static` runs are byte-identical to pre-§11 ones.
  if (sp.alloc_policy != alloc::PolicyKind::kStatic)
    spec["alloc_policy"] = alloc::policy_name(sp.alloc_policy);
  if (sp.alloc_epoch) spec["alloc_epoch"] = sp.alloc_epoch;
  return spec;
}

/// Range-checked member reads for the decoders below. A missing member
/// keeps the field's default (older artifacts omit some); a present one of
/// the wrong kind or out of range marks the whole document bad, so a
/// corrupted cache entry is a miss rather than a crash or a wrong answer.
class FieldReader {
 public:
  bool ok() const { return ok_; }

  /// Counter: a non-negative integer below 2^64.
  void count(const json::Value* obj, std::string_view key,
             std::uint64_t& out) {
    if (const json::Value* v = member(obj, key)) {
      const auto u = v->exact_u64();
      if (u) {
        out = *u;
      } else {
        ok_ = false;
      }
    }
  }
  void count(const json::Value* obj, std::string_view key, unsigned& out) {
    std::uint64_t u = out;
    count(obj, key, u);
    if (u > std::numeric_limits<unsigned>::max()) {
      ok_ = false;
    } else {
      out = static_cast<unsigned>(u);
    }
  }
  /// Non-negative finite real: slot counts, thread averages, host seconds.
  void amount(const json::Value* obj, std::string_view key, double& out) {
    real(obj, key, std::numeric_limits<double>::max(), out);
  }
  /// Ratio in [0, 1]: miss rates.
  void rate(const json::Value* obj, std::string_view key, double& out) {
    real(obj, key, 1.0, out);
  }
  void flag(const json::Value* obj, std::string_view key, bool& out) {
    if (const json::Value* v = member(obj, key)) {
      if (v->is_bool()) {
        out = v->as_bool();
      } else {
        ok_ = false;
      }
    }
  }

 private:
  static const json::Value* member(const json::Value* obj,
                                   std::string_view key) {
    return obj ? obj->find(key) : nullptr;
  }
  void real(const json::Value* obj, std::string_view key, double max,
            double& out) {
    if (const json::Value* v = member(obj, key)) {
      const double d = v->as_number(-1.0);
      // The negated test also rejects NaN.
      if (v->is_number() && d >= 0.0 && d <= max) {
        out = d;
      } else {
        ok_ = false;
      }
    }
  }

  bool ok_ = true;
};

/// Rebuilds a spec from spec_to_json() output; nullopt when required fields
/// are missing or malformed (unknown workload names are accepted here —
/// run_experiment validates them — but unknown arch/policy names are not).
std::optional<ExperimentSpec> spec_from_json(const json::Value& v) {
  if (!v.is_object()) return std::nullopt;
  const json::Value* workload = v.find("workload");
  const json::Value* arch = v.find("arch");
  if (!workload || !workload->is_string() || !arch || !arch->is_string())
    return std::nullopt;
  const auto kind = core::arch_from_name(arch->as_string());
  if (!kind) return std::nullopt;
  ExperimentSpec spec;
  spec.workload = workload->as_string();
  spec.arch = *kind;
  FieldReader f;
  f.count(&v, "chips", spec.chips);
  f.count(&v, "scale", spec.scale);
  if (const json::Value* fp = v.find("fetch_policy")) {
    const auto policy = core::fetch_policy_from_name(fp->as_string());
    if (!policy) return std::nullopt;
    spec.fetch_policy = *policy;
  }
  if (v.find("window_size")) {
    unsigned w = 0;
    f.count(&v, "window_size", w);
    spec.window_size = w;
  }
  if (v.find("l1_private")) {
    bool p = false;
    f.flag(&v, "l1_private", p);
    spec.l1_private = p;
  }
  f.count(&v, "metrics_interval", spec.metrics_interval);
  if (const json::Value* a = v.find("alloc_policy")) {
    const auto kind_a = alloc::policy_from_name(a->as_string());
    if (!kind_a) return std::nullopt;
    spec.alloc_policy = *kind_a;
  }
  f.count(&v, "alloc_epoch", spec.alloc_epoch);
  if (!f.ok()) return std::nullopt;
  return spec;
}

}  // namespace

json::Value to_json(const ExperimentResult& r) {
  json::Value spec = spec_to_json(r.spec);

  const RunStats& s = r.stats;
  json::Value slots = json::Value::object();
  for (std::size_t i = 0; i < core::kNumSlots; ++i) {
    slots[core::slot_name(static_cast<Slot>(i))] =
        s.slots.slots[i];
  }

  json::Value predictor = json::Value::object();
  predictor["cond_lookups"] = s.predictor.cond_lookups;
  predictor["cond_mispredicts"] = s.predictor.cond_mispredicts;
  predictor["btb_misses"] = s.predictor.btb_misses;

  json::Value mem = json::Value::object();
  mem["loads"] = s.mem.loads;
  mem["stores"] = s.mem.stores;
  {
    json::Value levels = json::Value::array();
    for (const std::uint64_t v : s.mem.by_level) levels.push_back(v);
    mem["by_level"] = std::move(levels);
  }
  mem["bank_rejections"] = s.mem.bank_rejections;
  mem["mshr_rejections"] = s.mem.mshr_rejections;
  mem["upgrades"] = s.mem.upgrades;
  mem["l1_cross_invalidations"] = s.mem.l1_cross_invalidations;
  mem["l1_miss_rate"] = s.mem.l1_miss_rate;
  mem["l2_miss_rate"] = s.mem.l2_miss_rate;
  mem["tlb_miss_rate"] = s.mem.tlb_miss_rate;

  json::Value stats = json::Value::object();
  stats["cycles"] = s.cycles;
  // Only a mix carries per-job finish cycles, so a single workload's stats
  // (and the fingerprints over them) are unchanged.
  if (!r.job_finish.empty()) {
    json::Value finish = json::Value::array();
    for (const Cycle c : r.job_finish) finish.push_back(c);
    stats["job_finish"] = std::move(finish);
  }
  stats["slots"] = std::move(slots);
  stats["committed_useful"] = s.committed_useful;
  stats["committed_sync"] = s.committed_sync;
  stats["fetched"] = s.fetched;
  stats["timed_out"] = s.timed_out;
  stats["avg_running_threads"] = s.avg_running_threads;
  stats["useful_ipc"] = s.useful_ipc();  // derived; re-derived on read
  stats["predictor"] = std::move(predictor);
  stats["mem"] = std::move(mem);
  if (s.dash) {
    json::Value dash = json::Value::object();
    dash["fetches"] = s.dash->fetches;
    dash["remote_fetches"] = s.dash->remote_fetches;
    dash["interventions"] = s.dash->interventions;
    dash["dirty_remote_supplies"] = s.dash->dirty_remote_supplies;
    dash["invalidations_sent"] = s.dash->invalidations_sent;
    dash["upgrades"] = s.dash->upgrades;
    dash["writebacks"] = s.dash->writebacks;
    stats["dash"] = std::move(dash);
  }
  if (r.spec.alloc_policy != alloc::PolicyKind::kStatic) {
    json::Value alloc = json::Value::object();
    alloc["epochs"] = s.alloc.epochs;
    alloc["migrations"] = s.alloc.migrations;
    alloc["rejected"] = s.alloc.rejected;
    alloc["drain_cycles"] = s.alloc.drain_cycles;
    alloc["stall_cycles"] = s.alloc.stall_cycles;
    stats["alloc"] = std::move(alloc);
  }
  if (!s.epochs.empty()) {
    json::Value epochs = json::Value::array();
    for (const obs::EpochSample& e : s.epochs) {
      json::Value ep = json::Value::object();
      ep["begin"] = e.begin;
      ep["end"] = e.end;
      ep["avg_running_threads"] = e.avg_running_threads;
      ep["committed_useful"] = e.counters.committed_useful;
      ep["committed_sync"] = e.counters.committed_sync;
      ep["fetched"] = e.counters.fetched;
      {
        json::Value slots_ep = json::Value::object();
        for (std::size_t i = 0; i < core::kNumSlots; ++i) {
          slots_ep[core::slot_name(static_cast<Slot>(i))] =
              e.counters.slots.slots[i];
        }
        ep["slots"] = std::move(slots_ep);
      }
      ep["loads"] = e.counters.loads;
      ep["stores"] = e.counters.stores;
      ep["l1_misses"] = e.counters.l1_misses;
      ep["l2_misses"] = e.counters.l2_misses;
      ep["tlb_misses"] = e.counters.tlb_misses;
      ep["bank_rejections"] = e.counters.bank_rejections;
      ep["mshr_rejections"] = e.counters.mshr_rejections;
      epochs.push_back(std::move(ep));
    }
    stats["epochs"] = std::move(epochs);
  }

  json::Value out = json::Value::object();
  out["spec"] = std::move(spec);
  out["stats"] = std::move(stats);
  out["validated"] = r.validated;
  if (r.sim_speed.measured) {
    json::Value speed = json::Value::object();
    speed["wall_seconds"] = r.sim_speed.wall_seconds;
    speed["sim_cycles"] = r.sim_speed.sim_cycles;
    speed["quiet_cycles"] = r.sim_speed.quiet_cycles;
    speed["cluster_quiet_cycles"] = r.sim_speed.cluster_quiet_cycles;
    speed["committed"] = r.sim_speed.committed;
    speed["host_threads"] = std::uint64_t{r.sim_speed.host_threads};
    speed["cycles_per_sec"] = r.sim_speed.cycles_per_sec();  // derived
    speed["committed_kips"] = r.sim_speed.committed_kips();  // derived
    // Derived regime tag (DESIGN.md §12): a pure function of the
    // deterministic quiet/sim cycle counters, so cached v2 artifacts gain
    // it on re-render without invalidating anything. result_from_json
    // ignores it by construction (it re-derives from the counters).
    speed["regime"] =
        regime_name(classify_regime(r.sim_speed.quiet_fraction()));
    if (r.sim_speed.phases_measured) {
      json::Value phases = json::Value::object();
      for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
        phases[obs::phase_name(static_cast<obs::Phase>(i))] =
            r.sim_speed.phase_seconds[i];
      }
      speed["phase_seconds"] = std::move(phases);
    }
    out["sim_speed"] = std::move(speed);
  }
  return out;
}

std::optional<ExperimentResult> result_from_json(const json::Value& v) {
  const json::Value* spec = v.find("spec");
  const json::Value* stats = v.find("stats");
  const json::Value* validated = v.find("validated");
  if (!spec || !stats || !validated || !spec->is_object() ||
      !stats->is_object() || !validated->is_bool())
    return std::nullopt;

  ExperimentResult r;
  const auto decoded_spec = spec_from_json(*spec);
  if (!decoded_spec) return std::nullopt;
  r.spec = *decoded_spec;
  r.validated = validated->as_bool();

  FieldReader f;
  RunStats& s = r.stats;
  if (!stats->find("cycles")) return std::nullopt;
  f.count(stats, "cycles", s.cycles);
  if (const json::Value* finish = stats->find("job_finish")) {
    if (!finish->is_array()) return std::nullopt;
    for (const json::Value& c : finish->items()) {
      // A job finishes no later than the mix does.
      const auto u = c.exact_u64();
      if (!u || *u > s.cycles) return std::nullopt;
      r.job_finish.push_back(*u);
    }
  }
  const json::Value* slots = stats->find("slots");
  for (std::size_t i = 0; i < core::kNumSlots; ++i) {
    f.amount(slots, core::slot_name(static_cast<Slot>(i)), s.slots.slots[i]);
  }
  f.count(stats, "committed_useful", s.committed_useful);
  f.count(stats, "committed_sync", s.committed_sync);
  f.count(stats, "fetched", s.fetched);
  f.flag(stats, "timed_out", s.timed_out);
  f.amount(stats, "avg_running_threads", s.avg_running_threads);
  const json::Value* p = stats->find("predictor");
  f.count(p, "cond_lookups", s.predictor.cond_lookups);
  f.count(p, "cond_mispredicts", s.predictor.cond_mispredicts);
  f.count(p, "btb_misses", s.predictor.btb_misses);
  if (const json::Value* m = stats->find("mem")) {
    f.count(m, "loads", s.mem.loads);
    f.count(m, "stores", s.mem.stores);
    if (const json::Value* levels = m->find("by_level")) {
      const json::Array& items = levels->items();
      for (std::size_t i = 0;
           i < items.size() && i < s.mem.by_level.size(); ++i) {
        const auto u = items[i].exact_u64();
        if (!u) return std::nullopt;
        s.mem.by_level[i] = *u;
      }
    }
    f.count(m, "bank_rejections", s.mem.bank_rejections);
    f.count(m, "mshr_rejections", s.mem.mshr_rejections);
    f.count(m, "upgrades", s.mem.upgrades);
    f.count(m, "l1_cross_invalidations", s.mem.l1_cross_invalidations);
    f.rate(m, "l1_miss_rate", s.mem.l1_miss_rate);
    f.rate(m, "l2_miss_rate", s.mem.l2_miss_rate);
    f.rate(m, "tlb_miss_rate", s.mem.tlb_miss_rate);
  }
  if (const json::Value* d = stats->find("dash")) {
    noc::DashStats dash;
    f.count(d, "fetches", dash.fetches);
    f.count(d, "remote_fetches", dash.remote_fetches);
    f.count(d, "interventions", dash.interventions);
    f.count(d, "dirty_remote_supplies", dash.dirty_remote_supplies);
    f.count(d, "invalidations_sent", dash.invalidations_sent);
    f.count(d, "upgrades", dash.upgrades);
    f.count(d, "writebacks", dash.writebacks);
    s.dash = dash;
  }
  const json::Value* a = stats->find("alloc");
  f.count(a, "epochs", s.alloc.epochs);
  f.count(a, "migrations", s.alloc.migrations);
  f.count(a, "rejected", s.alloc.rejected);
  f.count(a, "drain_cycles", s.alloc.drain_cycles);
  f.count(a, "stall_cycles", s.alloc.stall_cycles);
  if (const json::Value* epochs = stats->find("epochs")) {
    for (const json::Value& ev : epochs->items()) {
      obs::EpochSample e;
      f.count(&ev, "begin", e.begin);
      f.count(&ev, "end", e.end);
      f.amount(&ev, "avg_running_threads", e.avg_running_threads);
      f.count(&ev, "committed_useful", e.counters.committed_useful);
      f.count(&ev, "committed_sync", e.counters.committed_sync);
      f.count(&ev, "fetched", e.counters.fetched);
      const json::Value* slots_ep = ev.find("slots");
      for (std::size_t i = 0; i < core::kNumSlots; ++i) {
        f.amount(slots_ep, core::slot_name(static_cast<Slot>(i)),
                 e.counters.slots.slots[i]);
      }
      f.count(&ev, "loads", e.counters.loads);
      f.count(&ev, "stores", e.counters.stores);
      f.count(&ev, "l1_misses", e.counters.l1_misses);
      f.count(&ev, "l2_misses", e.counters.l2_misses);
      f.count(&ev, "tlb_misses", e.counters.tlb_misses);
      f.count(&ev, "bank_rejections", e.counters.bank_rejections);
      f.count(&ev, "mshr_rejections", e.counters.mshr_rejections);
      s.epochs.push_back(e);
    }
  }
  if (const json::Value* speed = v.find("sim_speed")) {
    r.sim_speed.measured = true;
    f.amount(speed, "wall_seconds", r.sim_speed.wall_seconds);
    f.count(speed, "sim_cycles", r.sim_speed.sim_cycles);
    // Absent in artifacts written before the quiescence kernel: keep 0.
    f.count(speed, "quiet_cycles", r.sim_speed.quiet_cycles);
    // Absent before component-granular quiescence (DESIGN.md §14): keep 0.
    f.count(speed, "cluster_quiet_cycles", r.sim_speed.cluster_quiet_cycles);
    f.count(speed, "committed", r.sim_speed.committed);
    unsigned host_threads = 0;
    f.count(speed, "host_threads", host_threads);
    r.sim_speed.host_threads = host_threads;
    if (const json::Value* phases = speed->find("phase_seconds")) {
      r.sim_speed.phases_measured = true;
      for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
        f.amount(phases, obs::phase_name(static_cast<obs::Phase>(i)),
                 r.sim_speed.phase_seconds[i]);
      }
    }
  }
  if (!f.ok()) return std::nullopt;
  return r;
}

std::string render_json(const std::vector<ExperimentResult>& results) {
  json::Value results_array = json::Value::array();
  for (const ExperimentResult& r : results) results_array.push_back(to_json(r));
  json::Value doc = json::Value::object();
  doc["schema"] = "csmt-sweep-results";
  // v4: checkpoint provenance key dropped; v3: sim_speed.regime tag;
  // v2: per-point sim_speed.
  doc["version"] = 4;
  doc["results"] = std::move(results_array);
  return doc.dump(2) + "\n";
}

}  // namespace csmt::sim
