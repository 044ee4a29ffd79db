#include "sim/report.hpp"

#include <algorithm>
#include <map>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/hazards.hpp"
#include "telemetry/regime.hpp"

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
                   ? telemetry::regime_name(telemetry::classify_regime(
                         r.sim_speed.quiet_fraction()))
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
/// spec identity (trace_path, no_skip, ckpt_*) are not encoded.
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
  if (const json::Value* c = v.find("chips")) spec.chips = c->as_unsigned(1);
  if (const json::Value* s = v.find("scale")) spec.scale = s->as_unsigned(3);
  if (const json::Value* f = v.find("fetch_policy")) {
    const auto policy = core::fetch_policy_from_name(f->as_string());
    if (!policy) return std::nullopt;
    spec.fetch_policy = *policy;
  }
  if (const json::Value* w = v.find("window_size"))
    spec.window_size = w->as_unsigned();
  if (const json::Value* p = v.find("l1_private"))
    spec.l1_private = p->as_bool();
  if (const json::Value* m = v.find("metrics_interval"))
    spec.metrics_interval = m->as_u64();
  if (const json::Value* a = v.find("alloc_policy")) {
    const auto kind_a = alloc::policy_from_name(a->as_string());
    if (!kind_a) return std::nullopt;
    spec.alloc_policy = *kind_a;
  }
  if (const json::Value* a = v.find("alloc_epoch"))
    spec.alloc_epoch = a->as_u64();
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
  out["resumed_from_cycle"] = r.resumed_from_cycle;
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
    speed["regime"] = telemetry::regime_name(
        telemetry::classify_regime(r.sim_speed.quiet_fraction()));
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
      !stats->is_object())
    return std::nullopt;

  ExperimentResult r;
  const auto decoded_spec = spec_from_json(*spec);
  if (!decoded_spec) return std::nullopt;
  r.spec = *decoded_spec;

  RunStats& s = r.stats;
  const json::Value* cycles = stats->find("cycles");
  if (!cycles || !cycles->is_number()) return std::nullopt;
  s.cycles = cycles->as_u64();
  if (const json::Value* slots = stats->find("slots")) {
    for (std::size_t i = 0; i < core::kNumSlots; ++i) {
      if (const json::Value* c =
              slots->find(core::slot_name(static_cast<Slot>(i))))
        s.slots.slots[i] = c->as_number();
    }
  }
  if (const json::Value* c = stats->find("committed_useful"))
    s.committed_useful = c->as_u64();
  if (const json::Value* c = stats->find("committed_sync"))
    s.committed_sync = c->as_u64();
  if (const json::Value* c = stats->find("fetched")) s.fetched = c->as_u64();
  if (const json::Value* c = stats->find("timed_out"))
    s.timed_out = c->as_bool();
  if (const json::Value* c = stats->find("avg_running_threads"))
    s.avg_running_threads = c->as_number();
  if (const json::Value* p = stats->find("predictor")) {
    if (const json::Value* c = p->find("cond_lookups"))
      s.predictor.cond_lookups = c->as_u64();
    if (const json::Value* c = p->find("cond_mispredicts"))
      s.predictor.cond_mispredicts = c->as_u64();
    if (const json::Value* c = p->find("btb_misses"))
      s.predictor.btb_misses = c->as_u64();
  }
  if (const json::Value* m = stats->find("mem")) {
    if (const json::Value* c = m->find("loads")) s.mem.loads = c->as_u64();
    if (const json::Value* c = m->find("stores")) s.mem.stores = c->as_u64();
    if (const json::Value* levels = m->find("by_level")) {
      const json::Array& items = levels->items();
      for (std::size_t i = 0;
           i < items.size() && i < s.mem.by_level.size(); ++i)
        s.mem.by_level[i] = items[i].as_u64();
    }
    if (const json::Value* c = m->find("bank_rejections"))
      s.mem.bank_rejections = c->as_u64();
    if (const json::Value* c = m->find("mshr_rejections"))
      s.mem.mshr_rejections = c->as_u64();
    if (const json::Value* c = m->find("upgrades"))
      s.mem.upgrades = c->as_u64();
    if (const json::Value* c = m->find("l1_cross_invalidations"))
      s.mem.l1_cross_invalidations = c->as_u64();
    if (const json::Value* c = m->find("l1_miss_rate"))
      s.mem.l1_miss_rate = c->as_number();
    if (const json::Value* c = m->find("l2_miss_rate"))
      s.mem.l2_miss_rate = c->as_number();
    if (const json::Value* c = m->find("tlb_miss_rate"))
      s.mem.tlb_miss_rate = c->as_number();
  }
  if (const json::Value* d = stats->find("dash")) {
    noc::DashStats dash;
    if (const json::Value* c = d->find("fetches")) dash.fetches = c->as_u64();
    if (const json::Value* c = d->find("remote_fetches"))
      dash.remote_fetches = c->as_u64();
    if (const json::Value* c = d->find("interventions"))
      dash.interventions = c->as_u64();
    if (const json::Value* c = d->find("dirty_remote_supplies"))
      dash.dirty_remote_supplies = c->as_u64();
    if (const json::Value* c = d->find("invalidations_sent"))
      dash.invalidations_sent = c->as_u64();
    if (const json::Value* c = d->find("upgrades")) dash.upgrades = c->as_u64();
    if (const json::Value* c = d->find("writebacks"))
      dash.writebacks = c->as_u64();
    s.dash = dash;
  }
  if (const json::Value* a = stats->find("alloc")) {
    if (const json::Value* c = a->find("epochs")) s.alloc.epochs = c->as_u64();
    if (const json::Value* c = a->find("migrations"))
      s.alloc.migrations = c->as_u64();
    if (const json::Value* c = a->find("rejected"))
      s.alloc.rejected = c->as_u64();
    if (const json::Value* c = a->find("drain_cycles"))
      s.alloc.drain_cycles = c->as_u64();
    if (const json::Value* c = a->find("stall_cycles"))
      s.alloc.stall_cycles = c->as_u64();
  }
  if (const json::Value* epochs = stats->find("epochs")) {
    for (const json::Value& ev : epochs->items()) {
      obs::EpochSample e;
      if (const json::Value* c = ev.find("begin")) e.begin = c->as_u64();
      if (const json::Value* c = ev.find("end")) e.end = c->as_u64();
      if (const json::Value* c = ev.find("avg_running_threads"))
        e.avg_running_threads = c->as_number();
      if (const json::Value* c = ev.find("committed_useful"))
        e.counters.committed_useful = c->as_u64();
      if (const json::Value* c = ev.find("committed_sync"))
        e.counters.committed_sync = c->as_u64();
      if (const json::Value* c = ev.find("fetched"))
        e.counters.fetched = c->as_u64();
      if (const json::Value* slots_ep = ev.find("slots")) {
        for (std::size_t i = 0; i < core::kNumSlots; ++i) {
          if (const json::Value* c =
                  slots_ep->find(core::slot_name(static_cast<Slot>(i))))
            e.counters.slots.slots[i] = c->as_number();
        }
      }
      if (const json::Value* c = ev.find("loads"))
        e.counters.loads = c->as_u64();
      if (const json::Value* c = ev.find("stores"))
        e.counters.stores = c->as_u64();
      if (const json::Value* c = ev.find("l1_misses"))
        e.counters.l1_misses = c->as_u64();
      if (const json::Value* c = ev.find("l2_misses"))
        e.counters.l2_misses = c->as_u64();
      if (const json::Value* c = ev.find("tlb_misses"))
        e.counters.tlb_misses = c->as_u64();
      if (const json::Value* c = ev.find("bank_rejections"))
        e.counters.bank_rejections = c->as_u64();
      if (const json::Value* c = ev.find("mshr_rejections"))
        e.counters.mshr_rejections = c->as_u64();
      s.epochs.push_back(e);
    }
  }
  if (const json::Value* speed = v.find("sim_speed")) {
    r.sim_speed.measured = true;
    if (const json::Value* c = speed->find("wall_seconds"))
      r.sim_speed.wall_seconds = c->as_number();
    if (const json::Value* c = speed->find("sim_cycles"))
      r.sim_speed.sim_cycles = c->as_u64();
    // Absent in artifacts written before the quiescence kernel: keep 0.
    if (const json::Value* c = speed->find("quiet_cycles"))
      r.sim_speed.quiet_cycles = c->as_u64();
    // Absent before component-granular quiescence (DESIGN.md §14): keep 0.
    if (const json::Value* c = speed->find("cluster_quiet_cycles"))
      r.sim_speed.cluster_quiet_cycles = c->as_u64();
    if (const json::Value* c = speed->find("committed"))
      r.sim_speed.committed = c->as_u64();
    if (const json::Value* c = speed->find("host_threads"))
      r.sim_speed.host_threads = static_cast<std::uint32_t>(c->as_u64());
    if (const json::Value* phases = speed->find("phase_seconds")) {
      r.sim_speed.phases_measured = true;
      for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
        if (const json::Value* c =
                phases->find(obs::phase_name(static_cast<obs::Phase>(i))))
          r.sim_speed.phase_seconds[i] = c->as_number();
      }
    }
  }

  r.validated = validated->as_bool();
  // Optional (absent in documents written before csmt::ckpt existed).
  if (const json::Value* res = v.find("resumed_from_cycle")) {
    r.resumed_from_cycle = res->as_u64();
  }
  return r;
}

std::string render_json(const std::vector<ExperimentResult>& results) {
  json::Value results_array = json::Value::array();
  for (const ExperimentResult& r : results) results_array.push_back(to_json(r));
  json::Value doc = json::Value::object();
  doc["schema"] = "csmt-sweep-results";
  doc["version"] = 3;  // v3: sim_speed.regime tag; v2: per-point sim_speed
  doc["results"] = std::move(results_array);
  return doc.dump(2) + "\n";
}

}  // namespace csmt::sim
