// Rendering of paper-style figures: normalized execution-time bars with the
// §4.1 hazard breakdown, plus summary tables. Used by the bench binaries to
// print the same rows/series the paper's Figures 4/5/7/8 report.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "sim/experiment.hpp"

namespace csmt::sim {

/// Renders one figure: for every workload present in `results`, the bar of
/// each architecture is normalized to that workload's `baseline_arch` run
/// (= 100 cycles) and segmented by slot category, like the paper's charts.
std::string render_figure(const std::string& title,
                          const std::vector<ExperimentResult>& results,
                          const std::string& baseline_arch);

/// Compact numeric table: workload x architecture -> normalized cycles.
std::string render_normalized_table(
    const std::vector<ExperimentResult>& results,
    const std::string& baseline_arch);

/// One row per run: cycles, useful IPC, hazard shares, validation status
/// ("yes" / "NO" / "TIMEOUT" for watchdog-aborted runs).
std::string render_summary_table(
    const std::vector<ExperimentResult>& results);

/// Full machine-readable form of one result: the spec, every RunStats
/// counter (slot shares by name, predictor, memory, DASH when present), a
/// mix's per-job finish cycles and the validation flag. Round-trips through
/// result_from_json().
json::Value to_json(const ExperimentResult& result);

/// Rebuilds a result from to_json() output; nullopt when a required field
/// is missing or any field has the wrong kind or range: counters must be
/// non-negative integers below 2^64, slot counts and other reals finite and
/// non-negative, miss rates within [0, 1], job finish cycles at most the
/// run's cycles. The sweep cache treats nullopt as a miss.
std::optional<ExperimentResult> result_from_json(const json::Value& v);

/// JSON document for a whole sweep: {"results": [...]}, pretty-printed —
/// the durable artifact written next to the text tables.
std::string render_json(const std::vector<ExperimentResult>& results);

}  // namespace csmt::sim
