// csmt::obs event tracing.
//
// Every instrumentation site in the simulator holds a raw
// `ChromeTraceWriter*` that is nullptr when tracing is off and guards the
// call behind that single branch — the disabled path costs one predictable
// compare per site and no allocation (verified by the null-writer
// fast-path test and the perf_gate budget in DESIGN.md §7). When enabled,
// events stream to the writer as Chrome trace-event JSON that loads
// directly in ui.perfetto.dev or chrome://tracing.
//
// Track model: a Chrome trace groups events into processes (pid) and
// threads (tid). We map one process per chip (pipeline tracks per cluster,
// one track per hardware thread, one for the memory system), plus
// pseudo-processes for the synchronization manager and the DASH
// interconnect. The fixed pid/tid layout below keeps every component able
// to name its own track without central coordination.
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "common/types.hpp"

namespace csmt::obs {

/// One trace track: `pid` selects the process row, `tid` the track in it.
struct Track {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
};

/// pid layout: chip c -> kChipPidBase + c; sync and NoC get pseudo-processes.
inline constexpr std::uint32_t kChipPidBase = 1;
inline constexpr std::uint32_t kSyncPid = 900;
inline constexpr std::uint32_t kNocPid = 901;

/// tid layout inside a chip process: cluster c's pipeline track is tid c,
/// the shared memory system is kMemsysTid, hardware thread t (global id)
/// is kThreadTidBase + t.
inline constexpr std::uint32_t kMemsysTid = 99;
inline constexpr std::uint32_t kThreadTidBase = 100;

/// "No payload" sentinel for TraceEvent::arg.
inline constexpr std::int64_t kNoArg = std::numeric_limits<std::int64_t>::min();

struct TraceEvent {
  enum class Phase : char {
    kComplete = 'X',  ///< named slice [ts, ts+dur)
    kInstant = 'i',   ///< point event at ts
    kCounter = 'C',   ///< sampled numeric series
  };
  Phase phase = Phase::kInstant;
  Track track;
  /// Event name. Must be a static, JSON-safe string literal: the writer
  /// emits it verbatim (no escaping, no copy).
  const char* name = "";
  Cycle ts = 0;
  Cycle dur = 0;              ///< complete events only
  std::int64_t arg = kNoArg;  ///< optional payload ("n" for counts, "value"
                              ///< for counters)
};

/// Streams events as Chrome trace-event JSON ("ts" is the simulated cycle,
/// shown as microseconds by the viewers). The file is written incrementally
/// — a multi-million-event run never buffers more than one event — and
/// closed into a valid JSON document by finish() (or the destructor). Not
/// thread-safe: one writer serves one Machine, and the simulator ticks a
/// machine from a single thread (sweep points each own their writer).
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(const std::string& path);
  ~ChromeTraceWriter();
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  /// False when the output file could not be opened (events are dropped).
  bool ok() const { return f_ != nullptr; }
  std::uint64_t events_written() const { return events_; }

  /// Closes the JSON document; idempotent. After this, events are dropped.
  void finish();

  void event(const TraceEvent& e);

  /// Track-naming metadata; emitted once, at construction/attach time.
  void name_process(std::uint32_t pid, const std::string& name);
  void name_track(Track track, const std::string& name);

  // Convenience wrappers over event().
  void instant(Track t, const char* name, Cycle at,
               std::int64_t arg = kNoArg) {
    TraceEvent e;
    e.phase = TraceEvent::Phase::kInstant;
    e.track = t;
    e.name = name;
    e.ts = at;
    e.arg = arg;
    event(e);
  }
  void complete(Track t, const char* name, Cycle begin, Cycle end,
                std::int64_t arg = kNoArg) {
    TraceEvent e;
    e.phase = TraceEvent::Phase::kComplete;
    e.track = t;
    e.name = name;
    e.ts = begin;
    e.dur = end > begin ? end - begin : 0;
    e.arg = arg;
    event(e);
  }
  void counter(Track t, const char* name, Cycle at, std::int64_t value) {
    TraceEvent e;
    e.phase = TraceEvent::Phase::kCounter;
    e.track = t;
    e.name = name;
    e.ts = at;
    e.arg = value;
    event(e);
  }

 private:
  void begin_record();

  std::FILE* f_ = nullptr;
  std::uint64_t events_ = 0;
  bool first_ = true;
};

}  // namespace csmt::obs
