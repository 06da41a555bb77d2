//===- perfbench/Spans.h - In-memory span log of the traced run -*- C++ -*-===//
//
// The benchmark's own spans around each public call it makes, plus the
// runtime's timeline events imported from the Chrome-trace file the
// runtime writes when ParallelOptions::TracePath is set.  Spans stay in
// memory and are written out once, when the run ends.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "Stats.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
inline double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string Name;
  double Begin = 0; ///< nowSec() at entry
  double End = 0;   ///< nowSec() at exit
  int Parent = -1;  ///< index into the log, -1 for a root
  uint64_t Job = 0;
  unsigned Row = 0; ///< 0 = this process; 1 + w = speculative worker w
};

/// Records nothing when disabled, so the untimed bookkeeping of the
/// traced run never leaks into the untraced one.
class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Opens a span ending at close(); returns its index, or -1 when
  /// disabled.
  int open(const std::string &Name, int Parent, uint64_t Job) {
    return add(Name, nowSec(), 0, Parent, Job);
  }
  void close(int Id) {
    if (Id >= 0)
      Spans[static_cast<size_t>(Id)].End = nowSec();
  }
  int add(const std::string &Name, double Begin, double End, int Parent,
          uint64_t Job, unsigned Row = 0) {
    if (!Enabled)
      return -1;
    Spans.push_back(Span{Name, Begin, End, Parent, Job, Row});
    return static_cast<int>(Spans.size() - 1);
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Writes every span as a Chrome-trace complete event (pid = job id,
  /// tid = row).
  bool writeChromeJson(const std::string &Path, std::string &Err) const;

private:
  bool Enabled;
  std::vector<Span> Spans;
};

/// Intervals of each span's direct children, indexed like \p Spans.
std::vector<std::vector<Interval>> childIntervals(const std::vector<Span> &Spans);

/// How much of the "job" spans' wall time their direct children cover.
struct Coverage {
  double CoveredSec = 0;
  double WallSec = 0;
  double Lowest = 1; ///< lowest share of any single job
  void add(const std::vector<Span> &Spans);
  double share() const { return WallSec > 0 ? CoveredSec / WallSec : -1; }
};

/// One event of the runtime's timeline file.  Times are microseconds
/// relative to the first event's start (the runtime's `invocation` span).
struct RuntimeEvent {
  std::string Name;
  double TsUs = 0;
  double DurUs = 0; ///< 0 for instants
  bool IsSpan = false;
  unsigned Row = 0; ///< 0 = main process, 1 + w = worker w
};

/// Parses the Chrome-trace JSON the runtime's trace collector writes (one
/// event per line).  \p Dropped receives otherData.dropped_events.
bool readRuntimeTrace(const std::string &Path, std::vector<RuntimeEvent> &Out,
                      uint64_t &Dropped, std::string &Err);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
