//===- perfbench/Stats.h - Statistics helpers of the benchmark --*- C++ -*-===//
//
// Median, tail percentile, geometric mean, and span self time.  Header
// only, so selftest.cpp checks exactly the code the benchmark runs.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of \p V; the mean of the two middle values for an even count.
/// 0 for an empty sample.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// A nearest-rank percentile together with the number of samples strictly
/// beyond its rank, so a reader can tell how well the tail is resolved.
struct Tail {
  double Pct = 0;
  double Value = 0;
  size_t Beyond = 0;
  size_t Count = 0;
};

/// Nearest-rank percentile \p Pct of \p V (V sorted ascending).
inline Tail percentileOfSorted(const std::vector<double> &V, double Pct) {
  Tail T;
  T.Pct = Pct;
  T.Count = V.size();
  if (V.empty())
    return T;
  size_t Rank = static_cast<size_t>(std::ceil(Pct / 100.0 * V.size()));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  T.Value = V[Rank - 1];
  T.Beyond = V.size() - Rank;
  return T;
}

/// The highest of p99.9, p99, p95, p90, p75 that leaves at least
/// \p MinBeyond samples beyond its rank; p50 when none does.
inline Tail highestResolvedPercentile(std::vector<double> V,
                                      size_t MinBeyond = 10) {
  std::sort(V.begin(), V.end());
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    Tail T = percentileOfSorted(V, P);
    if (T.Beyond >= MinBeyond)
      return T;
  }
  return percentileOfSorted(V, 50.0);
}

/// Geometric mean of positive values; 0 when \p V is empty or holds a
/// non-positive value (a geomean of such a sample is undefined).
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V) {
    if (!(X > 0))
      return 0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(V.size()));
}

struct Interval {
  double Begin = 0;
  double End = 0;
};

/// Length of the union of \p Parts clipped to \p Clip: overlapping parts
/// count once, parts outside the clip not at all.
inline double coveredLength(std::vector<Interval> Parts, Interval Clip) {
  for (Interval &I : Parts) {
    I.Begin = std::max(I.Begin, Clip.Begin);
    I.End = std::min(I.End, Clip.End);
  }
  std::sort(Parts.begin(), Parts.end(),
            [](const Interval &A, const Interval &B) {
              return A.Begin < B.Begin;
            });
  double Total = 0;
  double CurBegin = 0, CurEnd = 0;
  bool Open = false;
  for (const Interval &I : Parts) {
    if (I.End <= I.Begin)
      continue;
    if (Open && I.Begin <= CurEnd) {
      CurEnd = std::max(CurEnd, I.End);
      continue;
    }
    if (Open)
      Total += CurEnd - CurBegin;
    CurBegin = I.Begin;
    CurEnd = I.End;
    Open = true;
  }
  if (Open)
    Total += CurEnd - CurBegin;
  return Total;
}

/// Self time of a span: its duration minus the part of it that its
/// children cover, overlapping children counted once.
inline double selfTime(Interval Span, const std::vector<Interval> &Children) {
  return (Span.End - Span.Begin) - coveredLength(Children, Span);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
