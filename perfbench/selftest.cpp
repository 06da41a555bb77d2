//===- perfbench/selftest.cpp - Checks of the statistics helpers ----------===//
//
// Built next to the benchmark and run before every measurement; a failure
// stops the benchmark before it prints a result.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <cmath>
#include <cstdio>

using namespace perfbench;

namespace {

int Failures = 0;

void expectNear(const char *What, double Got, double Want) {
  bool Ok = std::fabs(Got - Want) <= 1e-9 * std::max(1.0, std::fabs(Want));
  std::printf("%s %-48s got %.9g want %.9g\n", Ok ? "ok  " : "FAIL", What, Got,
              Want);
  Failures += !Ok;
}

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(static_cast<double>(I));
  return V;
}

} // namespace

int main() {
  // Median: odd and even counts, order-independent, empty.
  expectNear("median of {3,1,2}", median({3, 1, 2}), 2);
  expectNear("median of {4,1,3,2}", median({4, 1, 3, 2}), 2.5);
  expectNear("median of {}", median({}), 0);

  // Highest percentile with at least ten samples beyond it.
  Tail T = highestResolvedPercentile(iota(1000));
  std::printf("     p%g of 1..1000 = %g with %zu of %zu samples beyond\n",
              T.Pct, T.Value, T.Beyond, T.Count);
  expectNear("1..1000: percentile chosen", T.Pct, 99);
  expectNear("1..1000: p99 value", T.Value, 990);
  expectNear("1..1000: samples beyond p99", static_cast<double>(T.Beyond), 10);
  T = highestResolvedPercentile(iota(150));
  std::printf("     p%g of 1..150 = %g with %zu of %zu samples beyond\n",
              T.Pct, T.Value, T.Beyond, T.Count);
  expectNear("1..150: percentile chosen", T.Pct, 90);
  expectNear("1..150: p90 value", T.Value, 135);
  expectNear("1..150: samples beyond p90", static_cast<double>(T.Beyond), 15);
  T = highestResolvedPercentile(iota(12));
  expectNear("1..12: falls back to p50", T.Pct, 50);
  expectNear("1..12: p50 value", T.Value, 6);

  // Geomean across programs.
  expectNear("geomean of {1,4,16}", geomean({1, 4, 16}), 4);
  expectNear("geomean of {2}", geomean({2}), 2);
  expectNear("geomean with a zero is undefined (0)", geomean({0, 4}), 0);

  // Self time: span minus the union of its children, overlaps once.
  expectNear("self time, disjoint children",
             selfTime({0, 10}, {{1, 2}, {5, 7}}), 7);
  expectNear("self time, overlapping children counted once",
             selfTime({0, 10}, {{1, 4}, {3, 6}, {5, 6}}), 5);
  expectNear("self time, child sticking out is clipped",
             selfTime({0, 10}, {{-2, 1}, {9, 12}}), 8);
  expectNear("self time, nested children", selfTime({0, 10}, {{2, 8}, {3, 4}}),
             4);
  expectNear("coverage, no children", coveredLength({}, {0, 10}), 0);

  std::printf("%s: %d failure(s)\n", Failures ? "FAILED" : "passed", Failures);
  return Failures ? 1 : 0;
}
