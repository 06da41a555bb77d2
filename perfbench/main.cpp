//===- perfbench/main.cpp - The benchmark's measuring program -------------===//
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <existing scratch dir>
//
// Runs one workload, prints a human-readable report and, as the last line,
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones.  Exits 1 when any output differs from the oracle or any
// operation fails.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cc_cold|exec_light|exec_heavy|"
               "daemon_mix --seed <n> --seconds <s> --trace 0|1 "
               "--workdir <dir>\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      O.Workload = V;
    else if (K == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      O.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      O.Trace = V == "1";
    else if (K == "--workdir")
      O.WorkDir = V;
    else
      return usage();
  }
  if (Argc % 2 == 0 || programsFor(O.Workload).empty() || O.Seconds <= 0 ||
      O.WorkDir.empty())
    return usage();

  Report Rep;
  if (O.Workload == "daemon_mix")
    runDaemonWorkload(O, Rep);
  else
    runLocalWorkload(O, Rep);

  const std::vector<MetricDef> &Defs =
      O.Trace ? perLayerMetrics() : endToEndMetrics();
  std::set<std::string> Known;
  for (const MetricDef &D : Defs)
    Known.insert(D.Name);
  if (!Rep.Failed) {
    for (const MetricDef &D : Defs) {
      auto It = Rep.Metrics.find(D.Name);
      if (It == Rep.Metrics.end() || !std::isfinite(It->second))
        Rep.fail(std::string("metric ") + D.Name + " was not measured");
    }
    for (const auto &[Name, V] : Rep.Metrics)
      if (!Known.count(Name))
        Rep.fail("metric " + Name + " is not declared");
  }

  std::printf("workload %s, seed %llu, %g s, trace %d, W = %u\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0, cpuCount());
  for (const std::string &R : Rep.Rows)
    std::printf("  %s\n", R.c_str());
  for (const MetricDef &D : Defs) {
    auto It = Rep.Metrics.find(D.Name);
    if (It != Rep.Metrics.end())
      std::printf("  %-34s %14.6g %s\n", D.Name, It->second, D.Unit);
  }
  std::printf("  %-34s %14.6g ratio (%llu of %llu operations)\n",
              "fail_ratio",
              Rep.Attempted ? static_cast<double>(Rep.Failed) /
                                  static_cast<double>(Rep.Attempted)
                            : 1.0,
              static_cast<unsigned long long>(Rep.Failed),
              static_cast<unsigned long long>(Rep.Attempted));

  bool Correct = Rep.Failed == 0 && Rep.Attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(
                  Rep.Attempted, 1)),
              static_cast<unsigned long long>(Rep.Failed));
  bool First = true;
  for (const MetricDef &D : Defs) {
    auto It = Rep.Metrics.find(D.Name);
    if (It == Rep.Metrics.end() || !std::isfinite(It->second))
      continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", D.Name, It->second, D.Unit);
    First = false;
  }
  std::printf("}}\n");
  return Correct ? 0 : 1;
}
