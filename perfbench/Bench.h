//===- perfbench/Bench.h - Shared pieces of the benchmark -------*- C++ -*-===//
//
// Program catalog, the interpreter output oracle, timed calls into the
// compile layers, and the report every workload fills.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Spans.h"

#include "runtime/Runtime.h"
#include "transform/Pipeline.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory inside the checkout (runtime trace, socket, spans).
  std::string WorkDir;
};

/// Set-up runs this many times per run; setup_s is the median round.
constexpr int kSetupRounds = 3;

/// One program of a workload: how to generate its module text and how to
/// compile it.  The text depends only on the spec; the seed enters as a
/// comment salt (salted()), so every seed runs the same programs.
struct ProgramSpec {
  std::string Name;
  std::string (*Text)(const ProgramSpec &) = nullptr;
  uint64_t A = 0, B = 0, C = 0; ///< size parameters for Text
  privateer::Strategy Strat = privateer::Strategy::Doall;
  bool EnableCommutative = true;
  std::string TrainingEntry; ///< empty = profile @main
};

std::vector<ProgramSpec> programsFor(const std::string &Workload);

/// Module text of \p P with a leading comment that makes it unique per
/// (seed, job) without changing what the program computes.
std::string salted(const ProgramSpec &P, uint64_t Seed, uint64_t Job);

privateer::transform::PipelineOptions pipelineOptions(const ProgramSpec &P);

/// Expected output: the tree-walking interpreter on the untransformed
/// module.  Empty with \p Err set when the program does not run.
bool oracleOutput(const ProgramSpec &P, std::string &Out, std::string &Err);

/// splitmix64: the benchmark's only source of randomness.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ULL);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[next() % I]);
  }
};

/// Number of CPUs this process may run on (what `nproc` prints).
unsigned cpuCount();

/// User plus system CPU seconds of \p U.
inline double cpuSec(const rusage &U) {
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) * 1e-6;
}

/// CPU seconds used so far by this process and its reaped descendants (the
/// runtime's forked workers).
double treeCpuSec();

/// Peak resident set, in MB, of the largest process in this process's
/// tree: itself or any reaped descendant (the runtime's forked workers).
double treePeakRssMb();

/// A FILE* that captures what is written to it.
class Capture {
public:
  Capture();
  ~Capture();
  Capture(const Capture &) = delete;
  Capture &operator=(const Capture &) = delete;
  std::FILE *file() const { return F; }
  /// Everything written so far; empties the capture.
  std::string take();

private:
  std::FILE *F = nullptr;
  char *Buf = nullptr;
  size_t Len = 0;
};

/// A program carried from module text to a lowered bytecode program, with
/// the time each compile layer took.
struct Compiled {
  std::unique_ptr<privateer::ir::Module> M;
  std::unique_ptr<privateer::analysis::FunctionAnalyses> FA;
  privateer::transform::PipelineResult Pipe;
  std::shared_ptr<const privateer::bytecode::BytecodeProgram> Par;
  uint64_t Instrs = 0, InstrsTransformed = 0;
  double ParseMs = 0, VerifyMs = 0, FaMs = 0, PipelineMs = 0, LowerMs = 0;
  double totalMs() const {
    return ParseMs + VerifyMs + FaMs + PipelineMs + LowerMs;
  }
};

/// parse -> verify -> FunctionAnalyses -> runPrivateerPipeline ->
/// lowerForPrivatized, each call timed and logged as a child of \p Parent.
/// False with \p Err set when any step rejects the program.
bool compileProgram(const ProgramSpec &P, const std::string &Text,
                    Compiled &C, SpanLog &Log, int Parent, uint64_t Job,
                    std::string &Err);

/// One speculative run of a lowered program at \p Workers workers.
struct RunResult {
  std::string Output;
  privateer::InvocationStats Stats;
  double Ms = 0;
};
void runParallel(const ProgramSpec &P,
                 const privateer::bytecode::BytecodeProgram &BP,
                 unsigned Workers, const std::string &TracePath,
                 RunResult &R);

/// Standalone ProfileCollector-hosted training run of \p Text (the
/// profiling layer of runPrivateerPipeline measured on its own).
struct TrainResult {
  double Ms = 0;
  uint64_t Instrs = 0;
};
bool trainProfile(const ProgramSpec &P, const std::string &Text,
                  TrainResult &R, std::string &Err);

/// Per-layer accumulator: mean per sample of each named quantity.
class LayerSums {
public:
  void add(const std::string &Name, double V) {
    Sum[Name] += V;
    ++Count[Name];
  }
  /// Mean of the samples of \p Name, or -1 when it has none (a layer this
  /// workload does not reach reads -1, never a false 0).
  double mean(const std::string &Name) const {
    auto It = Sum.find(Name);
    return It == Sum.end() ? -1 : It->second / Count.at(Name);
  }
  double sum(const std::string &Name) const {
    auto It = Sum.find(Name);
    return It == Sum.end() ? -1 : It->second;
  }

private:
  std::map<std::string, double> Sum;
  std::map<std::string, uint64_t> Count;
};

/// What one run reports.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Human-readable rows printed before the result line.
  std::vector<std::string> Rows;
  std::map<std::string, double> Metrics;

  void fail(const std::string &Why);
  void row(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));
  void metric(const std::string &Name, double V) { Metrics[Name] = V; }
};

/// Names and units of the metrics the result line carries; the order is
/// BENCHMARK.json's.
struct MetricDef {
  const char *Name;
  const char *Unit;
};
const std::vector<MetricDef> &endToEndMetrics();
const std::vector<MetricDef> &perLayerMetrics();

/// Fills the per-layer metrics every workload reports from runtime counters
/// and the imported runtime timeline of one traced parallel run.
void addRuntimeLayers(LayerSums &L, const RunResult &R,
                      const std::vector<RuntimeEvent> &Events,
                      uint64_t Dropped, SpanLog &Log, int RunSpan,
                      uint64_t Job);

/// Workload entry points.
void runLocalWorkload(const Options &O, Report &Rep);
void runDaemonWorkload(const Options &O, Report &Rep);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
