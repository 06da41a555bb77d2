//===- perfbench/Common.cpp - Catalog, oracle, timed layer calls ----------===//

#include "Bench.h"

#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "profiling/ProfileCollector.h"
#include "support/Trace.h"
#include "workloads/IrPrograms.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <sched.h>
#include <sys/resource.h>

using namespace privateer;
using namespace perfbench;

namespace {

std::string dijkstra(const ProgramSpec &P) {
  return dijkstraIrText(static_cast<unsigned>(P.A));
}
std::string redsum(const ProgramSpec &P) { return reductionSumIrText(P.A); }
std::string fpPricing(const ProgramSpec &P) { return fpPricingIrText(P.A); }
std::string histogram(const ProgramSpec &P) {
  return histogramIrText(P.A, P.B, P.C);
}
std::string dedup(const ProgramSpec &P) { return dedupIrText(P.A, P.B, P.C); }
std::string arrayRec(const ProgramSpec &P) {
  return arrayRecurrenceIrText(P.A, P.B);
}
std::string scalarCarry(const ProgramSpec &P) {
  return scalarCarryIrText(P.A);
}

ProgramSpec spec(std::string Name, std::string (*Text)(const ProgramSpec &),
                 uint64_t A, uint64_t B = 0, uint64_t C = 0,
                 Strategy S = Strategy::Doall) {
  ProgramSpec P;
  P.Name = std::move(Name);
  P.Text = Text;
  P.A = A;
  P.B = B;
  P.C = C;
  P.Strat = S;
  return P;
}

double msSince(double T0) { return (nowSec() - T0) * 1e3; }

uint64_t countInstrs(const ir::Module &M) {
  uint64_t N = 0;
  for (const auto &F : M.functions())
    for (const auto &B : F->blocks())
      N += B->instructions().size();
  return N;
}

} // namespace

// Sizes: cc_cold keeps every program small so the front end dominates;
// exec_light gives each program thousands of cheap iterations so
// checkpoints and validation dominate; exec_heavy runs few, heavy
// iterations; daemon_mix uses programs whose warm runs take milliseconds,
// so queueing and dispatch show.
std::vector<ProgramSpec> perfbench::programsFor(const std::string &W) {
  std::vector<ProgramSpec> Ps;
  if (W == "cc_cold") {
    Ps = {spec("dijkstra-20", dijkstra, 20),
          spec("dijkstra-26", dijkstra, 26),
          spec("dijkstra-32", dijkstra, 32),
          spec("redsum", redsum, 1000),
          spec("fppricing", fpPricing, 1000),
          spec("histogram", histogram, 600, 16, 4),
          spec("dedup", dedup, 500, 8, 4),
          spec("arrayrec", arrayRec, 500, 2, 0, Strategy::Doacross),
          spec("scalarcarry", scalarCarry, 500, 0, 0, Strategy::Doacross)};
  } else if (W == "exec_light") {
    Ps = {spec("redsum", redsum, 5000),
          spec("fppricing", fpPricing, 4000),
          spec("histogram", histogram, 5000, 1024, 8),
          spec("dedup", dedup, 5000, 256, 8),
          spec("scalarcarry", scalarCarry, 3000, 0, 0, Strategy::Doacross)};
    // The five-heap fallback: without the commutative heap the tables
    // classify private on the warmup-only @train profile, and the hot
    // buckets misspeculate at run time.
    ProgramSpec Fallback = spec("histogram-5heap", histogram, 5000, 1024, 8);
    Fallback.EnableCommutative = false;
    Fallback.TrainingEntry = "train";
    Ps.push_back(Fallback);
  } else if (W == "exec_heavy") {
    Ps = {spec("dijkstra-48", dijkstra, 48), spec("dijkstra-56", dijkstra, 56)};
  } else if (W == "daemon_mix") {
    Ps = {spec("redsum", redsum, 1000), spec("fppricing", fpPricing, 1000),
          spec("histogram", histogram, 600, 16, 4),
          spec("dedup", dedup, 500, 8, 4), spec("dijkstra-16", dijkstra, 16)};
  }
  return Ps;
}

std::string perfbench::salted(const ProgramSpec &P, uint64_t Seed,
                              uint64_t Job) {
  char Head[96];
  std::snprintf(Head, sizeof(Head), "; perfbench seed %llu job %llu\n",
                static_cast<unsigned long long>(Seed),
                static_cast<unsigned long long>(Job));
  return Head + P.Text(P);
}

transform::PipelineOptions perfbench::pipelineOptions(const ProgramSpec &P) {
  transform::PipelineOptions O;
  O.Strat = P.Strat;
  O.EnableCommutative = P.EnableCommutative;
  O.TrainingEntryFunction = P.TrainingEntry;
  return O;
}

bool perfbench::oracleOutput(const ProgramSpec &P, std::string &Out,
                             std::string &Err) {
  auto M = ir::parseModule(P.Text(P), Err);
  if (!M)
    return false;
  std::vector<std::string> Diags = ir::verifyModule(*M);
  if (!Diags.empty()) {
    Err = Diags.front();
    return false;
  }
  transform::PipelineOptions O;
  O.Engine = transform::ExecEngine::Interp;
  Capture Cap;
  transform::executeSequential(*M, O, Cap.file());
  Out = Cap.take();
  return true;
}

unsigned perfbench::cpuCount() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return 1;
}

double perfbench::treeCpuSec() {
  rusage Self{}, Children{};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Children);
  return cpuSec(Self) + cpuSec(Children);
}

double perfbench::treePeakRssMb() {
  rusage Self{}, Children{};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Children);
  return static_cast<double>(std::max(Self.ru_maxrss, Children.ru_maxrss)) /
         1024.0;
}

Capture::Capture() {
  F = ::open_memstream(&Buf, &Len);
  if (!F) {
    std::fprintf(stderr, "perfbench: open_memstream failed\n");
    std::exit(1);
  }
}

Capture::~Capture() {
  std::fclose(F);
  std::free(Buf);
}

std::string Capture::take() {
  std::fflush(F);
  std::string S(Buf, Len);
  std::rewind(F);
  return S;
}

bool perfbench::compileProgram(const ProgramSpec &P, const std::string &Text,
                               Compiled &C, SpanLog &Log, int Parent,
                               uint64_t Job, std::string &Err) {
  double T0 = nowSec();
  C.M = ir::parseModule(Text, Err);
  double T1 = nowSec();
  Log.add("ir.parse", T0, T1, Parent, Job);
  C.ParseMs = (T1 - T0) * 1e3;
  if (!C.M)
    return false;

  T0 = nowSec();
  std::vector<std::string> Diags = ir::verifyModule(*C.M);
  T1 = nowSec();
  Log.add("ir.verify", T0, T1, Parent, Job);
  C.VerifyMs = (T1 - T0) * 1e3;
  if (!Diags.empty()) {
    Err = "verifier: " + Diags.front();
    return false;
  }
  C.Instrs = countInstrs(*C.M);

  T0 = nowSec();
  C.FA = std::make_unique<analysis::FunctionAnalyses>(*C.M);
  T1 = nowSec();
  Log.add("analysis.fa", T0, T1, Parent, Job);
  C.FaMs = (T1 - T0) * 1e3;

  // The training run interprets the program; its output is not the job's.
  Capture TrainSink;
  T0 = nowSec();
  Runtime::get().setSequentialOutput(TrainSink.file());
  C.Pipe = transform::runPrivateerPipeline(*C.M, *C.FA, pipelineOptions(P));
  Runtime::get().setSequentialOutput(nullptr);
  T1 = nowSec();
  Log.add("transform.pipeline", T0, T1, Parent, Job);
  C.PipelineMs = (T1 - T0) * 1e3;
  if (!C.Pipe.Transformed) {
    Err = "not parallelized: " +
          (C.Pipe.Log.empty() ? std::string("?") : C.Pipe.Log.back());
    return false;
  }
  C.InstrsTransformed = countInstrs(*C.M);

  T0 = nowSec();
  C.Par = transform::lowerForPrivatized(*C.M, *C.FA, C.Pipe.Assignment, Err);
  T1 = nowSec();
  Log.add("bytecode.lower", T0, T1, Parent, Job);
  C.LowerMs = (T1 - T0) * 1e3;
  if (!C.Par) {
    Err = "lowering declined: " + Err;
    return false;
  }
  return true;
}

void perfbench::runParallel(const ProgramSpec &P,
                            const bytecode::BytecodeProgram &BP,
                            unsigned Workers, const std::string &TracePath,
                            RunResult &R) {
  ParallelOptions Par;
  Par.NumWorkers = Workers;
  Par.Strat = P.Strat;
  Par.TracePath = TracePath;
  if (!TracePath.empty())
    trace::Collector::instance().reset();
  Capture Cap;
  double T0 = nowSec();
  transform::ExecutionResult E = transform::executeLoadedParallel(
      BP, pipelineOptions(P), Par, RuntimeConfig(), Cap.file());
  R.Ms = msSince(T0);
  R.Stats = E.Stats;
  R.Output = Cap.take();
}

bool perfbench::trainProfile(const ProgramSpec &P, const std::string &Text,
                             TrainResult &R, std::string &Err) {
  auto M = ir::parseModule(Text, Err);
  if (!M)
    return false;
  analysis::FunctionAnalyses FA(*M);
  transform::PipelineOptions O = pipelineOptions(P);
  const std::string &Entry =
      O.TrainingEntryFunction.empty() ? O.EntryFunction
                                      : O.TrainingEntryFunction;
  Capture Sink;
  Runtime::get().setSequentialOutput(Sink.file());
  double T0 = nowSec();
  {
    profiling::ProfileCollector Collector(FA);
    interp::PlainMemoryManager MM;
    interp::Interpreter Interp(*M, MM, &Collector);
    Interp.setInstructionBudget(O.ProfileBudget);
    Interp.initializeGlobals();
    Interp.run(Entry, Entry == O.EntryFunction ? O.EntryArgs
                                               : std::vector<interp::Cell>());
    Collector.finish();
    R.Instrs = Interp.instructionsExecuted();
  }
  R.Ms = msSince(T0);
  Runtime::get().setSequentialOutput(nullptr);
  return true;
}

void Report::fail(const std::string &Why) {
  ++Failed;
  std::fprintf(stderr, "perfbench: FAIL %s\n", Why.c_str());
}

void Report::row(const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  Rows.emplace_back(Buf);
}

const std::vector<MetricDef> &perfbench::endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"setup_s", "s"},
      {"cpu_ms.gm", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return Defs;
}

const std::vector<MetricDef> &perfbench::perLayerMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"ir.parse_ms", "ms"},
      {"ir.verify_ms", "ms"},
      {"ir.instrs", "count"},
      {"ir.instrs_transformed", "count"},
      {"analysis.fa_ms", "ms"},
      {"bytecode.lower_ms", "ms"},
      {"profiling.train_ms", "ms"},
      {"profiling.instrs", "count"},
      {"profiling.ns_per_instr", "ns"},
      {"transform.pipeline_ms", "ms"},
      {"classify.transform_ms", "ms"},
      {"transform.privacy_checks", "count"},
      {"transform.separation_checks", "count"},
      {"transform.separation_elided", "count"},
      {"classify.objects.read-only", "count"},
      {"classify.objects.private", "count"},
      {"classify.objects.redux", "count"},
      {"classify.objects.short-lived", "count"},
      {"classify.objects.unrestricted", "count"},
      {"classify.objects.commutative", "count"},
      {"bytecode.seq_ms", "ms"},
      {"runtime.iterations", "count"},
      {"runtime.epochs", "count"},
      {"runtime.checkpoints", "count"},
      {"runtime.misspecs", "count"},
      {"runtime.recovered_iters", "count"},
      {"runtime.useful_ratio", "ratio"},
      {"runtime.priv_read_calls", "count"},
      {"runtime.priv_read_bytes", "bytes"},
      {"runtime.priv_write_calls", "count"},
      {"runtime.priv_write_bytes", "bytes"},
      {"runtime.separation_checks", "count"},
      {"runtime.eager_slots", "count"},
      {"runtime.com_updates", "count"},
      {"runtime.dep_wait_spins", "count"},
      {"runtime.merge_ms", "ms"},
      {"runtime.commit_ms", "ms"},
      {"runtime.recovery_ms", "ms"},
      {"runtime.ckpt_us_per_checkpoint", "us"},
      {"runtime.bringup_ms", "ms"},
      {"runtime.forks", "count"},
      {"runtime.epoch_ms", "ms"},
      {"runtime.trace_dropped", "count"},
      {"service.queue_ms.p50", "ms"},
      {"service.exec_ms.p50", "ms"},
      {"service.pipeline_ms.p50", "ms"},
      {"service.daemon_wall_ms.p50", "ms"},
      {"service.client_ms.p50", "ms"},
      {"service.supervisor_job_ms.p50", "ms"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.pool_dispatches", "count"},
      {"service.supervisor_forks", "count"},
      {"service.rejected", "count"},
      {"service.retries", "count"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return Defs;
}

void perfbench::addRuntimeLayers(LayerSums &L, const RunResult &R,
                                 const std::vector<RuntimeEvent> &Events,
                                 uint64_t Dropped, SpanLog &Log, int RunSpan,
                                 uint64_t Job) {
  const InvocationStats &S = R.Stats;
  L.add("runtime.iterations", static_cast<double>(S.Iterations));
  L.add("runtime.epochs", static_cast<double>(S.Epochs));
  L.add("runtime.checkpoints", static_cast<double>(S.Checkpoints));
  L.add("runtime.misspecs", static_cast<double>(S.Misspecs));
  L.add("runtime.recovered_iters",
        static_cast<double>(S.RecoveredIterations));
  if (S.Iterations)
    L.add("runtime.useful_ratio",
          1.0 - static_cast<double>(S.RecoveredIterations +
                                    S.DegradedIterations) /
                    static_cast<double>(S.Iterations));
  L.add("runtime.priv_read_calls", static_cast<double>(S.PrivateReadCalls));
  L.add("runtime.priv_read_bytes", static_cast<double>(S.PrivateReadBytes));
  L.add("runtime.priv_write_calls", static_cast<double>(S.PrivateWriteCalls));
  L.add("runtime.priv_write_bytes", static_cast<double>(S.PrivateWriteBytes));
  L.add("runtime.separation_checks", static_cast<double>(S.SeparationChecks));
  L.add("runtime.eager_slots", static_cast<double>(S.EagerSlots));
  L.add("runtime.com_updates", static_cast<double>(S.ComUpdates));
  L.add("runtime.dep_wait_spins", static_cast<double>(S.DepWaitSpins));

  double InvMs = 0, MergeMs = 0, CommitMs = 0, RecoveryMs = 0, EpochMs = 0;
  double Forks = 0;
  for (const RuntimeEvent &E : Events) {
    double Ms = E.DurUs / 1e3;
    if (E.Name == "invocation")
      InvMs += Ms;
    else if (E.Name == "slot_merge")
      MergeMs += Ms;
    else if (E.Name == "commit_eager" || E.Name == "commit_postjoin")
      CommitMs += Ms;
    else if (E.Name == "recovery")
      RecoveryMs += Ms;
    else if (E.Name == "epoch")
      EpochMs += Ms;
    else if (E.Name == "worker_fork")
      Forks += 1;
  }
  L.add("runtime.merge_ms", MergeMs);
  L.add("runtime.commit_ms", CommitMs);
  L.add("runtime.recovery_ms", RecoveryMs);
  L.add("runtime.epoch_ms", EpochMs);
  L.add("runtime.forks", Forks);
  L.add("runtime.bringup_ms", R.Ms - InvMs);
  if (S.Checkpoints)
    L.add("runtime.ckpt_us_per_checkpoint",
          (MergeMs + CommitMs) * 1e3 / static_cast<double>(S.Checkpoints));
  L.add("runtime.trace_dropped", static_cast<double>(Dropped));

  // Runtime spans nest inside the run span.  The timeline is relative to
  // the invocation's start, which is placed after the run's bring-up; each
  // span's parent is the shortest main-process span that contains it.
  if (RunSpan < 0)
    return;
  double Base =
      Log.spans()[static_cast<size_t>(RunSpan)].Begin + (R.Ms - InvMs) * 1e-3;
  std::vector<const RuntimeEvent *> Spans;
  for (const RuntimeEvent &E : Events)
    if (E.IsSpan)
      Spans.push_back(&E);
  std::stable_sort(Spans.begin(), Spans.end(),
                   [](const RuntimeEvent *A, const RuntimeEvent *B) {
                     return A->DurUs > B->DurUs;
                   });
  std::vector<std::pair<const RuntimeEvent *, int>> MainRow;
  for (const RuntimeEvent *E : Spans) {
    int Parent = RunSpan;
    for (auto It = MainRow.rbegin(); It != MainRow.rend(); ++It)
      if (It->first->TsUs <= E->TsUs &&
          E->TsUs + E->DurUs <= It->first->TsUs + It->first->DurUs) {
        Parent = It->second;
        break;
      }
    int Id = Log.add("runtime." + E->Name, Base + E->TsUs * 1e-6,
                     Base + (E->TsUs + E->DurUs) * 1e-6, Parent, Job, E->Row);
    if (E->Row == 0)
      MainRow.emplace_back(E, Id);
  }
}
