//===- perfbench/Local.cpp - cc_cold, exec_light and exec_heavy -----------===//
//
// The in-process workloads.  cc_cold runs the privateer-cc path per job:
// fresh module text through parse, verify, analyses, pipeline, lowering and
// a W = nproc speculative run.  exec_light and exec_heavy compile during
// set-up and then run the lowered programs again and again.  Every workload
// samples the --seq path of each program after the measured loop.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Stats.h"

#include "ir/IRParser.h"

#include <cstdio>

using namespace privateer;
using namespace perfbench;

namespace {

/// Samples of one program.
struct ProgramSamples {
  std::vector<double> CompileMs, RunMs, SeqMs, E2eMs, CpuMs;
};

struct LocalBench {
  const Options &O;
  Report &Rep;
  std::vector<ProgramSpec> Ps;
  std::vector<std::string> Expected;
  std::vector<ProgramSamples> Samples;
  unsigned Workers;
  uint64_t NextJob = 1;

  SpanLog Traced{true};
  SpanLog Untraced{false};
  LayerSums Layers;
  std::string RuntimeTrace;
  double TracedMs = 0, UntracedMs = 0; ///< paired e2e sums

  LocalBench(const Options &O, Report &Rep)
      : O(O), Rep(Rep), Ps(programsFor(O.Workload)), Workers(cpuCount()) {
    Samples.resize(Ps.size());
    RuntimeTrace = O.WorkDir + "/runtime-trace.json";
  }

  bool check(size_t I, const std::string &Got, const char *What) {
    if (Got == Expected[I])
      return true;
    Rep.fail(Ps[I].Name + ": " + What + " output differs from the oracle");
    return false;
  }

  void recordCompileLayers(const Compiled &C) {
    Layers.add("ir.parse_ms", C.ParseMs);
    Layers.add("ir.verify_ms", C.VerifyMs);
    Layers.add("ir.instrs", static_cast<double>(C.Instrs));
    Layers.add("ir.instrs_transformed",
               static_cast<double>(C.InstrsTransformed));
    Layers.add("analysis.fa_ms", C.FaMs);
    Layers.add("bytecode.lower_ms", C.LowerMs);
    Layers.add("transform.pipeline_ms", C.PipelineMs);
    const transform::TransformStats &S = C.Pipe.Stats;
    Layers.add("transform.privacy_checks", S.PrivacyChecks);
    Layers.add("transform.separation_checks", S.SeparationChecks);
    Layers.add("transform.separation_elided", S.SeparationChecksElided);
    unsigned PerHeap[kNumHeapKinds] = {};
    for (const auto &[Obj, K] : C.Pipe.Assignment.ObjectHeaps)
      ++PerHeap[static_cast<unsigned>(K)];
    for (unsigned K = 0; K < kNumHeapKinds; ++K)
      Layers.add(std::string("classify.objects.") +
                     heapKindName(static_cast<HeapKind>(K)),
                 PerHeap[K]);
  }

  /// The profiling layer on its own, outside any timed job.
  void recordTraining(size_t I, const std::string &Text) {
    TrainResult T;
    std::string Err;
    if (!trainProfile(Ps[I], Text, T, Err)) {
      Rep.fail(Ps[I].Name + ": training run: " + Err);
      return;
    }
    Layers.add("profiling.train_ms", T.Ms);
    Layers.add("profiling.instrs", static_cast<double>(T.Instrs));
    if (T.Instrs)
      Layers.add("profiling.ns_per_instr",
                 T.Ms * 1e6 / static_cast<double>(T.Instrs));
  }

  /// Imports the runtime timeline of the traced run just made.
  void recordRuntime(const RunResult &R, int RunSpan, uint64_t Job) {
    std::vector<RuntimeEvent> Events;
    uint64_t Dropped = 0;
    std::string Err;
    if (!readRuntimeTrace(RuntimeTrace, Events, Dropped, Err)) {
      Rep.fail(Err);
      return;
    }
    addRuntimeLayers(Layers, R, Events, Dropped, Traced, RunSpan, Job);
  }

  /// One cc_cold job: module text in, checked output out.  Returns the
  /// job's wall milliseconds, or a negative value when it failed.  The
  /// job's CPU time is that of the whole process tree: this process and
  /// the workers the runtime forked and reaped during the job.
  double coldJob(size_t I, SpanLog &Log, bool Record) {
    const ProgramSpec &P = Ps[I];
    uint64_t Job = NextJob++;
    std::string Text = salted(P, O.Seed, Job);
    bool Tracing = Log.enabled();
    ++Rep.Attempted;

    double Cpu0 = treeCpuSec();
    double T0 = nowSec();
    int JobSpan = Log.open("job", -1, Job);
    Compiled C;
    std::string Err;
    if (!compileProgram(P, Text, C, Log, JobSpan, Job, Err)) {
      Rep.fail(P.Name + ": " + Err);
      return -1;
    }
    int RunSpan = Log.open("exec.run", JobSpan, Job);
    RunResult R;
    runParallel(P, *C.Par, Workers, Tracing ? RuntimeTrace : "", R);
    Log.close(RunSpan);
    int CheckSpan = Log.open("check", JobSpan, Job);
    bool Ok = check(I, R.Output, "speculative");
    Log.close(CheckSpan);
    Log.close(JobSpan);
    double Ms = (nowSec() - T0) * 1e3;
    double CpuMs = (treeCpuSec() - Cpu0) * 1e3;
    if (!Ok)
      return -1;

    if (Record) {
      Samples[I].CompileMs.push_back(C.totalMs());
      Samples[I].RunMs.push_back(R.Ms);
      Samples[I].E2eMs.push_back(Ms);
      Samples[I].CpuMs.push_back(CpuMs);
    }
    if (Tracing) {
      recordCompileLayers(C);
      recordRuntime(R, RunSpan, Job);
      recordTraining(I, Text);
    }
    return Ms;
  }

  /// One exec_* job: a speculative run of a lowered program, checked.
  double execJob(size_t I, const Compiled &C, SpanLog &Log, bool Record) {
    uint64_t Job = NextJob++;
    bool Tracing = Log.enabled();
    ++Rep.Attempted;
    double Cpu0 = treeCpuSec();
    double T0 = nowSec();
    int JobSpan = Log.open("job", -1, Job);
    int RunSpan = Log.open("exec.run", JobSpan, Job);
    RunResult R;
    runParallel(Ps[I], *C.Par, Workers, Tracing ? RuntimeTrace : "", R);
    Log.close(RunSpan);
    int CheckSpan = Log.open("check", JobSpan, Job);
    bool Ok = check(I, R.Output, "speculative");
    Log.close(CheckSpan);
    Log.close(JobSpan);
    double Ms = (nowSec() - T0) * 1e3;
    double CpuMs = (treeCpuSec() - Cpu0) * 1e3;
    if (!Ok)
      return -1;
    if (Record) {
      Samples[I].RunMs.push_back(R.Ms);
      Samples[I].E2eMs.push_back(Ms);
      Samples[I].CpuMs.push_back(CpuMs);
    }
    if (Tracing) {
      recordRuntime(R, RunSpan, Job);
    }
    return Ms;
  }

  /// Compiles program \p I once into \p C, recording its compile time.
  bool compileSample(size_t I, SpanLog &Log, Compiled &C) {
    uint64_t Job = NextJob++;
    ++Rep.Attempted;
    std::string Err;
    int Span = Log.open("setup.compile", -1, Job);
    bool Ok = compileProgram(Ps[I], salted(Ps[I], O.Seed, Job), C, Log, Span,
                             Job, Err);
    Log.close(Span);
    if (!Ok) {
      Rep.fail(Ps[I].Name + ": " + Err);
      return false;
    }
    Samples[I].CompileMs.push_back(C.totalMs());
    if (Log.enabled())
      recordCompileLayers(C);
    return true;
  }

  /// The --seq bytecode path: the VM alone on a prelowered program.
  void seqRun(size_t I, const bytecode::BytecodeProgram &Seq) {
    ++Rep.Attempted;
    Capture Cap;
    double T0 = nowSec();
    transform::executeLoadedSequential(Seq, pipelineOptions(Ps[I]),
                                       Cap.file());
    double Ms = (nowSec() - T0) * 1e3;
    if (!check(I, Cap.take(), "sequential"))
      return;
    Samples[I].SeqMs.push_back(Ms);
    if (O.Trace)
      Layers.add("bytecode.seq_ms", Ms);
  }

  std::shared_ptr<const bytecode::BytecodeProgram> lowerSeq(size_t I) {
    std::string Err;
    auto M = ir::parseModule(salted(Ps[I], O.Seed, NextJob++), Err);
    std::shared_ptr<const bytecode::BytecodeProgram> Seq;
    if (M)
      Seq = transform::lowerForSequential(*M, Err);
    if (!Seq)
      Rep.fail(Ps[I].Name + ": sequential lowering: " + Err);
    return Seq;
  }

  /// Runs job \p Fn in the measured loop.  In the traced run every job runs
  /// twice, traced and untraced in alternating order, so the pair gives
  /// the tracing overhead.
  template <typename JobFn> void measuredJob(uint64_t Slot, JobFn &&Fn) {
    if (!O.Trace) {
      Fn(Untraced, true);
      return;
    }
    bool TracedFirst = Slot % 2 == 0;
    double A = TracedFirst ? Fn(Traced, false) : Fn(Untraced, true);
    double B = TracedFirst ? Fn(Untraced, true) : Fn(Traced, false);
    if (A >= 0 && B >= 0) {
      TracedMs += TracedFirst ? A : B;
      UntracedMs += TracedFirst ? B : A;
    }
  }

  void run();
  void report(double MeasuredSec, uint64_t Jobs,
              const std::vector<double> &SetupS);
};

void LocalBench::run() {
  bool Cold = O.Workload == "cc_cold";

  // Output oracle, before the timed set-up starts.
  Expected.resize(Ps.size());
  for (size_t I = 0; I < Ps.size(); ++I) {
    std::string Err;
    if (!oracleOutput(Ps[I], Expected[I], Err)) {
      ++Rep.Attempted;
      Rep.fail(Ps[I].Name + ": oracle: " + Err);
      return;
    }
  }

  // Set-up, repeated: compile every program.  The exec workloads run the
  // last round's programs; for cc_cold the set-up is a warm-up.
  SpanLog &SetupLog = O.Trace ? Traced : Untraced;
  std::vector<double> SetupS;
  std::vector<Compiled> Progs(Ps.size());
  for (int Round = 0; Round < kSetupRounds; ++Round) {
    double T0 = nowSec();
    for (size_t I = 0; I < Ps.size(); ++I)
      if (!compileSample(I, SetupLog, Progs[I]))
        return;
    SetupS.push_back(nowSec() - T0);
  }
  if (O.Trace && !Cold)
    for (size_t I = 0; I < Ps.size(); ++I)
      recordTraining(I, salted(Ps[I], O.Seed, NextJob++));

  // The measured loop: seeded rounds, each a fresh permutation of the
  // programs, so every program gets the same number of jobs (+-1).
  Rng R(O.Seed);
  std::vector<size_t> Order(Ps.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  uint64_t Jobs = 0;
  double Start = nowSec();
  double Deadline = Start + O.Seconds;
  while (nowSec() < Deadline && !Rep.Failed) {
    R.shuffle(Order);
    for (size_t I : Order) {
      if (nowSec() >= Deadline || Rep.Failed)
        break;
      if (Cold) {
        measuredJob(Jobs, [&](SpanLog &Log, bool Record) {
          return coldJob(I, Log, Record);
        });
      } else {
        measuredJob(Jobs, [&](SpanLog &Log, bool Record) {
          return execJob(I, Progs[I], Log, Record);
        });
      }
      ++Jobs;
    }
  }
  double MeasuredSec = nowSec() - Start;

  // The --seq path, sampled outside the measured loop for the rows.
  if (!Rep.Failed)
    for (size_t I = 0; I < Ps.size(); ++I)
      if (auto Seq = lowerSeq(I))
        for (int K = 0; K < 5; ++K)
          seqRun(I, *Seq);

  report(MeasuredSec, Jobs, SetupS);
}

void LocalBench::report(double MeasuredSec, uint64_t Jobs,
                        const std::vector<double> &SetupS) {
  std::vector<double> Compile, Run, Seq, E2e, Cpu, AllE2e;
  Rep.row("%-16s %5s %11s %10s %10s %10s %10s %8s", "program", "jobs",
          "compile_ms", "run_ms", "seq_ms", "e2e_ms", "cpu_ms", "run/seq");
  for (size_t I = 0; I < Ps.size(); ++I) {
    const ProgramSamples &S = Samples[I];
    double C = median(S.CompileMs), Ru = median(S.RunMs),
           Se = median(S.SeqMs), E = median(S.E2eMs), Cp = median(S.CpuMs);
    Rep.row("%-16s %5zu %11.3f %10.3f %10.4f %10.3f %10.3f %8.1f",
            Ps[I].Name.c_str(), S.E2eMs.size(), C, Ru, Se, E, Cp,
            Se > 0 ? Ru / Se : 0.0);
    Compile.push_back(C);
    Run.push_back(Ru);
    Seq.push_back(Se);
    E2e.push_back(E);
    Cpu.push_back(Cp);
    AllE2e.insert(AllE2e.end(), S.E2eMs.begin(), S.E2eMs.end());
  }
  Rep.row("%-16s %5s %11.3f %10.3f %10.4f %10.3f %10.3f", "geomean (.gm)",
          "", geomean(Compile), geomean(Run), geomean(Seq), geomean(E2e),
          geomean(Cpu));
  if (!O.Trace) {
    Tail T = highestResolvedPercentile(AllE2e);
    Rep.row("e2e_ms.p50 = %.3f ms over all programs", median(AllE2e));
    Rep.row("e2e_ms.p%g = %.3f ms (%zu of %zu samples beyond)", T.Pct,
            T.Value, T.Beyond, T.Count);
    Rep.row("compile_ms.gm = %.3f ms, run_ms.gm = %.3f ms, "
            "seq_run_ms.gm = %.4f ms",
            geomean(Compile), geomean(Run), geomean(Seq));
    Rep.row("e2e_ms.gm = %.3f ms, jobs_per_s = %.3f",
            geomean(E2e), static_cast<double>(Jobs) / MeasuredSec);
    Rep.metric("setup_s", median(SetupS));
    Rep.metric("cpu_ms.gm", geomean(Cpu));
    Rep.metric("peak_rss_mb", treePeakRssMb());
    return;
  }

  // Traced run: per-layer means, self times, coverage and overhead.
  for (const MetricDef &D : perLayerMetrics())
    Rep.metric(D.Name, Layers.mean(D.Name));
  Rep.metric("runtime.trace_dropped", Layers.sum("runtime.trace_dropped"));
  double Pipe = Layers.mean("transform.pipeline_ms");
  double Train = Layers.mean("profiling.train_ms");
  Rep.metric("classify.transform_ms", Pipe >= 0 && Train >= 0 ? Pipe - Train
                                                              : -1);
  const std::vector<Span> &All = Traced.spans();
  Coverage Cov;
  Cov.add(All);
  Rep.metric("trace.coverage", Cov.share());
  Rep.metric("trace.overhead_pct",
             UntracedMs > 0 ? (TracedMs / UntracedMs - 1) * 100 : -1);
  Rep.row("trace: layer spans cover %.2f%% of traced job time (lowest job "
          "%.2f%%)",
          100 * Cov.share(), 100 * Cov.Lowest);

  // Self time per span name, per traced job.
  std::vector<std::vector<Interval>> Children = childIntervals(All);
  std::map<std::string, double> SelfMs;
  uint64_t TracedJobs = 0;
  for (size_t I = 0; I < All.size(); ++I) {
    if (All[I].Name == "job")
      ++TracedJobs;
    SelfMs[All[I].Name] +=
        selfTime({All[I].Begin, All[I].End}, Children[I]) * 1e3;
  }
  for (const auto &[Name, Ms] : SelfMs)
    Rep.row("self %-28s %10.3f ms per traced job", Name.c_str(),
            TracedJobs ? Ms / static_cast<double>(TracedJobs) : 0.0);

  std::string Err;
  std::string Path = O.WorkDir + "/spans.json";
  if (!Traced.writeChromeJson(Path, Err))
    Rep.fail(Err);
  else
    Rep.row("spans -> %s", Path.c_str());
}

} // namespace

void perfbench::runLocalWorkload(const Options &O, Report &Rep) {
  LocalBench B(O, Rep);
  B.run();
}
