//===- workloads/WorkloadDriver.cpp - Sequential/parallel drivers --------===//

#include "workloads/Workload.h"

#include "support/ErrorHandling.h"
#include "support/Fnv.h"
#include "support/Timing.h"

#include <algorithm>
#include <cstdlib>

using namespace privateer;

namespace {

std::string readAll(std::FILE *F) {
  std::string Out;
  std::rewind(F);
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  return Out;
}

} // namespace

std::string privateer::combineDigest(const std::string &LiveOut,
                                     const std::string &Io) {
  uint64_t H = fnv1a(LiveOut);
  H = fnv1a(Io, H);
  return fnvHex(H);
}

std::string privateer::runWorkloadSequential(Workload &W,
                                             double *ElapsedSec) {
  Runtime &Rt = Runtime::get();
  std::FILE *Io = std::tmpfile();
  if (!Io)
    reportFatalError("tmpfile failed");

  Rt.setSequentialOutput(Io);
  double Start = cpuSeconds();
  for (uint64_t K = 0, E = W.invocations(); K < E; ++K) {
    W.beginInvocation(K);
    Rt.runSequential(0, W.iterationsPerInvocation(),
                     [&](uint64_t I) { W.body(I); });
    W.endInvocation(K);
  }
  if (ElapsedSec)
    *ElapsedSec = cpuSeconds() - Start;
  Rt.setSequentialOutput(nullptr);

  std::string LiveOut;
  W.appendLiveOut(LiveOut);
  std::string IoText = readAll(Io);
  std::fclose(Io);
  return combineDigest(LiveOut, IoText);
}

std::string privateer::runWorkloadParallel(Workload &W,
                                           const ParallelOptions &Options,
                                           InvocationStats *Total) {
  Runtime &Rt = Runtime::get();
  std::FILE *Io = std::tmpfile();
  if (!Io)
    reportFatalError("tmpfile failed");
  ParallelOptions Opt = Options;
  Opt.Out = Io;
  // Environment hook so workload harnesses (bench_fig8, CI sweeps) can be
  // traced without plumbing an option through every call site; an explicit
  // TracePath set by the caller wins.
  if (Opt.TracePath.empty())
    if (const char *Env = std::getenv("PRIVATEER_TRACE"))
      Opt.TracePath = Env;

  Rt.setSequentialOutput(Io);
  for (uint64_t K = 0, E = W.invocations(); K < E; ++K) {
    W.beginInvocation(K);
    InvocationStats S =
        Rt.runParallel(W.iterationsPerInvocation(), Opt,
                       [&](uint64_t I) { W.body(I); });
    W.endInvocation(K);
    if (Total)
      Total->accumulate(S);
  }
  Rt.setSequentialOutput(nullptr);

  std::string LiveOut;
  W.appendLiveOut(LiveOut);
  std::string IoText = readAll(Io);
  std::fclose(Io);
  return combineDigest(LiveOut, IoText);
}
