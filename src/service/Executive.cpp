//===- service/Executive.cpp - Job executives and runJob ------------------===//

#include "service/Executive.h"

#include "bytecode/Image.h"
#include "service/ProgramCache.h"
#include "service/Protocol.h"
#include "support/Timing.h"
#include "transform/Pipeline.h"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <new>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace privateer;
using namespace privateer::service;

namespace {

/// Per-executive program cache: (daemon program key, cache generation,
/// parallel-vs-sequential image) -> deserialized program.  Bounded LRU —
/// an executive outlives many daemon cache generations.
class LocalPrograms {
public:
  explicit LocalPrograms(size_t Max = 32) : Max(Max) {}

  using Key = std::tuple<uint64_t, uint64_t, bool>;

  const bytecode::BytecodeProgram *find(const Key &K) {
    auto It = Map.find(K);
    if (It == Map.end())
      return nullptr;
    touch(K);
    return It->second.get();
  }

  const bytecode::BytecodeProgram *
  insert(const Key &K, std::unique_ptr<bytecode::BytecodeProgram> P) {
    while (Map.size() >= Max && !Order.empty()) {
      Map.erase(Order.back());
      Order.pop_back();
    }
    touch(K);
    auto &Slot = Map[K];
    Slot = std::move(P);
    return Slot.get();
  }

private:
  void touch(const Key &K) {
    for (auto It = Order.begin(); It != Order.end(); ++It)
      if (*It == K) {
        Order.erase(It);
        break;
      }
    Order.push_front(K);
  }

  size_t Max;
  std::map<Key, std::unique_ptr<bytecode::BytecodeProgram>> Map;
  std::deque<Key> Order; ///< front = most recently used
};

/// Maps the sealed image memfd, deserializes, closes the fd.
std::unique_ptr<bytecode::BytecodeProgram> loadImage(int MemFd,
                                                     std::string &Err) {
  struct stat St{};
  if (::fstat(MemFd, &St) != 0 || St.st_size <= 0) {
    Err = "image fstat failed";
    ::close(MemFd);
    return nullptr;
  }
  size_t Bytes = static_cast<size_t>(St.st_size);
  void *P = ::mmap(nullptr, Bytes, PROT_READ, MAP_PRIVATE, MemFd, 0);
  if (P == MAP_FAILED) {
    Err = std::string("image mmap: ") + std::strerror(errno);
    ::close(MemFd);
    return nullptr;
  }
  auto Prog = bytecode::deserializeProgram(P, Bytes, Err);
  ::munmap(P, Bytes);
  ::close(MemFd);
  return Prog;
}

} // namespace

JobReply service::runJob(const JobRequest &Req, unsigned Attempt,
                         const JobProgram &Prog) {
  // Process-level faults: die the way a crashing job would, so the daemon
  // triages the corpse (and replaces a pooled executive).
  if (Req.FaultKillSupervisor)
    ::raise(SIGKILL);
  if (Req.FaultSupervisorSignal != 0) {
    // Reset first: a one-shot may have inherited the runtime's SIGSEGV
    // speculation handler from the daemon's in-process training run.
    ::signal(static_cast<int>(Req.FaultSupervisorSignal), SIG_DFL);
    ::raise(static_cast<int>(Req.FaultSupervisorSignal));
  }
  if (Req.FaultSupervisorExit != kNoFaultExit)
    ::_exit(static_cast<int>(Req.FaultSupervisorExit));
  if (Req.FaultBurnCpuSec > 0) {
    double End = cpuSeconds() + Req.FaultBurnCpuSec;
    volatile uint64_t Sink = 0;
    while (cpuSeconds() < End)
      for (int I = 0; I < 4096; ++I)
        Sink = Sink + static_cast<uint64_t>(I) * 2654435761u;
  }

  // Typed out-of-memory reporting: the reply says so in-band, so the
  // daemon triages the failure from the reply body, not from a corpse.
  // Both fault knobs funnel through here, as does any bad_alloc thrown
  // during execution.
  JobReply R;
  auto Oom = [&R](std::string Why) {
    R.Status = JobStatus::ResourceLimit;
    R.Cause = FailureCause::OutOfMemory;
    R.Error = std::move(Why);
    return R;
  };
  if (Attempt < Req.FaultOomAttempts)
    return Oom("fault injection: simulated allocation failure on attempt " +
               std::to_string(Attempt + 1));
  if (Req.FaultAllocBytes > 0) {
    // The nothrow form: ASan aborts a throwing operator new[] it cannot
    // satisfy even with allocator_may_return_null=1, but returns null
    // here.  A direct operator call, because a new[]/delete[] expression
    // pair is elidable at -O3, which would silently defuse the fault.
    void *P = ::operator new[](Req.FaultAllocBytes, std::nothrow);
    if (!P)
      return Oom("allocation of " + std::to_string(Req.FaultAllocBytes) +
                 " bytes failed (bad_alloc)");
    ::operator delete[](P);
  }

  char *OutBuf = nullptr;
  size_t OutLen = 0;
  std::FILE *Out = ::open_memstream(&OutBuf, &OutLen);
  if (!Out) {
    R.Status = JobStatus::InternalError;
    R.Error = "open_memstream failed";
    return R;
  }

  ParallelOptions Par;
  Par.NumWorkers = Req.NumWorkers;
  Par.CheckpointPeriod = Req.CheckpointPeriod;
  Par.MaxSlotsPerEpoch = Req.MaxSlotsPerEpoch;
  Par.InjectMisspecRate = Req.InjectMisspecRate;
  Par.InjectSeed = Req.InjectSeed;
  Par.EagerCommit = Req.EagerCommit;
  // Honor PRIVATEER_TIMEOUT_SCALE here exactly like the per-job deadline:
  // sanitizer builds run several-fold slower and the watchdog must not
  // reap healthy workers.
  Par.StallTimeoutSec = Req.StallTimeoutSec * timeoutScale();
  Par.TracePath = Req.TracePath;
  Par.Faults.Seed = Req.FaultSeed;
  Par.Faults.KillWorker = Req.FaultKillWorker;
  Par.Faults.KillAtIter = Req.FaultKillAtIter;
  Par.Faults.StallWorker = Req.FaultStallWorker;
  Par.Faults.StallAtIter = Req.FaultStallAtIter;
  Par.Faults.StallSeconds = Req.FaultStallSeconds;
  Par.Faults.KillRate = Req.FaultKillRate;
  Par.Strat = static_cast<Strategy>(Req.Strat);

  transform::PipelineOptions PO;
  PO.Engine = Req.Engine == 1 ? transform::ExecEngine::Interp
                              : transform::ExecEngine::Bytecode;
  PO.Strat = static_cast<Strategy>(Req.Strat);

  double T0 = wallSeconds();
  try {
    if (Req.Mode == JobMode::Sequential) {
      interp::Cell V =
          Prog.Image ? transform::executeLoadedSequential(*Prog.Image, PO, Out)
                     : transform::executeSequential(
                           *Prog.Cached->M, PO, Out,
                           Prog.Cached->LoweredSeq.get());
      R.ExitValue = V.asInt();
    } else {
      const CachedProgram *C = Prog.Cached;
      transform::ExecutionResult E =
          Prog.Image ? transform::executeLoadedParallel(
                           *Prog.Image, PO, Par, RuntimeConfig(), Out)
                     : transform::executePrivatized(
                           *C->M, *C->FA, C->Pipeline.Assignment, PO, Par,
                           RuntimeConfig(), Out, C->LoweredPar.get());
      R.ExitValue = E.ReturnValue.asInt();
      R.Iterations = E.Stats.Iterations;
      R.Checkpoints = E.Stats.Checkpoints;
      R.Misspecs = E.Stats.Misspecs;
      R.RecoveredIterations = E.Stats.RecoveredIterations;
      R.ComUpdates = E.Stats.ComUpdates;
      R.ComRecordsCommitted = E.Stats.ComRecordsCommitted;
      R.MisspecReason = E.Stats.FirstMisspecReason;
    }
    R.Status = JobStatus::Ok;
  } catch (const std::bad_alloc &) {
    Oom("out of memory (bad_alloc) during execution");
  } catch (const std::exception &E) {
    R.Status = JobStatus::InternalError;
    R.Error = E.what();
  }
  R.ExecSec = wallSeconds() - T0;

  std::fclose(Out);
  R.Output.assign(OutBuf, OutLen);
  std::free(OutBuf);
  return R;
}

int service::executiveMain(int ChanFd) {
  ::signal(SIGPIPE, SIG_IGN);
  LocalPrograms Programs;
  FrameAssembler Frames;
  std::vector<int> Fds;

  auto Reply = [&](const JobReply &R) {
    std::string Err;
    if (!writeFrame(ChanFd, MsgType::JobResult, encodeJobReply(R), Err))
      ::_exit(4); // channel gone mid-reply: let the daemon triage a corpse
  };

  while (true) {
    MsgType Type;
    std::string Body, Err;
    FrameAssembler::Result FR = Frames.next(Type, Body, Err);
    if (FR == FrameAssembler::Result::Malformed)
      return 2; // daemon channel is private; corruption is fatal
    if (FR == FrameAssembler::Result::NeedMore) {
      char Buf[64 << 10];
      bool Truncated = false;
      ssize_t N = recvWithFds(ChanFd, Buf, sizeof(Buf), Fds, Truncated);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return 0; // EOF: the daemon is draining the pool
      if (Truncated)
        return 2;
      Frames.feed(Buf, static_cast<size_t>(N));
      continue;
    }

    // The frame owns every descriptor that rode with it; at most the
    // first (the program image) is used.
    int ImgFd = Fds.empty() ? -1 : Fds.front();
    for (size_t I = 1; I < Fds.size(); ++I)
      ::close(Fds[I]);
    Fds.clear();
    ExecAssignment A;
    if (Type != MsgType::ExecAssign || !decodeExecAssign(Body, A, Err)) {
      if (ImgFd >= 0)
        ::close(ImgFd);
      return 2;
    }

    // Resolve the program: local cache hit, else deserialize the memfd
    // image that rode along.  The daemon always attaches the fd (a kernel
    // dup is cheaper than tracking which executive holds what), so a
    // cache hit just closes it.
    LocalPrograms::Key K{A.ProgramKey, A.Generation, A.UseParallel};
    const bytecode::BytecodeProgram *BP = Programs.find(K);
    if (BP) {
      if (ImgFd >= 0)
        ::close(ImgFd);
    } else {
      JobReply R;
      R.Status = JobStatus::InternalError;
      if (ImgFd < 0) {
        R.Error = "executive: assignment without a program image";
        Reply(R);
        continue;
      }
      auto Loaded = loadImage(ImgFd, Err);
      if (!Loaded) {
        R.Error = "executive: bad program image: " + Err;
        Reply(R);
        continue;
      }
      BP = Programs.insert(K, std::move(Loaded));
    }

    Reply(runJob(A.Req, A.Attempt, JobProgram{BP, nullptr}));
  }
}
