//===- service/Executive.h - Job executives and runJob ----------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every service job runs in an executive: a child of the daemon, in its
/// own process group, that answers with one JobResult frame on a private
/// socketpair.  The runtime maps its tagged heaps at fixed addresses and
/// installs a process-wide SIGSEGV handler, so a job never runs in the
/// daemon itself — but one function, runJob, runs every job.
///
/// Executives come in two lifetimes:
///
///  - Pooled.  Forked once at daemon startup, then loops in
///    executiveMain: it blocks for ExecAssign frames, each carrying the
///    execution knobs in-band and the program out-of-band — a serialized
///    bytecode image in a sealed memfd passed via SCM_RIGHTS.  Images are
///    cached per executive by (program key, generation), so a repeat
///    assignment skips even deserialization; execution brackets the
///    runtime's initialize/shutdown per job (the logical heaps map and
///    unmap cleanly, see runtime/SharedHeap).
///
///  - One-shot.  Forked per job at dispatch time for the jobs the pool
///    cannot take (interpreter engine, rlimits, declined lowering, or no
///    pool).  It inherits the daemon's cached module copy-on-write,
///    applies the job's rlimits, runs runJob once, writes its reply and
///    exits.
///
/// Either way the reply contract is the same: a clean JobResult frame for
/// every outcome runJob can express (including typed out-of-memory),
/// death for the outcomes it cannot — the daemon triages a dead executive
/// from its wait status, and replaces a pooled one.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_SERVICE_EXECUTIVE_H
#define PRIVATEER_SERVICE_EXECUTIVE_H

namespace privateer {
namespace bytecode {
struct BytecodeProgram;
} // namespace bytecode

namespace service {

struct CachedProgram;
struct JobReply;
struct JobRequest;

/// The program a job runs: exactly one of the two is set.
struct JobProgram {
  /// A self-contained lowered program (a pooled executive's deserialized
  /// image).
  const bytecode::BytecodeProgram *Image = nullptr;
  /// The daemon's cached module, analyses and assignment, with its
  /// prelowered programs (null where lowering declined).
  const CachedProgram *Cached = nullptr;
};

/// Runs one job attempt in the calling process: the request's fault
/// emulation (process-level faults kill or exit this process; typed
/// out-of-memory faults answer in-band), the JobRequest -> ParallelOptions
/// mapping, output capture, execution, and the mapping of exceptions to a
/// typed status.  \p Attempt is the daemon's retry ordinal.  The daemon
/// fills in the queue/wall timings, cache flag and pipeline cost.
JobReply runJob(const JobRequest &Req, unsigned Attempt,
                const JobProgram &Prog);

/// Runs the pooled executive loop on \p ChanFd (the child end of the
/// daemon's socketpair) until EOF.  Returns the process exit code (0 on a
/// clean channel close — the daemon is draining).
int executiveMain(int ChanFd);

} // namespace service
} // namespace privateer

#endif // PRIVATEER_SERVICE_EXECUTIVE_H
