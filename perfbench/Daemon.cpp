//===- perfbench/Daemon.cpp - daemon_mix: a closed loop against the daemon ===//
//
// The daemon is Server::serve in a forked child with nproc/2 executives;
// nproc/2 client threads, one connection each, submit jobs at W = 2 and
// wait for each reply before sending the next.  Every 32 jobs of a client
// hold, in seeded order, 27 warm pooled hits, 4 warm jobs with a per-job
// MaxMemoryBytes (the supervisor-fork path) and 1 cold job whose text is
// salted per job, so it misses the cache.  A one-second loop of the same
// mix, unmeasured but checked, runs before the measured one.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Stats.h"

#include "service/Client.h"
#include "service/Server.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace privateer;
using namespace privateer::service;
using namespace perfbench;

namespace {

/// Per-job address-space ceiling of the supervisor-path jobs: far above
/// what the programs use, so the limit routes the job without failing it.
constexpr uint64_t kSupervisorMemBytes = 8ULL << 30;

/// Length of the unmeasured closed loop that precedes the measured one.
constexpr double kWarmupSec = 1.0;

enum class Kind { Pooled, Supervisor, Cold };

const char *kindName(Kind K) {
  switch (K) {
  case Kind::Pooled:
    return "warm-pooled";
  case Kind::Supervisor:
    return "warm-supervisor";
  case Kind::Cold:
    return "cold";
  }
  return "?";
}

/// A forked Server::serve; stopped (and reaped) on destruction.
class DaemonProc {
public:
  DaemonProc() = default;
  DaemonProc(const DaemonProc &) = delete;
  DaemonProc &operator=(const DaemonProc &) = delete;
  ~DaemonProc() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
  }

  bool start(const std::string &Socket, unsigned Executives,
             std::string &Err) {
    ServerOptions Opts;
    Opts.SocketPath = Socket;
    Opts.Executives = Executives;
    Opts.QueueDepth = 64;
    std::fflush(nullptr);
    Pid = ::fork();
    if (Pid < 0) {
      Err = "fork failed";
      return false;
    }
    if (Pid == 0)
      ::_exit(Server::serve(Opts));
    return true;
  }

  /// Asks the daemon to shut down and reaps it; \p PeakRssMb gets the
  /// largest resident set in its process tree and \p CpuSec the CPU time
  /// the whole tree used over the daemon's life.
  bool stop(const std::string &Socket, double &PeakRssMb, double &CpuSec,
            std::string &Err) {
    Client C;
    C.Retry.Enabled = false;
    if (!C.connect(Socket, Err) || !C.shutdownServer(Err))
      return false;
    int Status = 0;
    rusage U{};
    if (::wait4(Pid, &Status, 0, &U) != Pid) {
      Err = "wait4 on the daemon failed";
      return false;
    }
    Pid = -1;
    PeakRssMb = static_cast<double>(U.ru_maxrss) / 1024.0;
    CpuSec = cpuSec(U);
    if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
      Err = "daemon exited uncleanly";
      return false;
    }
    return true;
  }

private:
  pid_t Pid = -1;
};

struct JobRecord {
  Kind K = Kind::Pooled;
  size_t Program = 0;
  bool Ok = false;
  bool Traced = false;
  double ClientMs = 0;
  JobReply Reply;
  std::string Err; ///< why the job failed
};

/// Counters of the status JSON's "service" group.
struct ServiceCounters {
  double Hits = 0, Misses = 0, PoolDispatches = 0, SupervisorForks = 0,
         Rejected = 0, Retries = 0;
};

double counterIn(const std::string &Group, const char *Name) {
  std::string Pat = std::string("\"") + Name + "\": ";
  size_t At = Group.find(Pat);
  return At == std::string::npos
             ? 0
             : std::strtod(Group.c_str() + At + Pat.size(), nullptr);
}

bool serviceCounters(const std::string &Socket, ServiceCounters &Out,
                     std::string &Err) {
  Client C;
  std::string Json;
  if (!C.connect(Socket, Err) || !C.status(Json, Err))
    return false;
  size_t At = Json.find("\"service\": {");
  if (At == std::string::npos) {
    Err = "status reply has no service counters";
    return false;
  }
  std::string Group = Json.substr(At, Json.find('}', At) - At);
  Out.Hits = counterIn(Group, "cache_hits");
  Out.Misses = counterIn(Group, "cache_misses");
  Out.PoolDispatches = counterIn(Group, "pool_dispatches");
  Out.SupervisorForks = counterIn(Group, "supervisor_forks");
  Out.Rejected = counterIn(Group, "jobs_rejected");
  Out.Retries = counterIn(Group, "retries");
  return true;
}

struct DaemonBench {
  const Options &O;
  Report &Rep;
  std::vector<ProgramSpec> Ps;
  std::vector<std::string> Expected, WarmText;
  std::vector<std::vector<double>> CompileMs; ///< per program, cache misses
  std::string Socket;
  unsigned Half;

  DaemonBench(const Options &O, Report &Rep)
      : O(O), Rep(Rep), Ps(programsFor(O.Workload)),
        Half(std::max(1u, cpuCount() / 2)) {
    Socket = O.WorkDir + "/daemon.sock";
    CompileMs.resize(Ps.size());
  }

  JobRequest request(size_t I, Kind K, uint64_t Job) const {
    JobRequest Req;
    Req.ModuleText = K == Kind::Cold ? salted(Ps[I], O.Seed, Job) : WarmText[I];
    Req.Mode = JobMode::Speculative;
    Req.Strat = static_cast<uint8_t>(Ps[I].Strat);
    Req.NumWorkers = 2;
    if (K == Kind::Supervisor)
      Req.MaxMemoryBytes = kSupervisorMemBytes;
    return Req;
  }

  /// Submits one job and checks its reply against the oracle.  Safe to
  /// call from several client threads at once.
  bool submit(Client &C, JobRecord &J, uint64_t Job, SpanLog &Log) const {
    JobRequest Req = request(J.Program, J.K, Job);
    std::string &Err = J.Err;
    double T0 = nowSec();
    int JobSpan = Log.open("job", -1, Job);
    int SubmitSpan = Log.open("service.submit", JobSpan, Job);
    bool Sent = C.submit(Req, J.Reply, Err, 120);
    Log.close(SubmitSpan);
    int CheckSpan = Log.open("check", JobSpan, Job);
    J.Ok = Sent && J.Reply.Status == JobStatus::Ok &&
           J.Reply.Output == Expected[J.Program];
    Log.close(CheckSpan);
    Log.close(JobSpan);
    J.ClientMs = (nowSec() - T0) * 1e3;
    if (!Sent)
      Err = "submit: " + Err;
    else if (J.Reply.Status != JobStatus::Ok)
      Err = std::string(jobStatusName(J.Reply.Status)) + ": " +
            J.Reply.Error;
    else if (!J.Ok)
      Err = "reply output differs from the oracle";
    if (!J.Ok)
      Err = Ps[J.Program].Name + " (" + kindName(J.K) + "): " + Err;
    return J.Ok;
  }

  /// Starts a daemon and warms its cache with every program once.
  bool setUp(DaemonProc &D) {
    std::string Err;
    if (!D.start(Socket, Half, Err)) {
      Rep.fail(Err);
      return false;
    }
    Client C;
    if (!C.connect(Socket, Err, 30)) {
      Rep.fail("daemon did not come up: " + Err);
      return false;
    }
    SpanLog Off(false);
    for (size_t I = 0; I < Ps.size(); ++I) {
      JobRecord J;
      J.Program = I;
      ++Rep.Attempted;
      if (!submit(C, J, 0, Off)) {
        Rep.fail(J.Err);
        return false;
      }
      CompileMs[I].push_back(J.Reply.PipelineSec * 1e3);
    }
    return true;
  }

  /// The closed loop: one client thread per connection for \p Seconds.
  /// Every job is checked and counted; the jobs are returned, and
  /// \p LoopSec gets the loop's wall time.  \p Pass keeps the job ids and
  /// the seeded order of each loop apart.
  std::vector<JobRecord> closedLoop(unsigned Pass, double Seconds,
                                    std::vector<SpanLog> &Logs,
                                    double &LoopSec) {
    std::vector<std::vector<JobRecord>> PerThread(Half);
    double Start = nowSec();
    double Deadline = Start + Seconds;
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < Half; ++T)
      Threads.emplace_back([&, T] {
        Client C;
        JobRecord Conn;
        if (!C.connect(Socket, Conn.Err)) {
          PerThread[T].push_back(std::move(Conn));
          return;
        }
        uint64_t Stream = static_cast<uint64_t>(Pass) * Half + T;
        Rng R(O.Seed * 1000003 + Stream);
        std::vector<Kind> Slots(32, Kind::Pooled);
        Slots[0] = Kind::Cold;
        for (int S = 1; S <= 4; ++S)
          Slots[S] = Kind::Supervisor;
        std::vector<size_t> Order(Ps.size());
        for (size_t I = 0; I < Order.size(); ++I)
          Order[I] = I;
        SpanLog Off(false);
        for (uint64_t N = 0; nowSec() < Deadline; ++N) {
          if (N % Slots.size() == 0)
            R.shuffle(Slots);
          if (N % Order.size() == 0)
            R.shuffle(Order);
          JobRecord J;
          J.K = Slots[N % Slots.size()];
          J.Program = Order[N % Order.size()];
          J.Traced = Logs[T].enabled() && N % 2 == 0;
          uint64_t Job = (Stream + 1) << 40 | (N + 1);
          bool Ok = submit(C, J, Job, J.Traced ? Logs[T] : Off);
          PerThread[T].push_back(std::move(J));
          if (!Ok)
            break; // a failing daemon would stall every later submit
        }
      });
    for (std::thread &T : Threads)
      T.join();
    LoopSec = nowSec() - Start;

    std::vector<JobRecord> Jobs;
    for (auto &V : PerThread)
      for (JobRecord &J : V)
        Jobs.push_back(std::move(J));
    Rep.Attempted += Jobs.size();
    for (const JobRecord &J : Jobs)
      if (!J.Ok)
        Rep.fail(J.Err);
    return Jobs;
  }

  void run();
};

void DaemonBench::run() {
  Expected.resize(Ps.size());
  for (size_t I = 0; I < Ps.size(); ++I) {
    std::string Err;
    if (!oracleOutput(Ps[I], Expected[I], Err)) {
      ++Rep.Attempted;
      Rep.fail(Ps[I].Name + ": oracle: " + Err);
      return;
    }
    WarmText.push_back(salted(Ps[I], O.Seed, 0));
  }

  // Set-up, repeated: daemon start, executive pre-fork, cache warm-up.
  // Every repetition but the last is shut down again.  The CPU time of the
  // client threads is counted from the start of the daemon that stays.
  std::vector<double> SetupS;
  std::unique_ptr<DaemonProc> D;
  rusage Self{};
  double ClientCpu0 = 0;
  for (int Round = 0; Round < kSetupRounds; ++Round) {
    if (D) {
      double IgnoredRss = 0, IgnoredCpu = 0;
      std::string Err;
      if (!D->stop(Socket, IgnoredRss, IgnoredCpu, Err)) {
        Rep.fail(Err);
        return;
      }
    }
    D = std::make_unique<DaemonProc>();
    getrusage(RUSAGE_SELF, &Self);
    ClientCpu0 = cpuSec(Self);
    double T0 = nowSec();
    if (!setUp(*D))
      return;
    SetupS.push_back(nowSec() - T0);
  }

  // An unmeasured warm-up loop first, so that every executive has loaded
  // every program and served both warm paths before the measured loop.
  std::vector<SpanLog> Logs, NoLogs;
  for (unsigned T = 0; T < Half; ++T) {
    Logs.emplace_back(O.Trace);
    NoLogs.emplace_back(false);
  }
  double MeasuredSec = 0;
  size_t Served =
      Ps.size() + closedLoop(0, kWarmupSec, NoLogs, MeasuredSec).size();
  if (Rep.Failed)
    return;
  ServiceCounters Before, After;
  std::string Err;
  if (!serviceCounters(Socket, Before, Err)) {
    Rep.fail(Err);
    return;
  }
  std::vector<JobRecord> Jobs = closedLoop(1, O.Seconds, Logs, MeasuredSec);
  Served += Jobs.size();

  if (!serviceCounters(Socket, After, Err))
    Rep.fail(Err);
  getrusage(RUSAGE_SELF, &Self);
  double ClientCpuSec = cpuSec(Self) - ClientCpu0;
  double PeakRssMb = 0, DaemonCpuSec = 0;
  if (!D->stop(Socket, PeakRssMb, DaemonCpuSec, Err))
    Rep.fail(Err);

  std::vector<double> All, Warm, Cold, Supervisor;
  std::vector<std::vector<double>> PerProgram(Ps.size()),
      ExecMs(Ps.size());
  std::vector<double> Queue, Exec, Pipe, DaemonWall, ClientSide;
  LayerSums L;
  double TracedMs = 0, UntracedMs = 0;
  uint64_t TracedN = 0, UntracedN = 0;
  for (const JobRecord &J : Jobs) {
    if (!J.Ok)
      continue;
    const JobReply &R = J.Reply;
    All.push_back(J.ClientMs);
    PerProgram[J.Program].push_back(J.ClientMs);
    (J.K == Kind::Cold ? Cold : Warm).push_back(J.ClientMs);
    if (J.K == Kind::Supervisor)
      Supervisor.push_back(J.ClientMs);
    if (J.K == Kind::Pooled)
      ExecMs[J.Program].push_back(R.ExecSec * 1e3);
    if (!R.CacheHit)
      CompileMs[J.Program].push_back(R.PipelineSec * 1e3);
    Queue.push_back(R.QueueSec * 1e3);
    Exec.push_back(R.ExecSec * 1e3);
    if (!R.CacheHit)
      Pipe.push_back(R.PipelineSec * 1e3);
    DaemonWall.push_back(R.WallSec * 1e3);
    ClientSide.push_back(J.ClientMs - R.WallSec * 1e3);
    L.add("runtime.iterations", static_cast<double>(R.Iterations));
    L.add("runtime.checkpoints", static_cast<double>(R.Checkpoints));
    L.add("runtime.misspecs", static_cast<double>(R.Misspecs));
    L.add("runtime.recovered_iters",
          static_cast<double>(R.RecoveredIterations));
    L.add("runtime.com_updates", static_cast<double>(R.ComUpdates));
    if (R.Iterations)
      L.add("runtime.useful_ratio",
            1.0 - static_cast<double>(R.RecoveredIterations) /
                      static_cast<double>(R.Iterations));
    if (J.K == Kind::Pooled) {
      (J.Traced ? TracedMs : UntracedMs) += J.ClientMs;
      ++(J.Traced ? TracedN : UntracedN);
    }
  }

  std::vector<double> ProgE2e, ProgCompile, ProgRun;
  Rep.row("%-16s %5s %11s %10s %10s", "program", "jobs", "compile_ms",
          "run_ms", "e2e_ms");
  for (size_t I = 0; I < Ps.size(); ++I) {
    double C = median(CompileMs[I]), Ru = median(ExecMs[I]),
           E = median(PerProgram[I]);
    Rep.row("%-16s %5zu %11.3f %10.3f %10.3f", Ps[I].Name.c_str(),
            PerProgram[I].size(), C, Ru, E);
    ProgCompile.push_back(C);
    ProgRun.push_back(Ru);
    ProgE2e.push_back(E);
  }
  Rep.row("e2e_ms.p50 = %.3f ms over all jobs", median(All));
  Rep.row("e2e_ms.gm = %.3f ms, jobs_per_s = %.3f", geomean(ProgE2e),
          static_cast<double>(All.size()) / MeasuredSec);
  double CpuMs = (DaemonCpuSec + ClientCpuSec) * 1e3 /
                 static_cast<double>(Served);
  Rep.row("cpu_ms per job = %.3f ms (daemon tree %.1f s + client %.1f s "
          "over %zu jobs)",
          CpuMs, DaemonCpuSec, ClientCpuSec, Served);
  Rep.row("compile_ms.gm = %.3f ms (daemon PipelineSec of cache misses)",
          geomean(ProgCompile));
  Rep.row("run_ms.gm = %.3f ms (daemon ExecSec of pooled warm jobs)",
          geomean(ProgRun));
  Tail WarmTail = highestResolvedPercentile(Warm);
  Rep.row("warm_job_ms.p50 = %.3f ms (%zu jobs)", median(Warm), Warm.size());
  Rep.row("warm_job_ms.p%g = %.3f ms (%zu of %zu samples beyond)",
          WarmTail.Pct, WarmTail.Value, WarmTail.Beyond, WarmTail.Count);
  Rep.row("cold_job_ms.p50 = %.3f ms (%zu jobs)", median(Cold), Cold.size());
  Rep.row("supervisor-path warm_job_ms.p50 = %.3f ms (%zu jobs)",
          median(Supervisor), Supervisor.size());

  if (!O.Trace) {
    Rep.metric("setup_s", median(SetupS));
    Rep.metric("cpu_ms.gm", CpuMs);
    Rep.metric("peak_rss_mb", PeakRssMb);
    return;
  }

  // The compile layers and the runtime's internals run inside the daemon,
  // out of the benchmark's reach: they read -1 here, as do the layers
  // LayerSums never saw.
  for (const MetricDef &Def : perLayerMetrics())
    Rep.metric(Def.Name, L.mean(Def.Name));
  Rep.metric("service.queue_ms.p50", median(Queue));
  Rep.metric("service.exec_ms.p50", median(Exec));
  Rep.metric("service.pipeline_ms.p50", Pipe.empty() ? -1 : median(Pipe));
  Rep.metric("service.daemon_wall_ms.p50", median(DaemonWall));
  Rep.metric("service.client_ms.p50", median(ClientSide));
  Rep.metric("service.supervisor_job_ms.p50",
             Supervisor.empty() ? -1 : median(Supervisor));
  double Lookups = (After.Hits - Before.Hits) + (After.Misses - Before.Misses);
  Rep.metric("service.cache_hit_ratio",
             Lookups > 0 ? (After.Hits - Before.Hits) / Lookups : -1);
  Rep.metric("service.pool_dispatches",
             After.PoolDispatches - Before.PoolDispatches);
  Rep.metric("service.supervisor_forks",
             After.SupervisorForks - Before.SupervisorForks);
  Rep.metric("service.rejected", After.Rejected - Before.Rejected);
  Rep.metric("service.retries", After.Retries - Before.Retries);

  // Coverage: the share of each traced job that the submit and check
  // spans cover.
  Coverage Cov;
  for (const SpanLog &Log : Logs)
    Cov.add(Log.spans());
  Rep.metric("trace.coverage", Cov.share());
  Rep.metric("trace.overhead_pct",
             TracedN && UntracedN
                 ? ((TracedMs / TracedN) / (UntracedMs / UntracedN) - 1) * 100
                 : -1);
  for (unsigned T = 0; T < Logs.size(); ++T) {
    std::string Path =
        O.WorkDir + "/spans-client" + std::to_string(T) + ".json";
    if (!Logs[T].writeChromeJson(Path, Err))
      Rep.fail(Err);
  }
}

} // namespace

void perfbench::runDaemonWorkload(const Options &O, Report &Rep) {
  DaemonBench B(O, Rep);
  B.run();
}
