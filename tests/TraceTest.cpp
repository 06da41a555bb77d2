//===- tests/TraceTest.cpp - Runtime tracing tests ------------------------===//
//
// Unit tests for the SPSC trace ring (overflow accounting, wraparound,
// no-tearing under a concurrent producer) and an end-to-end smoke test
// that traces a speculative parallel run of the reduction workload and
// checks the emitted Chrome-trace JSON is loadable and contains the
// kinds of events a timeline is useless without.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "runtime/Privateer.h"
#include "support/Statistics.h"
#include "transform/Pipeline.h"
#include "workloads/IrPrograms.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/wait.h>

using namespace privateer;

namespace {

// Self-consistent payload so a consumer can detect a torn record: every
// field is a fixed function of the sequence number.
trace::Event sealedEvent(uint64_t Seq) {
  return trace::makeEvent(trace::Kind::Heartbeat, 3, /*TimeNs=*/Seq,
                          /*A=*/Seq * 0x9E3779B97F4A7C15ULL,
                          /*B=*/Seq ^ 0xDEADBEEFCAFEF00DULL,
                          /*Arg=*/static_cast<uint32_t>(Seq * 2654435761u));
}

::testing::AssertionResult eventIsSealed(const trace::Event &E) {
  uint64_t Seq = E.TimeNs;
  if (E.A != Seq * 0x9E3779B97F4A7C15ULL)
    return ::testing::AssertionFailure() << "torn A at seq " << Seq;
  if (E.B != (Seq ^ 0xDEADBEEFCAFEF00DULL))
    return ::testing::AssertionFailure() << "torn B at seq " << Seq;
  if (E.Arg != static_cast<uint32_t>(Seq * 2654435761u))
    return ::testing::AssertionFailure() << "torn Arg at seq " << Seq;
  if (E.KindCode != static_cast<uint16_t>(trace::Kind::Heartbeat) ||
      E.Worker != 3)
    return ::testing::AssertionFailure() << "torn kind/worker at seq " << Seq;
  return ::testing::AssertionSuccess();
}

TEST(TraceRing, OverflowCountsDropsWithoutCorruptingEarlierEvents) {
  auto R = std::make_unique<trace::Ring>(); // 64 KiB: keep off the stack.
  // Fill to capacity: every push lands.
  for (uint64_t I = 0; I < trace::kRingCapacity; ++I)
    ASSERT_TRUE(R->push(sealedEvent(I))) << I;
  EXPECT_EQ(R->size(), trace::kRingCapacity);
  EXPECT_EQ(R->dropped(), 0u);

  // 100 more: all dropped, counted, and the resident events untouched.
  for (uint64_t I = 0; I < 100; ++I)
    EXPECT_FALSE(R->push(sealedEvent(trace::kRingCapacity + I)));
  EXPECT_EQ(R->dropped(), 100u);
  EXPECT_EQ(R->size(), trace::kRingCapacity);

  uint64_t Next = 0;
  uint32_t Seen = R->drain([&](const trace::Event &E) {
    EXPECT_TRUE(eventIsSealed(E));
    EXPECT_EQ(E.TimeNs, Next) << "order violated or overflow overwrote";
    ++Next;
  });
  EXPECT_EQ(Seen, trace::kRingCapacity);
  EXPECT_EQ(R->size(), 0u);
  // The drop counter is cumulative; draining does not reset it.
  EXPECT_EQ(R->dropped(), 100u);
}

TEST(TraceRing, WrapAroundPreservesOrderAcrossManyCycles) {
  auto R = std::make_unique<trace::Ring>();
  uint64_t Pushed = 0, Expect = 0;
  // Push/drain in ragged batches for several multiples of the capacity so
  // the cursors wrap the index mask repeatedly.
  for (int Round = 0; Round < 23; ++Round) {
    uint64_t Batch = 1 + (100 + 997 * Round) % trace::kRingCapacity;
    for (uint64_t I = 0; I < Batch; ++I)
      ASSERT_TRUE(R->push(sealedEvent(Pushed++)));
    R->drain([&](const trace::Event &E) {
      ASSERT_TRUE(eventIsSealed(E));
      ASSERT_EQ(E.TimeNs, Expect);
      ++Expect;
    });
  }
  EXPECT_EQ(Expect, Pushed);
  EXPECT_EQ(R->dropped(), 0u);
}

TEST(TraceRing, ConcurrentProducerNeverTearsARecord) {
  // In production the producer is a forked process and the ring lives in
  // MAP_SHARED memory; a thread exercises the same acquire/release
  // protocol through genuinely concurrent memory accesses.
  auto R = std::make_unique<trace::Ring>();
  constexpr uint64_t kTotal = 200000;
  std::atomic<bool> Done{false};

  std::thread Producer([&] {
    for (uint64_t I = 0; I < kTotal; ++I)
      R->push(sealedEvent(I)); // Overflow drops are fine; tearing is not.
    Done.store(true, std::memory_order_release);
  });

  uint64_t Consumed = 0;
  uint64_t LastSeq = 0;
  bool First = true;
  auto Visit = [&](const trace::Event &E) {
    ASSERT_TRUE(eventIsSealed(E));
    if (!First)
      ASSERT_GT(E.TimeNs, LastSeq) << "sequence must strictly increase";
    First = false;
    LastSeq = E.TimeNs;
    ++Consumed;
  };
  while (!Done.load(std::memory_order_acquire))
    R->drain(Visit);
  R->drain(Visit); // Final sweep after the producer finished.

  Producer.join();
  EXPECT_EQ(Consumed + R->dropped(), kTotal);
  EXPECT_GT(Consumed, 0u);
}

// --- Collector + end-to-end traced run ----------------------------------

std::string readWholeFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Ss;
  Ss << In.rdbuf();
  return Ss.str();
}

std::string readAll(std::FILE *F) {
  std::string Out;
  std::rewind(F);
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  return Out;
}

bool haveCommand(const char *Probe) {
  int Rc = std::system(Probe);
  return Rc != -1 && WIFEXITED(Rc) && WEXITSTATUS(Rc) == 0;
}

TEST(TraceCollector, FlushWritesValidJsonWithSpansAndInstants) {
  trace::Collector &Tc = trace::Collector::instance();
  std::string Path = ::testing::TempDir() + "privateer-collector-unit.json";
  Tc.enable(Path);
  Tc.reset();

  // One span, one instant, one note needing JSON escaping.
  Tc.record(trace::Kind::Epoch, 0, 2000, /*A=start*/ 1000, 7, 2);
  Tc.record(trace::Kind::Misspec, 2, 1500, 42, 1,
            (uint32_t)trace::Reason::Injected, "quote \" slash \\ tab \t");
  EXPECT_EQ(Tc.eventCount(), 2u);

  std::string Err;
  ASSERT_TRUE(Tc.flush(Err)) << Err;
  Tc.enable(std::string()); // Disarm before other tests run.

  std::string Json = readWholeFile(Path);
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"epoch\""), std::string::npos);
  EXPECT_NE(Json.find("\"misspec\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos); // Epoch span.
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos); // Misspec instant.
  EXPECT_NE(Json.find("injected"), std::string::npos);     // Reason name.
  EXPECT_NE(Json.find("\\\""), std::string::npos);         // Escaped quote.
  EXPECT_NE(Json.find("\\t"), std::string::npos);          // Escaped tab.

  if (haveCommand("python3 -c '' > /dev/null 2>&1")) {
    std::string Cmd = "python3 -m json.tool < " + Path + " > /dev/null";
    int Rc = std::system(Cmd.c_str());
    EXPECT_TRUE(WIFEXITED(Rc) && WEXITSTATUS(Rc) == 0)
        << "python3 -m json.tool rejected " << Path;
  }
  std::remove(Path.c_str());
}

TEST(TraceSmoke, TracedParallelRunEmitsLoadableTimeline) {
  // Trace a speculative run of the reduction workload — long enough to
  // produce checkpoints and commits — with deterministic misspeculation
  // injection so the timeline has every load-bearing event kind.
  std::string TracePath = ::testing::TempDir() + "privateer-trace-smoke.json";
  std::remove(TracePath.c_str());

  std::string Text = reductionSumIrText(1000);
  std::string Err;

  // Reference output from plain sequential interpretation.
  std::string Expected;
  {
    auto M = ir::parseModule(Text, Err);
    ASSERT_NE(M, nullptr) << Err;
    std::FILE *Out = std::tmpfile();
    transform::executeSequential(*M, transform::PipelineOptions(), Out);
    Expected = readAll(Out);
    std::fclose(Out);
  }

  auto M = ir::parseModule(Text, Err);
  ASSERT_NE(M, nullptr) << Err;
  ASSERT_TRUE(ir::verifyModule(*M).empty());
  analysis::FunctionAnalyses FA(*M);
  transform::PipelineOptions Opt;
  std::FILE *TrainSink = std::tmpfile();
  Runtime::get().setSequentialOutput(TrainSink);
  transform::PipelineResult R = transform::runPrivateerPipeline(*M, FA, Opt);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(TrainSink);
  ASSERT_TRUE(R.Transformed) << (R.Log.empty() ? "" : R.Log.back());

  ParallelOptions Par;
  Par.NumWorkers = 4;
  Par.CheckpointPeriod = 16;
  Par.InjectMisspecRate = 0.01;
  Par.InjectSeed = 7;
  Par.TracePath = TracePath;

  std::FILE *Out = std::tmpfile();
  transform::ExecutionResult E = transform::executePrivatized(
      *M, FA, R.Assignment, Opt, Par, RuntimeConfig(), Out);
  std::string Got = readAll(Out);
  std::fclose(Out);

  // Tracing must not perturb results.
  EXPECT_EQ(Got, Expected);
  ASSERT_GT(E.Stats.Misspecs, 0u)
      << "injection produced no misspec; the timeline check below would "
         "be vacuous";
  ASSERT_GT(E.Stats.Checkpoints, 0u);

  std::string Json = readWholeFile(TracePath);
  ASSERT_FALSE(Json.empty()) << "trace file missing: " << TracePath;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"displayTimeUnit\""), std::string::npos);
  // The timeline is useless without these; assert each kind appears.
  EXPECT_NE(Json.find("\"epoch\""), std::string::npos);
  EXPECT_NE(Json.find("\"slot_merge\""), std::string::npos);
  EXPECT_NE(Json.find("\"commit_"), std::string::npos);
  EXPECT_NE(Json.find("\"misspec\""), std::string::npos);
  EXPECT_NE(Json.find("\"worker_fork\""), std::string::npos);
  EXPECT_NE(Json.find("\"invocation\""), std::string::npos);
  // Process-name metadata rows for the main process and worker 0.
  EXPECT_NE(Json.find("main (commit pump)"), std::string::npos);
  EXPECT_NE(Json.find("worker 0"), std::string::npos);

  // Aggregate counts mirrored into the statistic registry.
  StatisticRegistry &Sr = StatisticRegistry::instance();
  EXPECT_GT(Sr.counter("trace", "epoch"), 0u);
  EXPECT_GT(Sr.counter("trace", "slot_merge"), 0u);
  EXPECT_GT(Sr.counter("trace", "misspec"), 0u);

  if (haveCommand("python3 -c '' > /dev/null 2>&1")) {
    std::string Cmd = "python3 -m json.tool < " + TracePath + " > /dev/null";
    int Rc = std::system(Cmd.c_str());
    EXPECT_TRUE(WIFEXITED(Rc) && WEXITSTATUS(Rc) == 0)
        << "python3 -m json.tool rejected " << TracePath;
  }

  trace::Collector::instance().enable(std::string()); // Disarm.
  std::remove(TracePath.c_str());
}

TEST(TraceSmoke, UntracedRunRecordsNoTimeline) {
  trace::Collector &Tc = trace::Collector::instance();
  Tc.enable(std::string());
  Tc.reset();
  std::string Text = reductionSumIrText(200);
  std::string Err;
  auto M = ir::parseModule(Text, Err);
  ASSERT_NE(M, nullptr) << Err;
  analysis::FunctionAnalyses FA(*M);
  transform::PipelineOptions Opt;
  std::FILE *TrainSink = std::tmpfile();
  Runtime::get().setSequentialOutput(TrainSink);
  transform::PipelineResult R = transform::runPrivateerPipeline(*M, FA, Opt);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(TrainSink);
  ASSERT_TRUE(R.Transformed);

  ParallelOptions Par;
  Par.NumWorkers = 2;
  Par.CheckpointPeriod = 16; // TracePath left empty: tracing fully off.
  std::FILE *Out = std::tmpfile();
  transform::executePrivatized(*M, FA, R.Assignment, Opt, Par,
                               RuntimeConfig(), Out);
  std::fclose(Out);

  EXPECT_FALSE(Tc.enabled());
  EXPECT_EQ(Tc.eventCount(), 0u);
}

/// One timeline event as serialized by trace::Collector::flush.
struct TimelineEvent {
  std::string Name;
  unsigned Row = 0;
  double Ts = 0, Dur = 0;
};

/// Parses the one-event-per-line JSON the collector writes.
std::vector<TimelineEvent> parseTimeline(const std::string &Json) {
  std::vector<TimelineEvent> Events;
  std::istringstream In(Json);
  std::string Line;
  auto Field = [&](const char *Key) -> const char * {
    size_t At = Line.find(Key);
    return At == std::string::npos ? nullptr
                                   : Line.c_str() + At + std::strlen(Key);
  };
  while (std::getline(In, Line)) {
    const char *Name = Field("\"name\":\"");
    const char *Pid = Field("\"pid\":");
    const char *Ts = Field("\"ts\":");
    if (!Name || !Pid || !Ts)
      continue;
    TimelineEvent E;
    E.Name.assign(Name, std::strchr(Name, '"'));
    E.Row = static_cast<unsigned>(std::strtoul(Pid, nullptr, 10));
    E.Ts = std::strtod(Ts, nullptr);
    if (const char *Dur = Field("\"dur\":"))
      E.Dur = std::strtod(Dur, nullptr);
    Events.push_back(E);
  }
  return Events;
}

TEST(TraceSmoke, EveryEpochReusesTheInvocationRings) {
  // The rings are mapped once per invocation and drained empty at every
  // join, so each epoch's workers must land their events on their own
  // rows, none lost, however many epochs share the rings.
  std::string TracePath =
      ::testing::TempDir() + "privateer-trace-epochs.json";
  std::remove(TracePath.c_str());

  RuntimeConfig C;
  C.PrivateBytes = 1u << 20;
  C.ReadOnlyBytes = 1u << 16;
  C.ReduxBytes = 1u << 16;
  C.ShortLivedBytes = 1u << 16;
  C.UnrestrictedBytes = 1u << 16;
  Runtime::get().initialize(C);

  constexpr uint64_t N = 32;
  auto *Out =
      static_cast<long *>(h_alloc(N * sizeof(long), HeapKind::Private));
  ParallelOptions Par;
  Par.NumWorkers = 2;
  Par.CheckpointPeriod = 8;
  Par.MaxSlotsPerEpoch = 1; // One period per epoch: 4 epochs.
  Par.TracePath = TracePath;
  InvocationStats S = Runtime::get().runParallel(N, Par, [Out](uint64_t I) {
    private_write(&Out[I], sizeof(long));
    Out[I] = static_cast<long>(I * 3);
  });
  EXPECT_EQ(S.Misspecs, 0u) << S.FirstMisspecReason;
  ASSERT_GE(S.Epochs, 3u);
  for (uint64_t I = 0; I < N; ++I)
    ASSERT_EQ(Out[I], static_cast<long>(I * 3)) << "iteration " << I;
  EXPECT_EQ(trace::Collector::instance().droppedTotal(), 0u);

  std::string Json = readWholeFile(TracePath);
  ASSERT_FALSE(Json.empty()) << "trace file missing: " << TracePath;
  EXPECT_NE(Json.find("\"dropped_events\":0}"), std::string::npos);
  std::vector<TimelineEvent> Events = parseTimeline(Json);
  unsigned Epochs = 0;
  for (const TimelineEvent &Ep : Events) {
    if (Ep.Name != "epoch")
      continue;
    ++Epochs;
    for (unsigned Row : {1u, 2u}) {
      bool Began = false;
      for (const TimelineEvent &E : Events)
        Began |= E.Name == "worker_begin" && E.Row == Row &&
                 E.Ts >= Ep.Ts && E.Ts <= Ep.Ts + Ep.Dur;
      EXPECT_TRUE(Began) << "no worker_begin on row " << Row
                         << " in the epoch at " << Ep.Ts << " us";
    }
  }
  EXPECT_EQ(Epochs, S.Epochs);

  trace::Collector::instance().enable(std::string()); // Disarm.
  Runtime::get().shutdown();
  std::remove(TracePath.c_str());
}

TEST(TraceSmoke, DoacrossRunEmitsDepPostEvents) {
  // A traced DOACROSS chain must land dep_post instants on the timeline
  // (one per token a worker publishes), so token hand-offs are visible
  // per worker row.
  std::string TracePath =
      ::testing::TempDir() + "privateer-trace-doacross.json";
  std::remove(TracePath.c_str());

  RuntimeConfig C;
  C.PrivateBytes = 1u << 20;
  C.ReadOnlyBytes = 1u << 16;
  C.ReduxBytes = 1u << 16;
  C.ShortLivedBytes = 1u << 16;
  C.UnrestrictedBytes = 1u << 16;
  Runtime::get().initialize(C);

  constexpr uint64_t N = 128;
  auto *Out =
      static_cast<long *>(h_alloc(N * sizeof(long), HeapKind::Private));
  ParallelOptions Par;
  Par.NumWorkers = 3;
  Par.CheckpointPeriod = 8;
  Par.Strat = Strategy::Doacross;
  Par.NumDepChannels = 1;
  Par.TracePath = TracePath;
  // Distance-1 chain: iteration I folds I-1's token into its own value.
  auto step = [](uint64_t Prev, uint64_t I) { return Prev * 5 + I + 3; };
  StatisticRegistry &Sr = StatisticRegistry::instance();
  uint64_t PostsBefore = Sr.counter("trace", "dep_post");
  InvocationStats S = Runtime::get().runParallel(N, Par, [&](uint64_t I) {
    uint64_t Prev = I == 0 ? 0 : Runtime::get().waitDep(I - 1, 0);
    uint64_t V = step(Prev, I);
    private_write(&Out[I], sizeof(long));
    Out[I] = static_cast<long>(V);
    Runtime::get().postDep(I, 0, V);
  });
  EXPECT_EQ(S.Misspecs, 0u) << S.FirstMisspecReason;
  EXPECT_GE(S.DepPosts, N);
  uint64_t Prev = 0;
  for (uint64_t I = 0; I < N; ++I) {
    Prev = step(Prev, I);
    ASSERT_EQ(Out[I], static_cast<long>(Prev)) << "iteration " << I;
  }

  std::string Json = readWholeFile(TracePath);
  ASSERT_FALSE(Json.empty()) << "trace file missing: " << TracePath;
  EXPECT_NE(Json.find("\"dep_post\""), std::string::npos);
  EXPECT_GT(Sr.counter("trace", "dep_post"), PostsBefore);

  trace::Collector::instance().enable(std::string()); // Disarm.
  Runtime::get().shutdown();
  std::remove(TracePath.c_str());
}

} // namespace
