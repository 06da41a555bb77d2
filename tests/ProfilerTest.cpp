//===- tests/ProfilerTest.cpp - §4.1 profiler tests -----------------------===//

#include "ProfileHostsUtil.h"
#include "ir/IRParser.h"
#include "profiling/ProfileCollector.h"
#include "profiling/TrainingRun.h"
#include "workloads/IrPrograms.h"

#include <gtest/gtest.h>

using namespace privateer;
using namespace privateer::analysis;
using namespace privateer::ir;
using namespace privateer::profiling;

namespace {

struct Profiled {
  std::unique_ptr<Module> M;
  std::unique_ptr<FunctionAnalyses> FA;
  Profile P;
};

Profiled profileText(const std::string &Text,
                     const std::string &Entry = "main") {
  Profiled Out;
  std::string Err;
  Out.M = parseModule(Text, Err);
  EXPECT_NE(Out.M, nullptr) << Err;
  Out.FA = std::make_unique<FunctionAnalyses>(*Out.M);
  ProfileCollector Collector(*Out.FA);
  interp::PlainMemoryManager MM;
  interp::Interpreter I(*Out.M, MM, &Collector);
  I.initializeGlobals();
  std::FILE *Sink = std::tmpfile();
  Runtime::get().setSequentialOutput(Sink);
  I.run(Entry, {});
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(Sink);
  Out.P = Collector.finish();
  return Out;
}

const Loop *loopNamed(const FunctionAnalyses &FA, const Module &M,
                      const std::string &Fn, const std::string &Header) {
  const LoopInfo &LI = FA.loops(M.functionByName(Fn));
  for (const auto &L : LI.loops())
    if (L->header()->name() == Header)
      return L.get();
  return nullptr;
}

TEST(Profiler, PointerToObjectMapNamesGlobalsAndSites) {
  auto R = profileText(dijkstraIrText(8));
  // The relax-loop load of adj must map to the @adj global.
  Function *Hot = R.M->functionByName("hot_loop");
  const Instruction *AdjLoad = nullptr;
  for (const auto &I : Hot->blockByName("rbody")->instructions())
    if (I->opcode() == Opcode::Load && I->name() == "w")
      AdjLoad = I.get();
  ASSERT_NE(AdjLoad, nullptr);
  const auto &Objs = R.P.objectsAccessedBy(AdjLoad);
  ASSERT_EQ(Objs.size(), 1u);
  EXPECT_EQ(Objs.begin()->Global->name(), "adj");

  // The dequeue load of the node's vertex maps to the malloc site in
  // @enqueue — a dynamic object, not a global.
  Function *Deq = R.M->functionByName("dequeue");
  const Instruction *VxLoad = nullptr;
  for (const auto &I : Deq->blockByName("entry")->instructions())
    if (I->opcode() == Opcode::Load && I->name() == "v")
      VxLoad = I.get();
  ASSERT_NE(VxLoad, nullptr);
  const auto &NodeObjs = R.P.objectsAccessedBy(VxLoad);
  ASSERT_GE(NodeObjs.size(), 1u);
  for (const ObjectKey &K : NodeObjs) {
    EXPECT_EQ(K.Global, nullptr);
    ASSERT_NE(K.AllocSite, nullptr);
    EXPECT_EQ(K.AllocSite->parent()->parent()->name(), "enqueue");
  }
}

TEST(Profiler, DynamicContextsDistinguishCallSites) {
  // enqueue is called from two sites (seed and improve); its malloc
  // produces two distinct object names — "enqueueQ called at Line 60 or
  // enqueueQ called at Line 74" in the paper's example.
  auto R = profileText(dijkstraIrText(8));
  std::set<std::string> Contexts;
  for (const ObjectKey &K : R.P.allObjects())
    if (K.AllocSite)
      Contexts.insert(K.Context);
  EXPECT_EQ(Contexts.size(), 2u);
}

TEST(Profiler, ShortLivedNodesDetectedPerLoop) {
  auto R = profileText(dijkstraIrText(8));
  const Loop *Outer = loopNamed(*R.FA, *R.M, "hot_loop", "loop");
  ASSERT_NE(Outer, nullptr);
  unsigned ShortLived = 0;
  for (const ObjectKey &K : R.P.allObjects())
    if (K.AllocSite && R.P.isShortLived(K, Outer))
      ++ShortLived;
  EXPECT_EQ(ShortLived, 2u) << "both contexts' nodes die in-iteration";
  // Globals are never short-lived.
  ObjectKey QKey;
  QKey.Global = R.M->globalByName("Q");
  EXPECT_FALSE(R.P.isShortLived(QKey, Outer));
}

TEST(Profiler, CrossIterationFlowDepOnlyThroughQueueTail) {
  auto R = profileText(dijkstraIrText(8));
  const Loop *Outer = loopNamed(*R.FA, *R.M, "hot_loop", "loop");
  const auto &Deps = R.P.crossIterationFlowDeps(Outer);
  ASSERT_FALSE(Deps.empty())
      << "the tail pointer carries a real cross-iteration flow";
  // Every cross-iteration flow dep of the outer loop involves @Q only —
  // pathcost is always rewritten before it is read.
  for (const FlowDep &D : Deps) {
    const auto &Objs = R.P.objectsAccessedBy(D.Dst);
    for (const ObjectKey &K : Objs)
      EXPECT_TRUE(K.Global && K.Global->name() == "Q")
          << "unexpected dep through " << K.str();
  }
}

TEST(Profiler, TailLoadIsPredictablyNull) {
  auto R = profileText(dijkstraIrText(8));
  const Loop *Outer = loopNamed(*R.FA, *R.M, "hot_loop", "loop");
  Function *Enq = R.M->functionByName("enqueue");
  const Instruction *TailLoad = nullptr;
  for (const auto &I : Enq->blockByName("entry")->instructions())
    if (I->opcode() == Opcode::Load && I->name() == "tail")
      TailLoad = I.get();
  ASSERT_NE(TailLoad, nullptr);
  const PredictableLoad *PL = R.P.predictableFirstRead(TailLoad, Outer);
  ASSERT_NE(PL, nullptr) << "first tail read per iteration must predict";
  EXPECT_EQ(PL->Value, 0) << "queue predicted empty";
  uint64_t QBase = R.P.globalBase(R.M->globalByName("Q"));
  EXPECT_EQ(PL->Address, QBase + 8);
}

TEST(Profiler, LoopStatsCountInvocationsIterationsWeight) {
  auto R = profileText(dijkstraIrText(8));
  const Loop *Outer = loopNamed(*R.FA, *R.M, "hot_loop", "loop");
  LoopStats S = R.P.loopStats(Outer);
  EXPECT_EQ(S.Invocations, 1u);
  EXPECT_EQ(S.Iterations, 9u) << "8 body iterations + the exit test entry";
  EXPECT_GT(S.Weight, 100u);
  // The outer loop outweighs each inner loop.
  const Loop *Init = loopNamed(*R.FA, *R.M, "hot_loop", "initloop");
  EXPECT_GT(S.Weight, R.P.loopStats(Init).Weight);
  // init_adj's loops were invoked once, before the hot loop.
  const Loop *UL = loopNamed(*R.FA, *R.M, "init_adj", "uloop");
  EXPECT_EQ(R.P.loopStats(UL).Invocations, 1u);
}

TEST(Profiler, BranchBiasRecorded) {
  auto R = profileText(dijkstraIrText(8));
  // The outer-loop header branch is taken (stays in the loop) 8 of 9
  // times.
  Function *Hot = R.M->functionByName("hot_loop");
  const Instruction *HeaderBr =
      Hot->blockByName("loop")->terminator();
  double Ratio = R.P.branchTakenRatio(HeaderBr);
  EXPECT_NEAR(Ratio, 8.0 / 9.0, 1e-9);
  // An unexecuted branch reports -1.
  auto M2Text = std::string("define void @g(i64 %x) {\n"
                            "entry:\n"
                            "  %c = icmp lt, %x, 0\n"
                            "  condbr %c, a, b\n"
                            "a:\n"
                            "  ret\n"
                            "b:\n"
                            "  ret\n"
                            "}\n");
  std::string Err;
  auto M2 = parseModule(M2Text, Err);
  FunctionAnalyses FA2(*M2);
  ProfileCollector C2(FA2);
  Profile P2 = C2.finish();
  EXPECT_EQ(P2.branchTakenRatio(
                M2->functionByName("g")->blockByName("entry")->terminator()),
            -1.0);
}

TEST(Profiler, LeakedObjectIsNotShortLived) {
  const char *T = "define void @kernel(i64 %n) {\n"
                  "entry:\n"
                  "  br loop\n"
                  "loop:\n"
                  "  %i = phi [entry: 0], [latch: %inext]\n"
                  "  %c = icmp lt, %i, %n\n"
                  "  condbr %c, latch, exit\n"
                  "latch:\n"
                  "  %p = malloc 8\n"
                  "  store %i, %p, 8\n"
                  "  %inext = add %i, 1\n"
                  "  br loop\n"
                  "exit:\n"
                  "  ret\n"
                  "}\n"
                  "define i64 @main() {\n"
                  "entry:\n"
                  "  call @kernel(5)\n"
                  "  ret 0\n"
                  "}\n";
  auto R = profileText(T);
  const Loop *L = loopNamed(*R.FA, *R.M, "kernel", "loop");
  ASSERT_NE(L, nullptr);
  for (const ObjectKey &K : R.P.allObjects())
    if (K.AllocSite)
      EXPECT_FALSE(R.P.isShortLived(K, L)) << "leaked object misclassified";
}

// --- Collector fast paths and the bytecode training host -----------------

/// A loop whose body recurses: the same loop is active several times on
/// the stack, and each activation's lifetime verdicts see the outer ones.
const char *RecursiveLoopText = "global @g 8\n"
                                "define void @rec(i64 %d) {\n"
                                "entry:\n"
                                "  br loop\n"
                                "loop:\n"
                                "  %i = phi [entry: 0], [latch: %inext]\n"
                                "  %c = icmp lt, %i, 2\n"
                                "  condbr %c, body, exit\n"
                                "body:\n"
                                "  %n = malloc 8\n"
                                "  %v = load i64, @g, 8\n"
                                "  %v2 = add %v, 1\n"
                                "  store %v2, @g, 8\n"
                                "  store %v2, %n, 8\n"
                                "  %p = icmp gt, %d, 0\n"
                                "  condbr %p, recurse, latch\n"
                                "recurse:\n"
                                "  %d1 = sub %d, 1\n"
                                "  call @rec(%d1)\n"
                                "  br latch\n"
                                "latch:\n"
                                "  free %n\n"
                                "  %inext = add %i, 1\n"
                                "  br loop\n"
                                "exit:\n"
                                "  ret\n"
                                "}\n"
                                "define i64 @main() {\n"
                                "entry:\n"
                                "  call @rec(2)\n"
                                "  ret 0\n"
                                "}\n";

const Instruction *instAt(const Module &M, const std::string &Fn,
                          const std::string &Block, size_t Idx) {
  return M.functionByName(Fn)->blockByName(Block)->instructions()[Idx].get();
}

TEST(Profiler, SameLoopActiveTwiceThroughRecursion) {
  auto R = profileText(RecursiveLoopText);
  const Loop *L = loopNamed(*R.FA, *R.M, "rec", "loop");
  ASSERT_NE(L, nullptr);
  // rec(2) -> 2 x rec(1) -> 4 x rec(0): seven activations of two body
  // iterations plus the exit test each.
  LoopStats S = R.P.loopStats(L);
  EXPECT_EQ(S.Invocations, 7u);
  EXPECT_EQ(S.Iterations, 21u);
  // Callee work accrues to every enclosing activation, so nested
  // activations of the same loop count it again.
  EXPECT_EQ(S.Weight, 543u);

  // The second iteration of every activation reads @g last written in its
  // own first iteration (by itself or by a deeper activation that has
  // since returned): 7 instances x 8 bytes, always at distance one.
  // Reads in a first iteration see the caller's write, which belongs to
  // another activation and carries nothing.
  FlowDep D{instAt(*R.M, "rec", "body", 3), instAt(*R.M, "rec", "body", 1)};
  ASSERT_EQ(R.P.crossIterationFlowDeps(L).size(), 1u);
  const DepDistance *DS = R.P.flowDepDistance(L, D);
  ASSERT_NE(DS, nullptr);
  EXPECT_EQ(DS->Min, 1u);
  EXPECT_EQ(DS->Max, 1u);
  EXPECT_EQ(DS->Samples, 56u);

  // Nodes allocated by the outermost activation die in their iteration.
  // Deeper ones are freed while an inner activation is the loop's topmost,
  // so the outer activations' entries count them as escaping.
  std::map<std::string, bool> ShortLived;
  for (const ObjectKey &K : R.P.allObjects())
    if (K.AllocSite)
      ShortLived[K.Context] = R.P.isShortLived(K, L);
  EXPECT_EQ(ShortLived, (std::map<std::string, bool>{
                            {"main/entry", true},
                            {"main/entry>rec/recurse", false},
                            {"main/entry>rec/recurse>rec/recurse", false}}));
}

TEST(Profiler, LoadBytesFromTwoStoresSampledPerByte) {
  // Each iteration reads 8 bytes of @g: the low half was written by the
  // previous iteration's 4-byte store, the high half once, in iteration 0.
  const char *T = "global @g 8\n"
                  "define i64 @main() {\n"
                  "entry:\n"
                  "  %hi = gep @g, 4\n"
                  "  br loop\n"
                  "loop:\n"
                  "  %i = phi [entry: 0], [latch: %inext]\n"
                  "  %c = icmp lt, %i, 4\n"
                  "  condbr %c, body, exit\n"
                  "body:\n"
                  "  %v = load i64, @g, 8\n"
                  "  store %i, @g, 4\n"
                  "  %first = icmp eq, %i, 0\n"
                  "  condbr %first, seed, latch\n"
                  "seed:\n"
                  "  store %i, %hi, 4\n"
                  "  br latch\n"
                  "latch:\n"
                  "  %inext = add %i, 1\n"
                  "  br loop\n"
                  "exit:\n"
                  "  ret 0\n"
                  "}\n";
  auto R = profileText(T);
  const Loop *L = loopNamed(*R.FA, *R.M, "main", "loop");
  ASSERT_NE(L, nullptr);
  const Instruction *Load = instAt(*R.M, "main", "body", 0);
  const Instruction *Low = instAt(*R.M, "main", "body", 1);
  const Instruction *High = instAt(*R.M, "main", "seed", 0);
  EXPECT_EQ(R.P.crossIterationFlowDeps(L).size(), 2u);
  // Iterations 1..3 each sample four bytes per writer.
  const DepDistance *FromLow = R.P.flowDepDistance(L, FlowDep{Low, Load});
  ASSERT_NE(FromLow, nullptr);
  EXPECT_EQ(FromLow->Samples, 12u);
  EXPECT_EQ(FromLow->Min, 1u);
  EXPECT_EQ(FromLow->Max, 1u);
  const DepDistance *FromHigh = R.P.flowDepDistance(L, FlowDep{High, Load});
  ASSERT_NE(FromHigh, nullptr);
  EXPECT_EQ(FromHigh->Samples, 12u);
  EXPECT_EQ(FromHigh->Min, 1u);
  EXPECT_EQ(FromHigh->Max, 3u);
  EXPECT_FALSE(FromHigh->fixed());
}

TEST(Profiler, ReallocationAtSameAddressInvalidatesObjectCache) {
  // Drives the collector directly so that the second allocation provably
  // reuses the first one's address.  No loop is active, so the collector
  // never reads the (fake) addresses.
  const char *T = "define i64 @main() {\n"
                  "entry:\n"
                  "  %a = malloc 16\n"
                  "  %b = malloc 16\n"
                  "  %v = load i64, %a, 8\n"
                  "  free %a\n"
                  "  ret 0\n"
                  "}\n";
  std::string Err;
  auto M = parseModule(T, Err);
  ASSERT_NE(M, nullptr) << Err;
  FunctionAnalyses FA(*M);
  const Instruction *SiteA = instAt(*M, "main", "entry", 0);
  const Instruction *SiteB = instAt(*M, "main", "entry", 1);
  const Instruction *Load = instAt(*M, "main", "entry", 2);
  const Instruction *Free = instAt(*M, "main", "entry", 3);
  const uint64_t Addr = 0x10000;
  ProfileCollector C(FA);
  C.onAlloc(SiteA, Addr, 16);
  C.onLoad(Load, Addr, 8);
  C.onLoad(Load, Addr + 8, 8); // Same object: served from the cache.
  C.onFree(Free, Addr);
  C.onAlloc(SiteB, Addr, 16);
  C.onLoad(Load, Addr + 8, 8); // Same address range, another object.
  Profile P = C.finish();
  std::set<const Instruction *> Sites;
  for (const ObjectKey &K : P.objectsAccessedBy(Load))
    Sites.insert(K.AllocSite);
  EXPECT_EQ(Sites, (std::set<const Instruction *>{SiteA, SiteB}));
}

TEST(Profiler, SnapshotSlotsStayBoundedOverLongStoreLoop) {
  // 20000 iterations, each a new loop state, storing into a four-cell
  // table: overwritten cells release their old states' slots.
  const char *T = "global @t 32\n"
                  "define i64 @main() {\n"
                  "entry:\n"
                  "  br loop\n"
                  "loop:\n"
                  "  %i = phi [entry: 0], [body: %inext]\n"
                  "  %c = icmp lt, %i, 20000\n"
                  "  condbr %c, body, exit\n"
                  "body:\n"
                  "  %k = and %i, 3\n"
                  "  %off = mul %k, 8\n"
                  "  %p = gep @t, %off\n"
                  "  %old = load i64, %p, 8\n"
                  "  %new = add %old, %i\n"
                  "  store %new, %p, 8\n"
                  "  %inext = add %i, 1\n"
                  "  br loop\n"
                  "exit:\n"
                  "  ret 0\n"
                  "}\n";
  std::string Err;
  auto M = parseModule(T, Err);
  ASSERT_NE(M, nullptr) << Err;
  FunctionAnalyses FA(*M);
  ProfileCollector C(FA);
  interp::PlainMemoryManager MM;
  interp::Interpreter I(*M, MM, &C);
  I.initializeGlobals();
  I.run("main", {});
  // The empty-stack slot, one per live table cell, and the current state.
  EXPECT_LE(C.liveSnapshotSlots(), 6u);
  Profile P = C.finish();
  const Loop *L = loopNamed(FA, *M, "main", "loop");
  const DepDistance *DS = P.flowDepDistance(
      L, FlowDep{instAt(*M, "main", "body", 5), instAt(*M, "main", "body", 3)});
  ASSERT_NE(DS, nullptr);
  EXPECT_EQ(DS->Min, 4u);
  EXPECT_EQ(DS->Max, 4u);
  EXPECT_EQ(DS->Samples, (20000u - 4u) * 8u);
}

TEST(Profiler, TrainingFallsBackToInterpreterWhenLoweringDeclines) {
  std::string Err;
  auto M = parseModule(dijkstraIrText(8), Err);
  ASSERT_NE(M, nullptr) << Err;
  FunctionAnalyses FA(*M);
  TrainingInput In;
  bytecode::LowerOptions Tiny;
  Tiny.MaxRegsPerFunction = 2;
  std::FILE *Sink = std::tmpfile();
  Runtime::get().setSequentialOutput(Sink);
  TrainingRun Fallback = runTrainingProfile(*M, FA, In, Tiny);
  TrainingRun Vm = runTrainingProfile(*M, FA, In);
  TrainingRun Oracle = runTrainingProfileOnInterpreter(*M, FA, In);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(Sink);
  EXPECT_EQ(Fallback.Host, TrainingHost::Interp);
  EXPECT_NE(Fallback.WhyNotBytecode.find("register budget"),
            std::string::npos)
      << Fallback.WhyNotBytecode;
  EXPECT_EQ(Vm.Host, TrainingHost::Bytecode);
  EXPECT_TRUE(Vm.WhyNotBytecode.empty());
  std::string Expected = testutil::canonicalProfileText(Oracle.P, *M);
  EXPECT_EQ(testutil::canonicalProfileText(Fallback.P, *M), Expected);
  EXPECT_EQ(testutil::canonicalProfileText(Vm.P, *M), Expected);
  EXPECT_EQ(Fallback.Instructions, Oracle.Instructions);
  EXPECT_EQ(Vm.Instructions, Oracle.Instructions);
}

TEST(Profiler, TrainingBudgetTripsAtTheSameCountOnBothHosts) {
  std::string Err;
  auto M = parseModule(dijkstraIrText(4), Err);
  ASSERT_NE(M, nullptr) << Err;
  FunctionAnalyses FA(*M);
  std::FILE *Sink = std::tmpfile();
  Runtime::get().setSequentialOutput(Sink);
  TrainingInput In;
  In.Budget = runTrainingProfileOnInterpreter(*M, FA, In).Instructions;
  // Exactly the instructions the run needs: both hosts finish.
  EXPECT_EQ(runTrainingProfile(*M, FA, In).Instructions, In.Budget);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(Sink);
  // One fewer: both hosts abort.
  --In.Budget;
  EXPECT_DEATH(runTrainingProfileOnInterpreter(*M, FA, In),
               "instruction budget exceeded");
  EXPECT_DEATH(runTrainingProfile(*M, FA, In), "instruction budget exceeded");
}

TEST(Profiler, HostsAgreeOnEveryIrProgram) {
  using transform::PipelineOptions;
  PipelineOptions Doall;
  PipelineOptions Doacross;
  Doacross.Strat = Strategy::Doacross;
  PipelineOptions Train;
  Train.TrainingEntryFunction = "train";
  PipelineOptions FiveHeaps = Train;
  FiveHeaps.EnableCommutative = false;
  const std::vector<std::tuple<std::string, std::string, PipelineOptions>>
      Cases = {
          {"dijkstra 8", dijkstraIrText(8), Doall},
          {"dijkstra 20", dijkstraIrText(20), Doall},
          {"redsum", reductionSumIrText(1000), Doall},
          {"recurrence", recurrenceIrText(300), Doall},
          {"recurrence doacross", recurrenceIrText(300), Doacross},
          {"fppricing", fpPricingIrText(500), Doall},
          {"arrayrec", arrayRecurrenceIrText(500, 2), Doacross},
          {"scalarcarry", scalarCarryIrText(500), Doacross},
          {"histogram", histogramIrText(600, 16, 4), Doall},
          {"histogram @train", histogramIrText(2000, 256, 4), Train},
          {"histogram five heaps", histogramIrText(2000, 256, 4), FiveHeaps},
          {"degree count", degreeCountIrText(64, 200, 2), Doall},
          {"degree count @train", degreeCountIrText(64, 200, 2), Train},
          {"dedup", dedupIrText(500, 8, 4), Doall},
      };
  for (const auto &[Name, Text, Opt] : Cases)
    testutil::expectProfileHostsAgree(Text, Opt, Name);
  testutil::expectProfileHostsAgree(RecursiveLoopText, Doall, "recursion");
}

} // namespace
