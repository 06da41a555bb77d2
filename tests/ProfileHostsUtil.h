//===- tests/ProfileHostsUtil.h - Training-host comparison helpers --------===//
//
// The bytecode-hosted training run must produce exactly the profile of the
// interpreter-hosted oracle.  These helpers run both hosts on fresh parses
// of one module text and compare what the pipeline derives from them: the
// canonical profile text, the heap assignment, the pipeline log, and the
// transformed module.
//
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_TESTS_PROFILEHOSTSUTIL_H
#define PRIVATEER_TESTS_PROFILEHOSTSUTIL_H

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "profiling/ProfileSerialization.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace privateer {
namespace testutil {

/// serializeProfile text with the run-dependent absolute addresses
/// rebased: `globalbase` lines drop the address, and a `pred` line's
/// address and value read `@global+offset` when they fall inside a global.
inline std::string canonicalProfileText(const profiling::Profile &P,
                                        const ir::Module &M) {
  auto Rebase = [&](uint64_t V) {
    for (const auto &G : M.globals()) {
      uint64_t Base = P.globalBase(G.get());
      if (V >= Base && V - Base < G->sizeBytes())
        return "@" + G->name() + "+" + std::to_string(V - Base);
    }
    return std::to_string(V);
  };
  std::istringstream In(profiling::serializeProfile(P, M));
  std::string Line, Out;
  while (std::getline(In, Line)) {
    std::istringstream Fields(Line);
    std::string Kind;
    Fields >> Kind;
    if (Kind == "globalbase") {
      std::string Name;
      Fields >> Name;
      Line = "globalbase " + Name;
    } else if (Kind == "pred") {
      std::string Inst, Loop;
      uint64_t Addr = 0, Bytes = 0, Value = 0;
      Fields >> Inst >> Loop >> Addr >> Bytes >> Value;
      Line = "pred " + Inst + " " + Loop + " " + Rebase(Addr) + " " +
             std::to_string(Bytes) + " " + Rebase(Value);
    }
    Out += Line + "\n";
  }
  return Out;
}

inline std::string instText(const ir::Instruction *I) {
  if (!I)
    return "-";
  const ir::BasicBlock *B = I->parent();
  return B->parent()->name() + "@" + B->name() + "@" +
         std::to_string(B->indexOf(I));
}

/// A heap assignment rendered by stable names, each section sorted (its
/// maps are ordered by IR pointers).  Cluster instructions are left out:
/// the transformation folds them away, and the transformed module text
/// covers them.
inline std::string assignmentText(const classify::HeapAssignment &HA) {
  std::vector<std::string> Lines;
  auto Section = [&](std::vector<std::string> Part) {
    std::sort(Part.begin(), Part.end());
    Lines.insert(Lines.end(), Part.begin(), Part.end());
  };
  Lines.push_back(
      "loop " +
      (HA.TheLoop ? HA.TheLoop->header()->parent()->name() + "@" +
                        HA.TheLoop->header()->name()
                  : std::string("-")) +
      (HA.Parallelizable ? " parallelizable" : " not parallelizable"));
  std::vector<std::string> Part;
  for (const auto &[O, K] : HA.ObjectHeaps)
    Part.push_back("heap " + O.str() + " " + heapKindName(K));
  Section(std::move(Part));
  Part.clear();
  for (const classify::ValuePrediction &VP : HA.Predictions)
    Part.push_back("predict " + instText(VP.Load) + " @" + VP.Global->name() +
                   "+" + std::to_string(VP.Offset) + " " +
                   std::to_string(VP.Bytes) + " " + std::to_string(VP.Value));
  Section(std::move(Part));
  Part.clear();
  for (const auto &[O, EO] : HA.ReduxOps)
    Part.push_back("redux " + O.str() + " " + std::to_string(int(EO.first)) +
                   " " + std::to_string(int(EO.second)));
  for (const auto &[O, OB] : HA.ComOps)
    Part.push_back("com " + O.str() + " " + std::to_string(int(OB.first)) +
                   " " + std::to_string(int(OB.second)));
  for (const classify::ComCluster &C : HA.ComClusters)
    Part.push_back("cluster " + std::to_string(int(C.Op)));
  for (const ir::Instruction *I : HA.PrivacyElides)
    Part.push_back("elide " + instText(I));
  Section(std::move(Part));
  Part.clear();
  for (const std::string &N : HA.Notes)
    Part.push_back("note " + N);
  Section(std::move(Part));
  Lines.push_back("doacross " + std::to_string(HA.DoacrossChannels) + " " +
                  std::to_string(HA.DoacrossMinDistance));
  std::string S;
  for (const std::string &L : Lines)
    S += L + "\n";
  return S;
}

/// The pipeline log with each run of indented note lines sorted: a loop's
/// notes follow its heap assignment's object maps, which are ordered by IR
/// pointers and so by heap layout, not by the training host.
inline std::vector<std::string> canonicalLog(std::vector<std::string> Log) {
  for (auto It = Log.begin(); It != Log.end();) {
    auto End = std::find_if(It, Log.end(), [](const std::string &L) {
      return L.rfind("  ", 0) != 0;
    });
    std::sort(It, End);
    It = End == Log.end() ? End : End + 1;
  }
  return Log;
}

/// Everything one pipeline run derives from its training run.
struct HostOutcome {
  profiling::TrainingHost Host = profiling::TrainingHost::Interp;
  std::string ProfileText;
  std::string Assignment;
  std::vector<std::string> Log;
  std::string TransformedModule;
};

/// Parses \p Text afresh, trains on the bytecode VM (\p Bytecode) or on
/// the interpreter oracle, and runs the rest of the pipeline on that
/// training run.
inline HostOutcome runPipelineOnHost(const std::string &Text,
                                     const transform::PipelineOptions &Opt,
                                     bool Bytecode) {
  HostOutcome Out;
  std::string Err;
  auto M = ir::parseModule(Text, Err);
  EXPECT_NE(M, nullptr) << Err;
  if (!M)
    return Out;
  analysis::FunctionAnalyses FA(*M);
  std::FILE *Sink = std::tmpfile();
  Runtime::get().setSequentialOutput(Sink);
  profiling::TrainingInput In = transform::trainingInput(Opt);
  profiling::TrainingRun T =
      Bytecode ? profiling::runTrainingProfile(*M, FA, In)
               : profiling::runTrainingProfileOnInterpreter(*M, FA, In);
  Runtime::get().setSequentialOutput(nullptr);
  std::fclose(Sink);
  Out.Host = T.Host;
  Out.ProfileText = canonicalProfileText(T.P, *M);
  transform::PipelineResult R =
      transform::runPrivateerPipeline(*M, FA, Opt, std::move(T));
  Out.Assignment = assignmentText(R.Assignment);
  Out.Log = canonicalLog(R.Log);
  Out.TransformedModule = ir::printModule(*M);
  return Out;
}

/// Both hosts must agree byte for byte on \p Text under \p Opt, and the
/// bytecode host must actually have run.
inline void expectProfileHostsAgree(const std::string &Text,
                                    const transform::PipelineOptions &Opt,
                                    const std::string &Where) {
  SCOPED_TRACE(Where);
  HostOutcome Vm = runPipelineOnHost(Text, Opt, /*Bytecode=*/true);
  HostOutcome Oracle = runPipelineOnHost(Text, Opt, /*Bytecode=*/false);
  EXPECT_EQ(Vm.Host, profiling::TrainingHost::Bytecode);
  EXPECT_EQ(Oracle.Host, profiling::TrainingHost::Interp);
  EXPECT_FALSE(Oracle.ProfileText.empty());
  EXPECT_EQ(Vm.ProfileText, Oracle.ProfileText);
  EXPECT_EQ(Vm.Assignment, Oracle.Assignment);
  EXPECT_EQ(Vm.Log, Oracle.Log);
  EXPECT_EQ(Vm.TransformedModule, Oracle.TransformedModule);
}

} // namespace testutil
} // namespace privateer

#endif // PRIVATEER_TESTS_PROFILEHOSTSUTIL_H
