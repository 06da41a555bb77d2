//===- profiling/TrainingRun.cpp ------------------------------------------===//

#include "profiling/TrainingRun.h"

#include "bytecode/VM.h"
#include "profiling/ProfileCollector.h"
#include "support/ErrorHandling.h"

using namespace privateer;
using namespace privateer::profiling;
using namespace privateer::ir;

namespace {

/// Translates the VM's probe indices back to IR entities and forwards them
/// to the collector, counting IR instructions per entered block.
class CollectorProbeHost final : public bytecode::ProbeSink {
public:
  CollectorProbeHost(ProfileCollector &C, const bytecode::ProbeTable &T,
                     uint64_t Budget)
      : C(C), T(T), Budget(Budget) {
    BlockSizes.reserve(T.Blocks.size());
    for (const BasicBlock *B : T.Blocks)
      BlockSizes.push_back(B->instructions().size());
  }

  uint64_t instructions() const { return Executed; }

  void global(uint32_t GlobalIdx, uint64_t Addr, uint64_t Bytes) override {
    C.onGlobalAlloc(T.Globals[GlobalIdx], Addr, Bytes);
  }
  void block(uint32_t B, uint32_t From) override {
    Executed += BlockSizes[B];
    if (Executed > Budget)
      reportFatalError("instruction budget exceeded (runaway loop?)");
    C.onBlockEnter(T.Blocks[B], From == kNoBlock ? nullptr : T.Blocks[From]);
  }
  void load(uint32_t I, uint64_t Addr) override {
    C.onLoad(T.Insts[I], Addr, T.Insts[I]->accessBytes());
  }
  void store(uint32_t I, uint64_t Addr) override {
    C.onStore(T.Insts[I], Addr, T.Insts[I]->accessBytes());
  }
  void alloc(uint32_t I, uint64_t Addr, uint64_t MallocBytes) override {
    const Instruction *Site = T.Insts[I];
    C.onAlloc(Site, Addr,
              Site->opcode() == Opcode::Alloca ? Site->accessBytes()
                                               : MallocBytes);
  }
  void dealloc(uint32_t I, uint64_t Addr) override {
    C.onFree(T.Insts[I], Addr);
  }
  void call(uint32_t I) override {
    C.onCall(T.Insts[I], T.Insts[I]->callee());
  }
  void ret(uint32_t I) override { C.onReturn(T.Insts[I]->callee()); }

private:
  ProfileCollector &C;
  const bytecode::ProbeTable &T;
  std::vector<uint64_t> BlockSizes;
  uint64_t Budget;
  uint64_t Executed = 0;
};

} // namespace

TrainingRun profiling::runTrainingProfileOnInterpreter(
    Module &M, const analysis::FunctionAnalyses &FA, const TrainingInput &In) {
  TrainingRun R;
  ProfileCollector Collector(FA);
  interp::PlainMemoryManager MM;
  interp::Interpreter Interp(M, MM, &Collector);
  Interp.setInstructionBudget(In.Budget);
  Interp.initializeGlobals();
  Interp.run(In.Entry, In.Args);
  R.P = Collector.finish();
  R.Instructions = Interp.instructionsExecuted();
  R.Host = TrainingHost::Interp;
  return R;
}

TrainingRun profiling::runTrainingProfile(Module &M,
                                          const analysis::FunctionAnalyses &FA,
                                          const TrainingInput &In,
                                          const bytecode::LowerOptions &Lower) {
  bytecode::ProbeTable Table;
  bytecode::LowerOptions LO;
  LO.MaxRegsPerFunction = Lower.MaxRegsPerFunction;
  LO.Probes = &Table;
  std::string WhyNot;
  std::unique_ptr<bytecode::BytecodeProgram> Prog =
      bytecode::lowerModule(M, LO, WhyNot);
  if (!Prog) {
    TrainingRun R = runTrainingProfileOnInterpreter(M, FA, In);
    R.WhyNotBytecode = WhyNot;
    return R;
  }

  TrainingRun R;
  ProfileCollector Collector(FA);
  CollectorProbeHost Host(Collector, Table, In.Budget);
  interp::PlainMemoryManager MM;
  bytecode::VM Vm(*Prog, MM);
  Vm.setProbeSink(&Host);
  // The host enforces the budget in IR instructions; the VM's own budget
  // would count bytecode, probes included.
  Vm.setInstructionBudget(UINT64_MAX);
  Vm.initializeGlobals();
  Vm.run(In.Entry, In.Args);
  R.P = Collector.finish();
  R.Instructions = Host.instructions();
  R.Host = TrainingHost::Bytecode;
  return R;
}
