//===- bytecode/VM.h - Direct-threaded bytecode VM --------------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a lowered BytecodeProgram over real host memory with a flat
/// register file per frame.  Dispatch is direct-threaded (computed goto)
/// on GCC/Clang with a switch fallback.  The VM mirrors the interpreter's
/// observable semantics exactly — same arithmetic edge cases (via
/// interp/Semantics.h), same fatal-error messages, same deferred-output
/// bytes, same runtime check/stat behavior — because the interpreter is
/// its differential oracle.
///
/// Parallel execution follows the interpreter's ParallelPlan contract:
/// arming a plan makes ParLoopEnter instructions hand the planned loop's
/// iterations to Runtime::runParallel; with no plan armed they fall
/// through to ordinary jumps, which is also what recovery and degraded
/// re-execution rely on inside the runtime.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_BYTECODE_VM_H
#define PRIVATEER_BYTECODE_VM_H

#include "bytecode/Bytecode.h"
#include "interp/MemoryManager.h"
#include "interp/Interpreter.h"
#include "runtime/Runtime.h"

#include <map>
#include <memory>
#include <vector>

namespace privateer {
namespace bytecode {

/// Receives the probe ops of a probe-instrumented program
/// (LowerOptions::Probes).  Indices are that lowering's ProbeTable
/// entries; \p From of block() is kNoBlock on function entry.
class ProbeSink {
public:
  static constexpr uint32_t kNoBlock = ~0u;
  virtual ~ProbeSink() = default;
  virtual void global(uint32_t GlobalIdx, uint64_t Addr, uint64_t Bytes) = 0;
  virtual void block(uint32_t Block, uint32_t From) = 0;
  virtual void load(uint32_t Inst, uint64_t Addr) = 0;
  virtual void store(uint32_t Inst, uint64_t Addr) = 0;
  /// \p MallocBytes is the malloc size operand (unused for allocas).
  virtual void alloc(uint32_t Inst, uint64_t Addr, uint64_t MallocBytes) = 0;
  virtual void dealloc(uint32_t Inst, uint64_t Addr) = 0;
  virtual void call(uint32_t Inst) = 0;
  virtual void ret(uint32_t Inst) = 0;
};

class VM {
public:
  /// Counterpart of Interpreter::ParallelPlan; the loop itself is already
  /// compiled into the program's BcParLoopSite.
  struct ParallelPlan {
    ParallelOptions Options;
    /// Accumulated across invocations of the loop.
    InvocationStats Stats;
  };

  VM(const BytecodeProgram &Prog, interp::MemoryManager &MM);

  /// Allocates and zero-fills all globals (module order, matching the
  /// interpreter).  Must run before execution.
  void initializeGlobals();

  /// Runtime address of global \p Idx (see BytecodeProgram::GlobalIdx).
  uint64_t globalAddress(uint32_t Idx) const;

  /// Calls @\p Name with \p Args; the function must exist.
  interp::Cell run(const std::string &Name,
                   const std::vector<interp::Cell> &Args);

  void setParallelPlan(ParallelPlan *P) { Plan = P; }

  /// Routes a probe-instrumented program's probe ops (and the global
  /// allocations of initializeGlobals) to \p S.  Without a sink, probe ops
  /// do nothing.
  void setProbeSink(ProbeSink *S) { Probes = S; }

  /// Hard bound on executed bytecode instructions (runaway-loop guard).
  void setInstructionBudget(uint64_t N) { Budget = N; }
  uint64_t instructionsExecuted() const { return Executed; }

private:
  /// A frame is a slice of the preallocated register arena plus the list
  /// of frame allocations to release at return.  The arena never moves,
  /// so nested exec invocations keep raw pointers into it.
  struct Frame {
    uint64_t *R = nullptr;
    std::vector<void *> Allocas;
    uint32_t PrevBlock = ProbeSink::kNoBlock; ///< Last ProbeBlock passed.
  };

  /// Register-arena capacity in 64-bit slots (bounds call depth; a frame
  /// costs NumRegs slots, so this allows thousands of nested calls).
  static constexpr size_t kRegStackSlots = 1u << 18;

  enum class ExecStatus : uint8_t {
    Returned, ///< A Ret executed; the return value is valid.
    IterEnded ///< A planned-body run reached its IterEnd.
  };

  uint64_t callFunction(uint32_t FnIdx, const uint64_t *Args, size_t NumArgs);

  /// The dispatch loop.  \p StopAtIterEnd marks a planned-iteration body
  /// run (IterEnd returns instead of jumping back to the header).
  ExecStatus exec(const BcFunction &Fn, Frame &Frm, uint32_t StartPc,
                  bool StopAtIterEnd, uint64_t &RetValue);

  /// ParLoopEnter: run the compiled planned loop through the runtime.
  /// Returns the pc to continue from (the header->exit edge).
  uint32_t runPlannedLoop(const BcFunction &Fn, Frame &Frm,
                          const BcParLoopSite &Site);

  const BytecodeProgram &Prog;
  interp::MemoryManager &MM;
  ParallelPlan *Plan = nullptr;
  ProbeSink *Probes = nullptr;
  std::vector<uint64_t> GlobalAddrs; ///< By global index.
  /// Per-function frame-entry images (zeros + materialized constants +
  /// global addresses), built once in initializeGlobals and applied to a
  /// fresh frame with one memcpy instead of per-entry init loops.
  std::vector<std::vector<uint64_t>> FrameInit;
  /// The register arena backing all frames; deliberately uninitialized
  /// storage (frames are fully imaged from FrameInit on entry).
  std::unique_ptr<uint64_t[]> RegStack;
  size_t StackTop = 0; ///< Arena watermark, in slots.
  uint64_t Budget = 2'000'000'000;
  uint64_t Executed = 0;
  bool InParallelBody = false;
};

} // namespace bytecode
} // namespace privateer

#endif // PRIVATEER_BYTECODE_VM_H
