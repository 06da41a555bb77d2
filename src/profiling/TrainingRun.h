//===- profiling/TrainingRun.h - The §4.1 training run ----------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One instrumented training run of a module, feeding a ProfileCollector.
/// The paper profiles compiled code on the train input; so does this
/// repository by default: the untransformed module is lowered once more
/// with probe ops (bytecode::LowerOptions::Probes) and run on the bytecode
/// VM, whose probes drive the collector through the same InterpObserver
/// callbacks the tree-walking interpreter calls.  The interpreter-hosted
/// run stays as the oracle and as the fallback when lowering declines;
/// the host is chosen by whether lowering succeeds, never by an option.
///
/// Both hosts report the same instruction count — IR instructions, the
/// interpreter's unit — so the training budget trips at the same point
/// (to block granularity) and the pipeline's "profiled" log line does not
/// depend on the host.
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_PROFILING_TRAININGRUN_H
#define PRIVATEER_PROFILING_TRAININGRUN_H

#include "bytecode/Lower.h"
#include "interp/Interpreter.h"
#include "profiling/Profile.h"

namespace privateer {
namespace profiling {

/// What the training run executes.
struct TrainingInput {
  std::string Entry = "main";
  std::vector<interp::Cell> Args;
  /// Bound on executed IR instructions (runaway-loop guard).
  uint64_t Budget = 500'000'000;
};

enum class TrainingHost : uint8_t { Bytecode, Interp };

struct TrainingRun {
  Profile P;
  uint64_t Instructions = 0; ///< IR instructions executed.
  TrainingHost Host = TrainingHost::Interp;
  /// Why the bytecode host declined (empty when it ran).
  std::string WhyNotBytecode;
};

/// Profiles \p In on the bytecode VM, or on the interpreter when lowering
/// \p M with probes declines.  \p Lower supplies the lowering limits (its
/// plan and probe fields are ignored).
TrainingRun runTrainingProfile(ir::Module &M,
                               const analysis::FunctionAnalyses &FA,
                               const TrainingInput &In,
                               const bytecode::LowerOptions &Lower = {});

/// The interpreter-hosted training run: the oracle the bytecode host is
/// checked against.
TrainingRun runTrainingProfileOnInterpreter(
    ir::Module &M, const analysis::FunctionAnalyses &FA,
    const TrainingInput &In);

} // namespace profiling
} // namespace privateer

#endif // PRIVATEER_PROFILING_TRAININGRUN_H
