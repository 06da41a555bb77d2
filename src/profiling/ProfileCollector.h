//===- profiling/ProfileCollector.h - Profiling observer --------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumented-training-run half of §4.1, as one InterpObserver.
/// Maintains "an interval map from ranges of memory addresses to the name
/// of the memory object which occupies that space", tracks loop activations
/// (invocation + iteration counters per dynamic loop entry), object
/// lifetimes, per-byte last writers for memory flow-dependence profiling,
/// branch bias, per-loop execution weight, and first-read-per-iteration
/// value predictability.
///
/// Both training hosts feed it: the tree-walking interpreter (the oracle)
/// and the probe-lowered bytecode VM (profiling/TrainingRun.h).  The state
/// is laid out for the per-access hot path:
///
///  - Loop-state snapshots are interned.  Each state of the activation
///    stack gets one snapshot slot, created on the first store (or alloc)
///    in that state and owned by the stack's top activation; the shadow
///    memory and live allocations hold reference-counted slot indices, and
///    a slot is recycled when its count reaches zero.
///  - Last writers live in a paged shadow memory (4 KiB pages of
///    {store id, slot}) behind a small page lookaside.  A run of adjacent
///    bytes with the same writer is judged once.
///  - Objects are interned to dense ids; the address map stores ids.
///  - Each static load/store has one record holding its object set, its
///    last address-map hit (invalidated by a generation counter that every
///    allocation and free bumps) and its value-prediction state.
///  - The ordered Profile maps are built once, in finish().
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_PROFILING_PROFILECOLLECTOR_H
#define PRIVATEER_PROFILING_PROFILECOLLECTOR_H

#include "analysis/FunctionAnalyses.h"
#include "interp/Interpreter.h"
#include "profiling/Profile.h"
#include "support/IntervalMap.h"

#include <memory>
#include <unordered_map>

namespace privateer {
namespace profiling {

class ProfileCollector final : public interp::InterpObserver {
public:
  explicit ProfileCollector(const analysis::FunctionAnalyses &FA);
  ~ProfileCollector() override;

  // InterpObserver implementation.
  void onGlobalAlloc(const ir::GlobalVariable *G, uint64_t Addr,
                     uint64_t Bytes) override;
  void onAlloc(const ir::Instruction *Site, uint64_t Addr,
               uint64_t Bytes) override;
  void onFree(const ir::Instruction *I, uint64_t Addr) override;
  void onLoad(const ir::Instruction *I, uint64_t Addr,
              uint64_t Bytes) override;
  void onStore(const ir::Instruction *I, uint64_t Addr,
               uint64_t Bytes) override;
  void onBlockEnter(const ir::BasicBlock *B,
                    const ir::BasicBlock *From) override;
  void onCall(const ir::Instruction *Site, const ir::Function *F) override;
  void onReturn(const ir::Function *F) override;

  /// Finalizes lifetime of still-live objects and value predictability,
  /// and hands over the accumulated profile.
  Profile finish();

  /// Snapshot slots currently referenced (by the shadow memory, live
  /// allocations, or the activation stack).  Bounded by the number of
  /// distinct loop states still visible in memory, not by run length.
  size_t liveSnapshotSlots() const { return Slots.size() - FreeSlots.size(); }

private:
  struct SnapEntry {
    const analysis::Loop *L;
    uint64_t ActivationId;
    uint64_t Iteration;
  };
  struct SnapSlot {
    std::vector<SnapEntry> Snap;
    uint64_t Refs = 0;
    /// Snap.front().ActivationId (0 when empty), kept beside the refcount:
    /// most writers' outermost activation is gone by the time of the read.
    uint64_t Outermost = 0;
  };
  /// Slot 0 is the permanent snapshot of the empty activation stack.
  static constexpr uint32_t kEmptySlot = 0;
  static constexpr uint32_t kNoSlot = ~0u;

  struct LoopRec {
    LoopStats *Stats = nullptr; ///< Entry in P.Loops.
    int64_t TopDepth = -1;      ///< Topmost activation of the loop.
  };
  struct Activation {
    const analysis::Loop *L;
    LoopRec *Rec;
    uint64_t ActivationId;
    uint64_t Iteration;
    uint64_t WorkAtEntry;  ///< Work counter when pushed (lazy weight).
    int64_t PrevTopDepth;  ///< Rec->TopDepth before this push.
    uint32_t Slot;         ///< This state's snapshot slot, or kNoSlot.
  };
  /// Per-block facts the block-entry hook needs, resolved once.
  struct BlockInfo {
    const analysis::Loop *HeaderOf = nullptr; ///< Loop headed by the block.
    LoopRec *HeaderRec = nullptr;
    std::vector<const analysis::Loop *> Containing;
    uint64_t Size = 0;
    const ir::Instruction *CondBr = nullptr; ///< Terminator, if a condbr.
    std::pair<uint64_t, uint64_t> *Branch = nullptr; ///< Its counts.
  };
  struct PredRec {
    const analysis::Loop *L = nullptr;
    bool Seen = false;
    bool Unpredictable = false;
    uint64_t Addr = 0;
    uint64_t Bytes = 0;
    uint64_t Raw = 0;
    uint64_t MarkerAct = ~0ULL;
    uint64_t MarkerIter = ~0ULL;
  };
  /// One record per static load/store.
  struct InstRec {
    std::vector<uint32_t> Objects; ///< Interned object ids touched.
    uint64_t HitLo = 0, HitHi = 0; ///< Last address-map interval hit...
    uint64_t HitGen = 0;           ///< ...valid while Generation matches.
    uint32_t StoreId = 0;          ///< Stores: 1-based shadow writer id.
    std::vector<PredRec> Preds;    ///< Loads: per enclosing loop.
  };
  struct ShadowCell {
    uint32_t Writer; ///< 1-based store id; 0 = never written.
    uint32_t Slot;
  };
  static constexpr unsigned kPageBits = 12;
  static constexpr uint64_t kPageBytes = 1ULL << kPageBits;
  struct ShadowPage {
    ShadowCell Cells[kPageBytes];
  };
  /// Shadow pages are mapped from the kernel, not the malloc heap: placed
  /// between the training run's own heap objects they would spread those
  /// objects over more pages, each needing a shadow page of its own.
  /// Fresh mappings read as zero (never written) and only the touched
  /// parts become resident.
  struct ShadowPageUnmap {
    void operator()(ShadowPage *P) const;
  };
  struct LiveAlloc {
    uint32_t Object;
    uint32_t Slot;
  };
  struct DepKey {
    const analysis::Loop *L;
    const ir::Instruction *Store, *Load;
    bool operator==(const DepKey &O) const {
      return L == O.L && Store == O.Store && Load == O.Load;
    }
  };
  struct DepKeyHash {
    size_t operator()(const DepKey &K) const;
  };
  struct PairHash {
    template <typename A, typename B>
    size_t operator()(const std::pair<A, B> &P) const {
      return std::hash<A>()(P.first) * 0x9E3779B97F4A7C15ULL ^
             std::hash<B>()(P.second);
    }
  };

  BlockInfo &blockInfo(const ir::BasicBlock *B);
  LoopRec &loopRec(const analysis::Loop *L);
  InstRec &instRec(const ir::Instruction *I);
  void noteObject(InstRec &R, uint64_t Addr);
  uint32_t currentSlot();
  void acquire(uint32_t S) {
    if (S != kEmptySlot)
      ++Slots[S].Refs;
  }
  void release(uint32_t S);
  void popActivation();
  ShadowCell *shadowCell(uint64_t Addr, bool Create);
  /// Loop, distance of the flow dependence a read in the current state
  /// has on a write in \p S's state, or no loop.
  std::pair<const analysis::Loop *, uint64_t> carriedBy(uint32_t S) const;
  uint32_t internObject(const ir::GlobalVariable *G,
                        const ir::Instruction *Site, uint32_t Ctx);

  const analysis::FunctionAnalyses &FA;
  Profile P;

  std::vector<Activation> ActivationStack;
  std::vector<size_t> FrameBases{0};
  uint64_t NextActivationId = 1;
  uint64_t Work = 0; ///< Block instructions entered so far.

  std::vector<SnapSlot> Slots;
  std::vector<uint32_t> FreeSlots;

  /// Call-site contexts: a tree of nodes keyed by (parent node, call
  /// block), each with the context string it renders to and that
  /// string's id (the first node that rendered it).
  struct CtxNode {
    uint32_t StringId;
    std::string Text;
  };
  std::vector<CtxNode> CtxNodes;
  std::unordered_map<std::pair<uint32_t, const ir::BasicBlock *>, uint32_t,
                     PairHash>
      CtxChildren;
  std::unordered_map<std::string, uint32_t> CtxStrings;
  std::vector<uint32_t> CtxStack; ///< Node per active call (root = 0).

  std::vector<ObjectKey> ObjectKeys; ///< Interned objects, by id.
  std::unordered_map<const ir::GlobalVariable *, uint32_t> GlobalObjects;
  std::unordered_map<std::pair<const ir::Instruction *, uint32_t>, uint32_t,
                     PairHash>
      SiteObjects;

  IntervalMap<uint32_t> AddrMap;
  uint64_t Generation = 1;
  std::unordered_map<uint64_t, LiveAlloc> LiveAllocs;

  std::unordered_map<const ir::Instruction *, InstRec> Insts;
  std::vector<const ir::Instruction *> StoreInsts; ///< By store id - 1.
  std::unordered_map<const ir::BasicBlock *, BlockInfo> Blocks;
  std::unordered_map<const analysis::Loop *, LoopRec> LoopRecs;
  std::unordered_map<const ir::Instruction *, std::pair<uint64_t, uint64_t>>
      BranchCounts;

  /// Direct-mapped lookasides in front of the Blocks/Insts/Shadow maps:
  /// the hooks resolve the same few blocks, instructions and pages over
  /// and over.
  static constexpr size_t kLookaside = 256;
  template <typename K, typename V> struct Lookaside {
    std::pair<K, V *> Ways[kLookaside] = {};
    std::pair<K, V *> &way(K Key) {
      uint64_t H = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(Key));
      return Ways[(H ^ (H >> 9)) & (kLookaside - 1)];
    }
  };
  Lookaside<const ir::BasicBlock *, BlockInfo> BlockWays;
  Lookaside<const ir::Instruction *, InstRec> InstWays;
  std::unordered_map<uint64_t, std::unique_ptr<ShadowPage, ShadowPageUnmap>>
      Shadow;
  std::pair<uint64_t, ShadowPage *> PageWays[16] = {};

  std::unordered_map<DepKey, DepDistance, DepKeyHash> Deps;
  std::unordered_map<std::pair<uint32_t, const analysis::Loop *>,
                     std::pair<uint64_t, uint64_t>, PairHash>
      Lifetimes;
};

} // namespace profiling
} // namespace privateer

#endif // PRIVATEER_PROFILING_PROFILECOLLECTOR_H
