//===- profiling/ProfileCollector.cpp -------------------------------------===//

#include "profiling/ProfileCollector.h"

#include "support/ErrorHandling.h"

#include <algorithm>
#include <cstring>

#include <sys/mman.h>

using namespace privateer;
using namespace privateer::profiling;
using namespace privateer::analysis;
using namespace privateer::ir;

std::string ObjectKey::str() const {
  if (Global)
    return "@" + Global->name();
  std::string S = "site:";
  if (AllocSite) {
    S += AllocSite->parent()->parent()->name() + "/" +
         AllocSite->parent()->name() + "/%" + AllocSite->name();
  }
  if (!Context.empty())
    S += " ctx[" + Context + "]";
  return S;
}

size_t ProfileCollector::DepKeyHash::operator()(const DepKey &K) const {
  size_t H = std::hash<const void *>()(K.L);
  H = H * 0x9E3779B97F4A7C15ULL ^ std::hash<const void *>()(K.Store);
  return H * 0x9E3779B97F4A7C15ULL ^ std::hash<const void *>()(K.Load);
}

ProfileCollector::ProfileCollector(const FunctionAnalyses &FA) : FA(FA) {
  Slots.emplace_back(); // kEmptySlot: the empty stack, never recycled.
  CtxStrings.emplace("", 0);
  CtxNodes.push_back(CtxNode{0, ""});
  CtxStack.push_back(0);
}

ProfileCollector::~ProfileCollector() = default;

//===-- Interning and per-entity records ----------------------------------===//

ProfileCollector::LoopRec &ProfileCollector::loopRec(const Loop *L) {
  LoopRec &R = LoopRecs[L];
  if (!R.Stats)
    R.Stats = &P.Loops[L];
  return R;
}

ProfileCollector::BlockInfo &
ProfileCollector::blockInfo(const BasicBlock *B) {
  auto &Way = BlockWays.way(B);
  if (Way.first == B)
    return *Way.second;
  auto [It, New] = Blocks.try_emplace(B);
  BlockInfo &BI = It->second;
  Way = {B, &BI};
  if (!New)
    return BI;
  const LoopInfo &LI = FA.loops(B->parent());
  if (Loop *L = LI.loopFor(B); L && L->header() == B) {
    BI.HeaderOf = L;
    BI.HeaderRec = &loopRec(L);
  }
  for (const auto &L : LI.loops())
    if (L->contains(B))
      BI.Containing.push_back(L.get());
  BI.Size = B->instructions().size();
  const Instruction *T = B->terminator();
  if (T && T->opcode() == Opcode::CondBr)
    BI.CondBr = T;
  return BI;
}

ProfileCollector::InstRec &ProfileCollector::instRec(const Instruction *I) {
  auto &Way = InstWays.way(I);
  if (Way.first != I)
    Way = {I, &Insts[I]};
  return *Way.second;
}

uint32_t ProfileCollector::internObject(const GlobalVariable *G,
                                        const Instruction *Site,
                                        uint32_t Ctx) {
  auto Add = [&](uint32_t &Id) {
    Id = static_cast<uint32_t>(ObjectKeys.size());
    ObjectKey K;
    K.Global = G;
    K.AllocSite = Site;
    if (Site)
      K.Context = CtxNodes[Ctx].Text;
    ObjectKeys.push_back(std::move(K));
  };
  if (G) {
    auto [It, New] = GlobalObjects.try_emplace(G, 0);
    if (New)
      Add(It->second);
    return It->second;
  }
  auto [It, New] = SiteObjects.try_emplace({Site, Ctx}, 0);
  if (New)
    Add(It->second);
  return It->second;
}

void ProfileCollector::noteObject(InstRec &R, uint64_t Addr) {
  if (R.HitGen == Generation && Addr >= R.HitLo && Addr < R.HitHi)
    return;
  auto Iv = AddrMap.lookupInterval(Addr);
  if (!Iv)
    return;
  R.HitLo = Iv->Lo;
  R.HitHi = Iv->Hi;
  R.HitGen = Generation;
  if (std::find(R.Objects.begin(), R.Objects.end(), Iv->Value) ==
      R.Objects.end())
    R.Objects.push_back(Iv->Value);
}

//===-- Snapshot slots ----------------------------------------------------===//

uint32_t ProfileCollector::currentSlot() {
  if (ActivationStack.empty())
    return kEmptySlot;
  Activation &Top = ActivationStack.back();
  if (Top.Slot != kNoSlot)
    return Top.Slot;
  uint32_t S;
  if (!FreeSlots.empty()) {
    S = FreeSlots.back();
    FreeSlots.pop_back();
  } else {
    S = static_cast<uint32_t>(Slots.size());
    Slots.emplace_back();
  }
  SnapSlot &Sl = Slots[S];
  Sl.Snap.clear();
  for (const Activation &A : ActivationStack)
    Sl.Snap.push_back(SnapEntry{A.L, A.ActivationId, A.Iteration});
  Sl.Outermost = Sl.Snap.front().ActivationId;
  Sl.Refs = 1; // Held by the top activation until its state changes.
  Top.Slot = S;
  return S;
}

void ProfileCollector::release(uint32_t S) {
  if (S == kEmptySlot)
    return;
  if (--Slots[S].Refs == 0)
    FreeSlots.push_back(S);
}

std::pair<const Loop *, uint64_t>
ProfileCollector::carriedBy(uint32_t S) const {
  // A snapshot and the current stack share a prefix of still-live
  // activations.  Everything past the prefix has been popped (activation
  // ids are never reused), and an activation's iteration only advances
  // while it is on top, so within the prefix only its last entry can be
  // in a later iteration.  That entry carries the dependence when it is
  // still the topmost activation of its loop.
  if (ActivationStack.empty() ||
      Slots[S].Outermost != ActivationStack.front().ActivationId)
    return {nullptr, 0};
  const std::vector<SnapEntry> &Snap = Slots[S].Snap;
  size_t N = std::min(Snap.size(), ActivationStack.size());
  size_t Common = 1;
  while (Common < N &&
         Snap[Common].ActivationId == ActivationStack[Common].ActivationId)
    ++Common;
  const Activation &A = ActivationStack[Common - 1];
  const SnapEntry &E = Snap[Common - 1];
  if (A.Iteration <= E.Iteration ||
      A.Rec->TopDepth != static_cast<int64_t>(Common - 1))
    return {nullptr, 0};
  return {A.L, A.Iteration - E.Iteration};
}

void ProfileCollector::ShadowPageUnmap::operator()(ShadowPage *P) const {
  ::munmap(P, sizeof(ShadowPage));
}

ProfileCollector::ShadowCell *ProfileCollector::shadowCell(uint64_t Addr,
                                                           bool Create) {
  // Page numbers are offset by one in the lookaside so that the zeroed
  // initial ways never match.
  uint64_t PageNo = Addr >> kPageBits;
  auto &Way = PageWays[PageNo & 15];
  if (Way.first != PageNo + 1) {
    auto It = Shadow.find(PageNo);
    if (It == Shadow.end()) {
      if (!Create)
        return nullptr;
      void *Page = ::mmap(nullptr, sizeof(ShadowPage), PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (Page == MAP_FAILED)
        reportFatalError("profiler out of memory (shadow page)");
      It = Shadow
               .emplace(PageNo, std::unique_ptr<ShadowPage, ShadowPageUnmap>(
                                    static_cast<ShadowPage *>(Page)))
               .first;
    }
    Way = {PageNo + 1, It->second.get()};
  }
  return &Way.second->Cells[Addr & (kPageBytes - 1)];
}

//===-- Observer hooks ----------------------------------------------------===//

void ProfileCollector::onGlobalAlloc(const GlobalVariable *G, uint64_t Addr,
                                     uint64_t Bytes) {
  uint32_t Obj = internObject(G, nullptr, 0);
  P.GlobalBases[G] = Addr;
  AddrMap.insert(Addr, Addr + Bytes, Obj);
  ++Generation;
}

void ProfileCollector::onAlloc(const Instruction *Site, uint64_t Addr,
                               uint64_t Bytes) {
  // Keyed by the context string's id, so object identity follows the
  // string exactly as ObjectKey equality does (two call blocks may render
  // the same function/block names).
  uint32_t Obj =
      internObject(nullptr, Site, CtxNodes[CtxStack.back()].StringId);
  AddrMap.insert(Addr, Addr + (Bytes ? Bytes : 1), Obj);
  ++Generation;
  uint32_t S = currentSlot();
  acquire(S);
  auto [It, New] = LiveAllocs.try_emplace(Addr, LiveAlloc{Obj, S});
  if (!New) {
    // An allocation never reported freed (a frame's alloca) whose address
    // the allocator handed out again: the new object replaces it.
    release(It->second.Slot);
    It->second = LiveAlloc{Obj, S};
  }
}

void ProfileCollector::onFree(const Instruction *, uint64_t Addr) {
  auto It = LiveAllocs.find(Addr);
  if (It == LiveAllocs.end())
    return;
  // Lifetime verdict per enclosing loop: short-lived iff freed in the
  // same activation and iteration it was allocated in — that activation
  // must still be live (same stack position and id), be the topmost
  // activation of its loop, and sit in the same iteration.
  const LiveAlloc &LA = It->second;
  const std::vector<SnapEntry> &Snap = Slots[LA.Slot].Snap;
  for (size_t K = 0; K < Snap.size(); ++K) {
    auto &Counts = Lifetimes[{LA.Object, Snap[K].L}];
    ++Counts.first;
    bool Same = K < ActivationStack.size() &&
                ActivationStack[K].ActivationId == Snap[K].ActivationId &&
                ActivationStack[K].Rec->TopDepth ==
                    static_cast<int64_t>(K) &&
                ActivationStack[K].Iteration == Snap[K].Iteration;
    if (!Same)
      ++Counts.second;
  }
  auto Interval = AddrMap.lookupInterval(Addr);
  if (Interval)
    AddrMap.erase(Interval->Lo, Interval->Hi);
  ++Generation;
  release(LA.Slot);
  LiveAllocs.erase(It);
}

void ProfileCollector::onLoad(const Instruction *I, uint64_t Addr,
                              uint64_t Bytes) {
  InstRec &R = instRec(I);
  noteObject(R, Addr);

  // Memory flow-dependence profiling: does this read observe a value
  // written in an earlier iteration of some active loop?  Bytes written
  // in the current loop state cannot; each run of bytes sharing a writer
  // and a state is judged once and sampled once per byte.
  const uint32_t Cur =
      ActivationStack.empty() ? kEmptySlot : ActivationStack.back().Slot;
  for (uint64_t B = 0; B < Bytes;) {
    uint64_t Off = (Addr + B) & (kPageBytes - 1);
    uint64_t N = std::min(Bytes - B, kPageBytes - Off);
    const ShadowCell *C = shadowCell(Addr + B, /*Create=*/false);
    B += N;
    if (!C)
      continue;
    for (uint64_t J = 0; J < N;) {
      const ShadowCell W = C[J];
      uint64_t K = J + 1;
      while (K < N && C[K].Writer == W.Writer && C[K].Slot == W.Slot)
        ++K;
      uint64_t Run = K - J;
      J = K;
      if (!W.Writer || W.Slot == Cur || W.Slot == kEmptySlot)
        continue;
      auto [L, Dist] = carriedBy(W.Slot);
      if (!L)
        continue;
      DepDistance &DS = Deps[DepKey{L, StoreInsts[W.Writer - 1], I}];
      DS.Min = std::min(DS.Min, Dist);
      DS.Max = std::max(DS.Max, Dist);
      DS.Samples += Run;
    }
  }

  // Value-prediction profiling: the first execution of this load in each
  // iteration of each active loop.
  if (ActivationStack.empty())
    return;
  uint64_t Raw = 0;
  std::memcpy(&Raw, reinterpret_cast<const void *>(Addr),
              std::min<uint64_t>(Bytes, 8));
  for (const Activation &A : ActivationStack) {
    PredRec *PR = nullptr;
    for (PredRec &Cand : R.Preds)
      if (Cand.L == A.L) {
        PR = &Cand;
        break;
      }
    if (!PR) {
      R.Preds.push_back(PredRec{A.L});
      PR = &R.Preds.back();
    }
    if (PR->Unpredictable)
      continue;
    if (PR->MarkerAct == A.ActivationId && PR->MarkerIter == A.Iteration)
      continue; // Not the first read this iteration.
    PR->MarkerAct = A.ActivationId;
    PR->MarkerIter = A.Iteration;
    if (!PR->Seen) {
      PR->Seen = true;
      PR->Addr = Addr;
      PR->Bytes = Bytes;
      PR->Raw = Raw;
    } else if (PR->Addr != Addr || PR->Bytes != Bytes || PR->Raw != Raw) {
      PR->Unpredictable = true;
    }
  }
}

void ProfileCollector::onStore(const Instruction *I, uint64_t Addr,
                               uint64_t Bytes) {
  InstRec &R = instRec(I);
  noteObject(R, Addr);
  if (!R.StoreId) {
    StoreInsts.push_back(I);
    R.StoreId = static_cast<uint32_t>(StoreInsts.size());
  }
  const uint32_t S = currentSlot();
  for (uint64_t B = 0; B < Bytes;) {
    uint64_t Off = (Addr + B) & (kPageBytes - 1);
    uint64_t N = std::min(Bytes - B, kPageBytes - Off);
    ShadowCell *C = shadowCell(Addr + B, /*Create=*/true);
    B += N;
    for (uint64_t J = 0; J < N; ++J) {
      ShadowCell &Cell = C[J];
      if (Cell.Writer == R.StoreId && Cell.Slot == S)
        continue;
      if (Cell.Writer)
        release(Cell.Slot);
      Cell.Writer = R.StoreId;
      Cell.Slot = S;
      acquire(S);
    }
  }
}

void ProfileCollector::popActivation() {
  Activation &A = ActivationStack.back();
  A.Rec->Stats->Weight += Work - A.WorkAtEntry;
  A.Rec->TopDepth = A.PrevTopDepth;
  if (A.Slot != kNoSlot)
    release(A.Slot);
  ActivationStack.pop_back();
}

void ProfileCollector::onBlockEnter(const BasicBlock *B,
                                    const BasicBlock *From) {
  // Branch bias (control-speculation profile).
  if (From) {
    BlockInfo &FI = blockInfo(From);
    if (FI.CondBr) {
      if (!FI.Branch)
        FI.Branch = &BranchCounts[FI.CondBr];
      ++FI.Branch->second;
      if (FI.CondBr->blockRef(0) == B)
        ++FI.Branch->first;
    }
  }

  BlockInfo &BI = blockInfo(B);

  // Leave loops this block is outside of (within the current frame).
  size_t Base = FrameBases.back();
  while (ActivationStack.size() > Base &&
         std::find(BI.Containing.begin(), BI.Containing.end(),
                   ActivationStack.back().L) == BI.Containing.end())
    popActivation();

  // Enter or iterate a loop whose header this is.
  if (const Loop *L = BI.HeaderOf) {
    bool BackEdge = ActivationStack.size() > Base &&
                    ActivationStack.back().L == L && From &&
                    L->contains(From);
    LoopRec &Rec = *BI.HeaderRec;
    if (BackEdge) {
      Activation &Top = ActivationStack.back();
      if (Top.Slot != kNoSlot) {
        release(Top.Slot);
        Top.Slot = kNoSlot;
      }
      ++Top.Iteration;
      ++Rec.Stats->Iterations;
    } else {
      ActivationStack.push_back(Activation{L, &Rec, NextActivationId++, 0,
                                           Work, Rec.TopDepth, kNoSlot});
      Rec.TopDepth = static_cast<int64_t>(ActivationStack.size() - 1);
      ++Rec.Stats->Invocations;
      ++Rec.Stats->Iterations;
    }
  }

  // Execution weight: this block's work counts toward every active loop,
  // across frames (callee work accrues to caller loops).  Accrued lazily:
  // an activation's weight is the work done while it was on the stack.
  Work += BI.Size;
}

void ProfileCollector::onCall(const Instruction *Site, const Function *) {
  // "The dynamic context distinguishes dynamic instances of a static
  // instruction by listing the function and loop invocations which
  // enclose that instruction": the call-site chain is the discriminating
  // part (enqueueQ called at line 60 vs line 74 in Figure 2).  A call
  // site is identified by its caller function and block (most call
  // instructions have no result name).
  uint32_t Parent = CtxStack.back();
  const BasicBlock *CallBlock = Site->parent();
  auto [It, New] = CtxChildren.try_emplace({Parent, CallBlock}, 0);
  if (New) {
    It->second = static_cast<uint32_t>(CtxNodes.size());
    std::string Text = CtxNodes[Parent].Text;
    if (!Text.empty())
      Text += ">";
    Text += CallBlock->parent()->name() + "/" + CallBlock->name();
    uint32_t StringId =
        CtxStrings.try_emplace(Text, static_cast<uint32_t>(CtxNodes.size()))
            .first->second;
    CtxNodes.push_back(CtxNode{StringId, std::move(Text)});
  }
  CtxStack.push_back(It->second);
  FrameBases.push_back(ActivationStack.size());
}

void ProfileCollector::onReturn(const Function *) {
  while (ActivationStack.size() > FrameBases.back())
    popActivation();
  FrameBases.pop_back();
  CtxStack.pop_back();
}

Profile ProfileCollector::finish() {
  // Activations still open (a return from inside a loop of the entry
  // function) accrue their outstanding weight.
  while (!ActivationStack.empty())
    popActivation();

  for (const ObjectKey &K : ObjectKeys)
    P.Objects.insert(K);

  // Objects never freed are not short-lived for any loop that was active
  // at their allocation.
  for (const auto &[Addr, Alloc] : LiveAllocs) {
    (void)Addr;
    for (const SnapEntry &E : Slots[Alloc.Slot].Snap) {
      auto &Counts = Lifetimes[{Alloc.Object, E.L}];
      ++Counts.first;
      ++Counts.second;
    }
  }
  LiveAllocs.clear();
  for (const auto &[Key, Counts] : Lifetimes)
    P.Lifetime[{ObjectKeys[Key.first], Key.second}] = Counts;

  for (const auto &[Key, DS] : Deps) {
    FlowDep D{Key.Store, Key.Load};
    P.FlowDeps[Key.L].insert(D);
    P.DepDistances[{Key.L, D}] = DS;
  }

  for (const auto &[I, R] : Insts) {
    if (!R.Objects.empty()) {
      std::set<ObjectKey> &Objs = P.InstObjects[I];
      for (uint32_t Obj : R.Objects)
        Objs.insert(ObjectKeys[Obj]);
    }
    // Materialize surviving value predictions (sign-extended like Load).
    for (const PredRec &PR : R.Preds) {
      if (!PR.Seen || PR.Unpredictable)
        continue;
      int64_t V = 0;
      std::memcpy(&V, &PR.Raw, 8);
      if (PR.Bytes < 8) {
        unsigned Shift = 64 - 8 * static_cast<unsigned>(PR.Bytes);
        V = (V << Shift) >> Shift;
      }
      P.Predictables[{I, PR.L}] = PredictableLoad{I, PR.Addr, PR.Bytes, V};
    }
  }

  for (const auto &[T, C] : BranchCounts)
    P.Branches[T] = C;
  return std::move(P);
}
