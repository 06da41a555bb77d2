//===- runtime/DepChannel.h - Cross-iteration token rings -------*- C++ -*-===//
//
// Part of the Privateer reproduction of "Speculative Separation for
// Privatization and Reductions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Post/wait token channels for speculative DOACROSS scheduling
/// (Strategy::Doacross).  A channel is a fixed-size ring of
/// (tag, value) slots indexed by iteration number; the producer of a
/// cross-iteration value posts it under tag Iter+1 and consumers accept a
/// slot only on an exact tag match, so a slot left over from an earlier
/// loop, epoch, or ring wrap reads as "not yet posted" instead of as a
/// stale value.
///
/// The rings live in one MAP_SHARED region created by runParallel and
/// inherited by every forked worker, which is what lets values cross the
/// copy-on-write isolation boundary that the rest of the speculation
/// system relies on.  Sequential execution (including misspeculation
/// recovery) posts into the same ring in iteration order, overwriting any
/// doomed speculative tokens before a re-executed consumer can read them.
///
/// A late consumer spins for kSpinBudgetNs, then parks in a timed
/// FUTEX_WAIT on its slot's tag word.  One cache line after the rings holds
/// the count of parked consumers, so a producer pays a FUTEX_WAKE only
/// when someone may be asleep (see park() and wakeParked()).
///
//===----------------------------------------------------------------------===//

#ifndef PRIVATEER_RUNTIME_DEPCHANNEL_H
#define PRIVATEER_RUNTIME_DEPCHANNEL_H

#include <atomic>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace privateer {
namespace depchan {

/// Slots per channel ring (power of two).  Correctness requires the ring
/// to out-span the maximum iteration skew between a token's producer and
/// its consumers: one epoch of in-flight iterations (CheckpointPeriod *
/// MaxSlotsPerEpoch, 2048 at the defaults) plus the dependence distance.
/// The dependence-distance analysis rejects loops whose distance bound
/// reaches kRingSlots.
constexpr uint32_t kRingSlots = 16384;

/// One token slot.  Tag holds Iter+1 (0 = never posted).
struct DepSlot {
  std::atomic<uint64_t> Tag;
  std::atomic<uint64_t> Value;
};
static_assert(sizeof(DepSlot) == 16, "DepSlot must stay two words");
// A parked consumer waits on the low 32 bits of Tag, which must therefore
// sit at the slot's address.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "futex word is the low half of DepSlot::Tag");

/// How long a late consumer spins before it parks in the kernel.  It must
/// exceed the futex wake latency (post to woken consumer running: ~7 us
/// p50, ~14 us p99 between two processes on a 4-vCPU x86-64 VM): a
/// shorter spin parks on tokens that were about to arrive and convoys a
/// distance-1 chain into paying one wake per token.
constexpr uint64_t kSpinBudgetNs = 50000;

/// The count of consumers parked (or about to park) on any slot of the
/// mapping.  It lives on its own cache line after the rings.
struct alignas(64) Sleepers {
  std::atomic<uint32_t> Count;
};

inline size_t ringBytes(uint32_t Channels) {
  return static_cast<size_t>(Channels) * kRingSlots * sizeof(DepSlot);
}

/// Bytes of a shared mapping: the rings plus the sleeper line.
inline size_t mappingBytes(uint32_t Channels) {
  return ringBytes(Channels) + sizeof(Sleepers);
}

inline Sleepers *sleepersFor(DepSlot *Base, uint32_t Channels) {
  return reinterpret_cast<Sleepers *>(Base +
                                      static_cast<size_t>(Channels) *
                                          kRingSlots);
}

inline DepSlot &slotFor(DepSlot *Base, uint32_t Chan, uint64_t Iter) {
  return Base[static_cast<size_t>(Chan) * kRingSlots +
              (Iter & (kRingSlots - 1))];
}

inline void post(DepSlot *Base, uint32_t Chan, uint64_t Iter, uint64_t V) {
  DepSlot &S = slotFor(Base, Chan, Iter);
  S.Value.store(V, std::memory_order_relaxed);
  S.Tag.store(Iter + 1, std::memory_order_release);
}

/// Non-blocking probe: true (with *V filled in) when iteration \p Iter's
/// token is present on \p Chan.  The relaxed value read is ordered by the
/// acquire tag load; a producer kRingSlots iterations ahead could in
/// principle overwrite Value between the two loads, but the epoch
/// structure bounds producer/consumer skew far below the ring size.
inline bool probe(DepSlot *Base, uint32_t Chan, uint64_t Iter, uint64_t *V) {
  DepSlot &S = slotFor(Base, Chan, Iter);
  if (S.Tag.load(std::memory_order_acquire) != Iter + 1)
    return false;
  *V = S.Value.load(std::memory_order_relaxed);
  return true;
}

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

inline uint32_t *futexWord(DepSlot &S) {
  return reinterpret_cast<uint32_t *>(&S.Tag);
}

// Why no wake is lost (a Dekker handshake on Sleepers and Tag):
//   consumer (park)                    producer (post + wakeParked)
//   Sleepers += 1        (seq_cst)     Tag = Iter+1       (release)
//   T = Tag              (seq_cst)     fence              (seq_cst)
//   if T != Iter+1: FUTEX_WAIT(T)      if Sleepers != 0: FUTEX_WAKE
// All seq_cst operations and fences form one total order.  If the
// increment comes before the producer's fence, the producer's load sees a
// non-zero count and wakes.  Otherwise the fence comes before the
// increment and so before the consumer's re-check, which then sees the new
// tag and does not sleep.  Between the re-check and the kernel's own
// compare of the futex word, a post makes FUTEX_WAIT return at once
// (EAGAIN) because the word no longer holds T.  Every wait is also timed,
// so even a lost wake would cost one timeout, never a hang.
//
// The rings are MAP_SHARED and the workers are separate processes, so the
// futex is a shared one: FUTEX_PRIVATE_FLAG would key the wait on this
// process's address space and the producer's wake would never find it.

/// Parks the calling consumer of iteration \p Iter for at most \p
/// TimeoutNs or until a producer posts to \p S.  Returns false without
/// entering the kernel when the token arrived in the meantime.
inline bool park(DepSlot &S, uint64_t Iter, Sleepers &Z, uint64_t TimeoutNs) {
  Z.Count.fetch_add(1, std::memory_order_seq_cst);
  uint64_t T = S.Tag.load(std::memory_order_seq_cst);
  bool Parked = T != Iter + 1;
  if (Parked) {
    timespec Ts{static_cast<time_t>(TimeoutNs / 1000000000),
                static_cast<long>(TimeoutNs % 1000000000)};
    syscall(SYS_futex, futexWord(S), FUTEX_WAIT, static_cast<uint32_t>(T),
            &Ts, nullptr, 0);
  }
  Z.Count.fetch_sub(1, std::memory_order_relaxed);
  return Parked;
}

/// The producer half of the handshake: call after post() on \p S.
inline void wakeParked(DepSlot &S, Sleepers &Z) {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (Z.Count.load(std::memory_order_relaxed) != 0)
    syscall(SYS_futex, futexWord(S), FUTEX_WAKE, INT_MAX, nullptr, nullptr,
            0);
}

} // namespace depchan
} // namespace privateer

#endif // PRIVATEER_RUNTIME_DEPCHANNEL_H
