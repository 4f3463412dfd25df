#pragma once

/// \file scheduler.hpp
/// Host-side fork/join pool for independent simulation work items.
///
/// The paper's round bounds assume the algorithm runs on all disjoint
/// components *in parallel* -- one CONGEST network, one clock.  The epoch
/// scheduler is the host half of that model: the decomposition driver (and
/// the triangle enumerator's per-cluster stage) collects every active
/// component of a recursion level into one batch -- an *epoch* -- and runs
/// the items concurrently here, each with its own forked RoundLedger branch
/// (ledger.hpp) and its own seed-split Rng.
///
/// Determinism contract (matching the round engine's bit-identical rule,
/// docs/engine.md): items of an epoch are vertex-disjoint, so an item's
/// computation depends only on its own inputs -- pre-forked RNG, private
/// ledger branch, and a snapshot of shared state that no item mutates.
/// Which host thread runs an item, and in what order items finish, can
/// never change what any item computes; callers merge the per-item outputs
/// in item-index order, so the combined result is bit-identical at any
/// thread count.  Round accounting is covered in docs/rounds.md.
///
/// Item width: an epoch with fewer items than threads would leave threads
/// idle -- a lone component (a certified expander, the one enumeration
/// cluster of a connected graph) would run on one core.  So each item of
/// an epoch with n < threads items gets a *width* of threads / n host
/// threads, and every other item width 1.  run() publishes the width to
/// the item through item_width(); the few kernels that can use it (the
/// planned power iteration of spectral/mixing.hpp, the Nibble sweep of
/// sparsecut/nibble.cpp) split their work across a run_team() of that many
/// threads.  They keep every floating-point sum in its sequential
/// order, so width, like thread count, shapes wall-clock only.  Width-1
/// paths start no thread.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "congest/ledger.hpp"

namespace xd::congest {

namespace detail {

/// Test hook: called with the worker index immediately before that worker's
/// std::thread is constructed; a throwing hook simulates thread creation
/// failing mid-loop (resource exhaustion).  Backed by the fault-plane
/// registry's "sched.spawn" hook slot (util/fault_plane.hpp), so setting it
/// is thread-safe; pass {} to reset.  The fault plane's own sched.* sites
/// (sched.spawn / sched.stall / sched.throw) inject the same failures from
/// an XD_FAULTS spec without any hook.
void set_spawn_fault_hook_for_testing(std::function<void(int)> hook);

}  // namespace detail

/// The barrier of a run_team() region.  When a team member fails (throws,
/// or is never spawned), the barrier breaks: every current and later
/// sync() throws instead of waiting for a member that will never arrive.
class TeamBarrier {
 public:
  explicit TeamBarrier(int size) : size_(size) {}

  /// Blocks until all `size` members have called sync() (spins briefly,
  /// then sleeps on the generation counter).  Throws CheckError once the
  /// barrier is broken.
  void sync();
  /// Breaks the barrier, waking every waiter.
  void abort();

 private:
  int size_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint32_t> generation_{0};
  std::atomic<bool> broken_{false};
};

/// Runs batches ("epochs") of independent work items on a pool of host
/// threads.  Work-sharing: workers pull the next unclaimed item index from
/// a shared cursor, so one oversized component keeps the remaining workers
/// busy on the rest of the level instead of idling behind it.
class EpochScheduler {
 public:
  explicit EpochScheduler(int threads = 1) { set_threads(threads); }

  /// Host threads used by run(); >= 1.  Thread count shapes wall-clock
  /// only, never results.
  void set_threads(int threads);
  [[nodiscard]] int threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, n) and returns after all complete (the
  /// epoch barrier).  fn must only mutate item-local state; exceptions
  /// propagate (first one wins, matching the round engine's behavior).
  void run(std::size_t n, const std::function<void(std::size_t)>& fn) const;

  /// The concurrent-epoch idiom in one call: forks one branch of `root`
  /// per item, runs fn(i, branch_i) as an epoch, and joins at the barrier
  /// (rounds advance by the epoch max -- ledger.hpp).  The join runs even
  /// when an item throws: the aborted epoch's partial branch charges merge
  /// and `root` never carries stale forked children into a later epoch.
  void run_forked(
      RoundLedger& root, std::size_t n,
      const std::function<void(std::size_t, RoundLedger&)>& fn) const;

  /// Static contiguous partition: body(worker, lo, hi) over [0, n) split
  /// into `workers` ranges.  This is the round engine's phase executor
  /// (Network::run_round): per-worker ranges with per-worker buffers,
  /// merged in worker order, keep delivery canonical.  Exposed here so the
  /// engine and the scheduler share one pool idiom.
  static void run_partitioned(
      std::size_t n, int workers,
      const std::function<void(int, std::size_t, std::size_t)>& body);

  /// The width the calling thread's current item may use (see the file
  /// comment); 1 outside any epoch and inside a team member.
  static int item_width();

  /// One parallel region: body(member, barrier) for members 0..width-1,
  /// which share `barrier`, joined before returning.  The calling thread
  /// runs member 0 and width - 1 threads run the others, so width == 1
  /// starts no thread.  Threads start through the same spawn path as run(),
  /// so its fault sites and first-exception propagation cover the team; a
  /// failing member breaks the barrier.
  static void run_team(int width,
                       const std::function<void(int, TeamBarrier&)>& body);

 private:
  int threads_ = 1;
};

}  // namespace xd::congest
