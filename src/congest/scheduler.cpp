#include "congest/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/fault_plane.hpp"

namespace xd::congest {

namespace detail {

void set_spawn_fault_hook_for_testing(std::function<void(int)> hook) {
  FaultPlane::instance().set_hook("sched.spawn", std::move(hook));
}

}  // namespace detail

namespace {

/// Runs `body(worker)` for workers 0..workers-1 on their own threads,
/// joins them, and rethrows the first exception so XD_CHECK failures inside
/// a worker surface as the same catchable error the serial path gives.
/// Worker fault sites (sched.spawn before construction, sched.stall /
/// sched.throw inside the worker) inject resource exhaustion, stragglers,
/// and mid-epoch errors on demand; either way every spawned thread is
/// joined exactly once.  For a team, the calling thread is member 0: it
/// spawns members 1..workers-1 and runs body(0) itself, through the same
/// stall and throw sites, before joining.  A team's barrier breaks on any
/// failure, so members waiting on a member that threw or never started
/// wake up instead of deadlocking the join.
void spawn_join(int workers, const std::function<void(int)>& body,
                TeamBarrier* team = nullptr) {
  FaultPlane& faults = FaultPlane::instance();
  const bool sched_armed = faults.armed(FaultCategory::kSched);
  std::exception_ptr first_error;
  std::mutex error_mu;
  const auto run_worker = [&](int w) {
    try {
      if (sched_armed) {
        if (faults.should_fire("sched.stall", static_cast<std::uint64_t>(w))) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        if (faults.should_fire("sched.throw", static_cast<std::uint64_t>(w))) {
          throw CheckError("injected fault: sched.throw in worker " +
                           std::to_string(w));
        }
      }
      body(w);
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      if (team) team->abort();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  try {
    for (int w = team ? 1 : 0; w < workers; ++w) {
      if (sched_armed) {
        faults.call_hook("sched.spawn", w);
        if (faults.should_fire("sched.spawn",
                               static_cast<std::uint64_t>(w))) {
          throw CheckError("injected fault: sched.spawn at worker " +
                           std::to_string(w));
        }
      }
      pool.emplace_back([&run_worker, w] { run_worker(w); });
    }
  } catch (...) {
    // std::thread construction failed mid-loop (resource exhaustion).
    // Destroying a joinable thread is std::terminate, so join the partial
    // pool before surfacing the spawn failure.  Body exceptions from those
    // workers are dropped in favor of the spawn error -- the epoch did not
    // run at full width, so its partial results are void anyway.
    if (team) team->abort();
    for (auto& t : pool) t.join();
    throw;
  }
  if (team) run_worker(0);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

/// Spin-wait hint: lets the sibling hyperthread run while we poll.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Width of the item the calling thread is running (EpochScheduler::run).
thread_local int tls_item_width = 1;

/// Publishes an item's width for the duration of fn(i).
class WidthScope {
 public:
  explicit WidthScope(int width) : saved_(tls_item_width) {
    tls_item_width = width;
  }
  ~WidthScope() { tls_item_width = saved_; }
  WidthScope(const WidthScope&) = delete;
  WidthScope& operator=(const WidthScope&) = delete;

 private:
  int saved_;
};

}  // namespace

void TeamBarrier::sync() {
  if (size_ == 1) return;
  const auto check_intact = [&] {
    if (broken_.load()) {
      throw CheckError("team barrier broken by a failed member");
    }
  };
  // The generation is read before the broken flag: an abort() that the
  // flag check misses bumps the generation after this read, so the wait
  // below still wakes.
  const std::uint32_t gen = generation_.load();
  check_intact();
  if (arrived_.fetch_add(1) + 1 == size_) {
    arrived_.store(0);
    generation_.fetch_add(1);
    generation_.notify_all();
  } else {
    // Team phases are short: spin through a typical one before sleeping.
    for (int spin = 0; spin < (1 << 14) && generation_.load() == gen; ++spin) {
      cpu_relax();
    }
    while (generation_.load() == gen) generation_.wait(gen);
  }
  check_intact();
}

void TeamBarrier::abort() {
  broken_.store(true);
  generation_.fetch_add(1);
  generation_.notify_all();
}

int EpochScheduler::item_width() { return tls_item_width; }

void EpochScheduler::run_team(
    int width, const std::function<void(int, TeamBarrier&)>& body) {
  XD_CHECK_MSG(width >= 1, "team width must be >= 1");
  TeamBarrier barrier(width);
  // Members are not epoch items: each runs at width 1, the caller too.
  const auto member = [&](int w) {
    const WidthScope scope(1);
    body(w, barrier);
  };
  if (width == 1) {
    member(0);
    return;
  }
  spawn_join(width, member, &barrier);
}

void EpochScheduler::set_threads(int threads) {
  XD_CHECK_MSG(threads >= 1, "scheduler thread count must be >= 1");
  threads_ = threads;
}

void EpochScheduler::run(std::size_t n,
                         const std::function<void(std::size_t)>& fn) const {
  const int workers =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(threads_),
                                             n ? n : 1));
  // Items of an epoch narrower than the pool share its idle threads.
  const int width = n >= 1 && n < static_cast<std::size_t>(threads_)
                        ? threads_ / static_cast<int>(n)
                        : 1;
  if (workers <= 1) {
    const WidthScope scope(width);
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  spawn_join(workers, [&](int /*w*/) {
    const WidthScope scope(width);
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  });
}

void EpochScheduler::run_forked(
    RoundLedger& root, std::size_t n,
    const std::function<void(std::size_t, RoundLedger&)>& fn) const {
  std::vector<RoundLedger*> branches;
  branches.reserve(n);
  for (std::size_t i = 0; i < n; ++i) branches.push_back(&root.fork());
  try {
    run(n, [&](std::size_t i) { fn(i, *branches[i]); });
  } catch (...) {
    root.join();
    throw;
  }
  root.join();
}

void EpochScheduler::run_partitioned(
    std::size_t n, int workers,
    const std::function<void(int, std::size_t, std::size_t)>& body) {
  XD_CHECK_MSG(workers >= 1, "worker count must be >= 1");
  if (workers == 1) {
    body(0, 0, n);
    return;
  }
  spawn_join(workers, [&](int w) {
    const std::size_t lo =
        n * static_cast<std::size_t>(w) / static_cast<std::size_t>(workers);
    const std::size_t hi = n * (static_cast<std::size_t>(w) + 1) /
                           static_cast<std::size_t>(workers);
    body(w, lo, hi);
  });
}

}  // namespace xd::congest
