#pragma once

/// \file intersect.hpp
/// Hybrid sorted-range intersection kernels for the triangle planes.
///
/// Every consumer of adjacency intersection in the repo -- the CSR merge
/// join (baseline_local.hpp) behind the local baseline and the clustered
/// and CONGESTED-CLIQUE planes' edge listing (edge_listing.hpp) -- funnels
/// through this interface.  Three kernel classes cover the degree
/// spectrum (docs/triangle.md, "Intersection kernels"):
///
///  * **scalar** -- two-pointer merge, switching to per-element binary
///    search under heavy size skew.  The portable fallback and the
///    differential oracle: `XD_FORCE_SCALAR=1` (or set_force_scalar) pins
///    every call here, and all kernels produce the identical ascending
///    match sequence, so forced-scalar and dispatched runs are
///    bit-identical end to end.
///  * **merge** -- vectorized two-pointer over sorted ranges: 8-wide AVX2
///    compare-shuffle blocks (all-pairs lane compare, mask-compress store)
///    with a 4-wide SSE2 variant and a scalar tail.  Selected for
///    mid-degree ranges when both sides clear kMergeMinSize.
///  * **bitmap** -- an epoch-stamped bitmap (util/bitset_arena.hpp) of a
///    high-degree "hub" range, built once and probed per query range; when
///    the query itself is dense over the hub's span the probe collapses to
///    64-bit word AND + bit extraction (AVX2 where available).  Selected by
///    the consumer when the reused side's degree clears kBitmapMinDegree.
///
/// The ISA is picked once at startup (runtime CPU detection over kernels
/// compiled in a per-TU -mavx2 translation unit) and every call records
/// per-kernel-class counters (calls, elements, matches, and -- when timing
/// is enabled by a bench -- nanoseconds), so speedups are attributable per
/// kernel rather than anecdotal (bench_triangle E4d).

#include <cstddef>
#include <cstdint>

#include "util/bitset_arena.hpp"

namespace xd::triangle::intersect {

// ------------------------------------------------------------- kernels --

enum class Kernel : std::uint8_t { kScalar = 0, kMerge = 1, kBitmap = 2 };
inline constexpr std::size_t kKernelCount = 3;

/// Stable lowercase name for JSON/bench output ("scalar"/"merge"/"bitmap").
const char* kernel_name(Kernel k);

/// Vectorized kernels may store one full SIMD lane past the last match;
/// output buffers need this much slack beyond min(na, nb).
inline constexpr std::size_t kOutSlack = 8;

/// Below this size on either side the merge kernel falls back to scalar
/// (SIMD setup does not amortize).
inline constexpr std::size_t kMergeMinSize = 16;

/// Consumers switch the *reused* side of an intersection (hub vertex
/// adjacency) to the bitmap kernel at this degree.
inline constexpr std::size_t kBitmapMinDegree = 64;

/// Intersects the strictly-ascending ranges [a, a+na) and [b, b+nb),
/// writing the common values (ascending) to `out` and returning the count.
/// `out` must hold min(na, nb) + kOutSlack entries.  Dispatches to the
/// active merge kernel, falling back to scalar for tiny or forced-scalar
/// calls.  All variants produce the identical output sequence.
std::size_t intersect_sorted(const std::uint32_t* a, std::size_t na,
                             const std::uint32_t* b, std::size_t nb,
                             std::uint32_t* out);

/// The scalar kernel, callable directly (differential oracle).
std::size_t intersect_scalar(const std::uint32_t* a, std::size_t na,
                             const std::uint32_t* b, std::size_t nb,
                             std::uint32_t* out);

/// The vectorized merge kernel for the active ISA (scalar tail included);
/// equals intersect_scalar's output on every input.
std::size_t intersect_merge(const std::uint32_t* a, std::size_t na,
                            const std::uint32_t* b, std::size_t nb,
                            std::uint32_t* out);

/// Amortized bitmap kernel: build(range R) once per hub, then probe each
/// query range Q for Q ∩ R.  Probing walks Q with stamped bit tests, or --
/// when Q is dense over R's span -- builds Q's bitmap too and extracts
/// matches from 64-bit word ANDs.  Matches come back ascending, identical
/// to the other kernels on the same (R, Q).
class BitmapIntersect {
 public:
  /// Stamps a fresh epoch and sets the bits of the strictly-ascending
  /// range [r, r+nr).  O(nr).
  void build(const std::uint32_t* r, std::size_t nr);

  /// Writes the ascending values of [q, q+nq) ∩ R to `out` (capacity
  /// nq + kOutSlack) and returns the count.
  std::size_t probe(const std::uint32_t* q, std::size_t nq,
                    std::uint32_t* out);

  /// The calling thread's arena (hub bitmaps are built and drained within
  /// one consumer loop; scheduler work items are thread-disjoint).
  static BitmapIntersect& for_thread();

  [[nodiscard]] const util::StampedBitset& bits() const { return r_bits_; }

 private:
  util::StampedBitset r_bits_;  ///< the reused (hub) side
  util::StampedBitset q_bits_;  ///< scratch for the dense word-AND path
  std::uint32_t r_min_ = 0;
  std::uint32_t r_max_ = 0;
  std::size_t nr_ = 0;
};

/// True when the consumer should route a reused range of this degree
/// through BitmapIntersect (false under forced scalar).
bool use_bitmap(std::size_t reused_degree);

// ------------------------------------------------------------ dispatch --

enum class Isa : std::uint8_t { kScalarOnly = 0, kSse2 = 1, kAvx2 = 2 };

/// The merge-kernel ISA in effect (CPU detection ∧ compiled-in kernels ∧
/// not forced scalar).
Isa active_isa();

/// Stable name for JSON/bench output ("scalar"/"sse2"/"avx2").
const char* isa_name(Isa isa);

/// Forces every call through the scalar kernel class.  Initialized from
/// the XD_FORCE_SCALAR environment variable (non-empty, not "0"); this
/// setter is the test/bench override.
void set_force_scalar(bool on);
bool force_scalar();

// --------------------------------------------------------------- stats --

struct KernelCounters {
  std::uint64_t calls = 0;
  std::uint64_t elements = 0;  ///< input elements consumed (na + nb)
  std::uint64_t matches = 0;
  std::uint64_t ns = 0;  ///< accumulated only while timing is enabled
};

struct KernelStats {
  KernelCounters k[kKernelCount];

  [[nodiscard]] const KernelCounters& of(Kernel kernel) const {
    return k[static_cast<std::size_t>(kernel)];
  }
};

/// The calling thread's accumulated counters (kernels run on scheduler
/// worker threads accumulate into their own slots).
KernelStats& stats_for_thread();
void reset_thread_stats();

/// Per-call steady_clock timing for the ns counters; benches flip this on
/// around the measured region (global, off by default -- the counters stay
/// cheap adds on the hot path).
void set_timing_enabled(bool on);
bool timing_enabled();

// ------------------------------------------- AVX2 TU internal surface --

namespace detail {
/// True iff the dedicated translation unit was compiled with AVX2 support
/// (per-TU -mavx2); dispatch requires this AND runtime CPU support.
bool avx2_compiled();

/// 8-wide compare-shuffle merge; only called when avx2_compiled() and the
/// CPU supports AVX2.
std::size_t intersect_merge_avx2(const std::uint32_t* a, std::size_t na,
                                 const std::uint32_t* b, std::size_t nb,
                                 std::uint32_t* out);

/// Word-AND + extract over interleaved stamped slabs for words
/// [w_lo, w_hi); a slot's word participates only if its stamp matches its
/// slab's epoch.
std::size_t bitmap_and_extract_avx2(const util::StampedSlot* r,
                                    std::uint64_t r_epoch,
                                    const util::StampedSlot* q,
                                    std::uint64_t q_epoch, std::size_t w_lo,
                                    std::size_t w_hi, std::uint32_t* out);
}  // namespace detail

}  // namespace xd::triangle::intersect
