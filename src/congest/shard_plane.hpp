#pragma once

/// \file shard_plane.hpp
/// The round engine's delivery plane: aggregate / exchange / deaggregate.
///
/// Every Network delivers through a ShardPlane.  The vertex set is split
/// into S contiguous shards (S = 1 unless `Network::set_shards` or
/// XD_SHARDS says otherwise; worker threads today, and the buffer wire
/// format below is exactly what a process or socket boundary would ship).
/// Each sender shard stages its messages into S per-destination-shard
/// *aggregation buffers* -- packed `(slot, from, msg)` records -- and
/// delivery becomes an S x S bulk buffer exchange followed by a per-shard
/// canonicalize + scatter into that shard's slice of one inbox arena.  No
/// shared staging vector, no global sort.
///
/// The shard-invariance argument (docs/sharding.md in full): directed slots
/// are grouped by sender vertex and shards own contiguous vertex ranges, so
///   (a) every directed slot lives in exactly one (sender shard, dest
///       shard) buffer, which makes per-buffer congestion runs globally
///       exact, and
///   (b) scanning a receiver shard's S incoming buffers in sender-shard
///       order visits each receiver's messages in ascending directed-slot
///       order -- the canonical delivery order.
/// Every S reproduces the same inboxes and round charges bit-for-bit at
/// any worker count (pinned against the independent delivery oracle in
/// tests/oracles/delivery_oracle.hpp by tests/shard_test.cpp, and by the
/// *_sharded golden CTest variants).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "congest/engine.hpp"
#include "congest/message.hpp"
#include "graph/graph.hpp"

namespace xd::congest {

/// Per-delivery totals and timings, per destination shard -- the
/// buffer/scatter breakdown `bench_kernel` emits into
/// BENCH_kernel_summary.json.
struct ShardDeliveryStats {
  struct PerShard {
    double buffer_ms = 0.0;   ///< canonicalize + congestion + receiver counts
    double scatter_ms = 0.0;  ///< offset publication + arena scatter
    std::uint64_t received = 0;
  };
  /// Wire-exchange transport counters, cumulative since configure() (the
  /// fault-armed frame path only; the in-memory fast path ships no frames).
  struct Wire {
    std::uint64_t frames = 0;       ///< frames emitted, incl. retransmits
    std::uint64_t retransmits = 0;  ///< frames re-emitted after a bad attempt
    std::uint64_t dropped = 0;      ///< frames lost to injected drops
    std::uint64_t corrupted = 0;    ///< frames rejected (CRC / structure)
    std::uint64_t duplicates = 0;   ///< valid copies discarded as duplicates
    std::uint64_t reordered = 0;    ///< arrival batches delivered reversed
  };
  std::vector<PerShard> shard;
  Wire wire;
  std::uint64_t max_congestion = 0;
  std::size_t staged = 0;
};

/// Wire format of one aggregation buffer ("XDSB" version 2): a 40-byte
/// header {magic u32, version u32, sender shard u32, dest shard u32, record
/// count u64, sequence u64, crc32c u32, reserved u32} followed by `count`
/// packed 28-byte records {slot u32, from u32, Message{tag u32, words[2]
/// u64}}, all little-endian.  The CRC-32C covers the whole frame with the
/// crc field's four bytes taken as zero; the sequence number stamps every
/// frame of one logical exchange so stale retransmits are rejectable.
/// deliver() swaps buffers through shared memory; a process-boundary
/// transport would ship exactly these bytes (docs/sharding.md,
/// docs/robustness.md).
inline constexpr std::uint32_t kShardBufferMagic = 0x42534458u;  // "XDSB"
inline constexpr std::uint32_t kShardBufferVersion = 2;

[[nodiscard]] std::vector<unsigned char> encode_shard_buffer(
    std::uint32_t sender_shard, std::uint32_t dest_shard,
    const detail::StagingBuffer& buf, std::uint64_t seq = 0);
/// Strict decode: throws CheckError on any structural or integrity defect.
/// `seq` (optional) receives the frame's sequence number.
void decode_shard_buffer(std::span<const unsigned char> bytes,
                         std::uint32_t* sender_shard, std::uint32_t* dest_shard,
                         detail::StagingBuffer* out,
                         std::uint64_t* seq = nullptr);
/// Non-throwing decode for transport loops that expect damaged frames:
/// returns false (and leaves *out unspecified) instead of throwing.
[[nodiscard]] bool try_decode_shard_buffer(std::span<const unsigned char> bytes,
                                           std::uint32_t* sender_shard,
                                           std::uint32_t* dest_shard,
                                           detail::StagingBuffer* out,
                                           std::uint64_t* seq = nullptr);

/// The S-shard delivery plane every Network owns.  All staging entry points
/// validate in Network first.
class ShardPlane {
 public:
  /// Partition the graph's vertices into `shards` contiguous ranges
  /// (range s = [n*s/S, n*(s+1)/S), the scheduler's partition formula).
  void configure(const Graph& g, int shards);

  [[nodiscard]] int shards() const { return shards_; }
  [[nodiscard]] int shard_of(VertexId v) const {
    return static_cast<int>(vshard_[v]);
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(int s) const {
    return {bounds_[static_cast<std::size_t>(s)],
            bounds_[static_cast<std::size_t>(s) + 1]};
  }

  /// Stage one pre-validated record from `sender_shard` (== shard_of(from)).
  /// Distinct sender shards may stage concurrently (disjoint buffer rows).
  /// Every staging entry point (send, send_to, and the run_round send
  /// phase) lands here, so records arrive pre-partitioned -- delivery never
  /// re-scans a mixed buffer.
  void stage(int sender_shard, std::uint32_t global_slot, VertexId from,
             const Message& msg) {
    // One shard needs no receiver lookup (a random read per message).
    const int dest =
        shards_ == 1 ? 0 : shard_of(graph_->slot_target(global_slot));
    bufs_[index(sender_shard, dest)].push(global_slot, from, msg);
  }

  /// The S x S buffer exchange + per-shard scatter.  Canonicalizes every
  /// buffer, reads congestion off the per-slot runs, publishes the global
  /// CSR inbox offsets, and fills the inbox arena.  Aggregation buffers are
  /// cleared afterwards (capacity retained); totals and per-shard timings
  /// land in last_delivery().  Runs on min(workers, shards) threads.
  void deliver(int workers);

  /// Messages delivered to v by the last deliver(), in canonical order.
  [[nodiscard]] std::span<const Envelope> inbox(VertexId v) const {
    return {arena_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Records staged across all aggregation buffers (diagnostics).
  [[nodiscard]] std::size_t staged() const;

  [[nodiscard]] const ShardDeliveryStats& last_delivery() const {
    return stats_;
  }

 private:
  [[nodiscard]] std::size_t index(int sender, int dest) const {
    return static_cast<std::size_t>(sender) *
               static_cast<std::size_t>(shards_) +
           static_cast<std::size_t>(dest);
  }

  /// Fault-armed transport step, run serially at the top of deliver():
  /// every aggregation buffer crosses the exchange as an XDSB v2 frame,
  /// injected faults (shard.drop / corrupt / dup / reorder) damage frames
  /// in flight, and each destination column recovers by bounded re-request
  /// from the senders' retained staging copies.  Decoded buffers replace
  /// the originals, and phase A canonicalizes them like any other buffer
  /// -- bit-identical results under any recoverable fault schedule.
  /// Exhausted retries throw CheckError.
  void wire_exchange();

  /// Phase A for dest shard s: one fused pass per incoming buffer detects
  /// sortedness, reads per-slot congestion runs and counts per-receiver
  /// messages; an unsorted buffer falls back to a stable (slot, index) key
  /// sort recorded in order_.
  void phase_count(int s);
  /// Phase B for dest shard s: publish its slice of the global offsets,
  /// scatter the S buffers in sender-shard order into its arena slice.
  void phase_scatter(int s);

  const Graph* graph_ = nullptr;
  int shards_ = 1;
  std::vector<std::size_t> bounds_;    ///< size S+1: shard vertex ranges
  std::vector<std::uint32_t> vshard_;  ///< size n: vertex -> shard
  /// S x S aggregation buffers, row-major by sender shard.
  std::vector<detail::StagingBuffer> bufs_;
  /// Per buffer: canonical visit order when the staged order was unsorted
  /// (empty = already canonical, visit in staging order).
  std::vector<std::vector<std::uint32_t>> order_;
  std::vector<std::uint64_t> buf_congestion_;  ///< per buffer, phase A
  /// Per dest shard: receiver counts/cursors and (slot, index) key scratch.
  std::vector<std::vector<std::uint32_t>> counts_;
  std::vector<std::vector<std::uint64_t>> key_scratch_;
  /// Size S+1: arena position where each dest shard's slice begins.
  std::vector<std::uint32_t> shard_msg_base_;
  /// The inbox arena (dest shards own disjoint slices) and its global CSR
  /// offsets (size n+1).
  std::vector<Envelope> arena_;
  std::vector<std::uint32_t> offsets_;
  /// Logical-exchange sequence stamped into every wire frame.
  std::uint64_t exchange_seq_ = 0;
  ShardDeliveryStats stats_;
};

}  // namespace xd::congest
