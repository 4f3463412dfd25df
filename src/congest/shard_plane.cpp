#include "congest/shard_plane.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>

#include "congest/scheduler.hpp"
#include "util/check.hpp"
#include "util/crc32c.hpp"
#include "util/fault_plane.hpp"

namespace xd::congest {

namespace {

constexpr std::size_t kWireHeaderBytes = 40;
constexpr std::size_t kWireCrcOffset = 32;
constexpr std::size_t kWireRecordBytes = 28;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int clamp_workers(int workers, int shards) {
  return std::max(1, std::min(workers, shards));
}

/// Sorts `keys`, whose prefix [0, sorted_prefix) is already ascending.
/// Protocol traffic is usually almost in order -- a vertex that answers its
/// parent with send_to after a slot-ascending broadcast displaces one record
/// by a few places -- so an insertion sort with a move budget finishes in
/// near-linear time; a batch with more disorder than the budget falls back
/// to std::sort.
void sort_nearly_sorted(std::vector<std::uint64_t>& keys,
                        std::size_t sorted_prefix) {
  const std::size_t m = keys.size();
  std::size_t budget = 8 * m;
  for (std::size_t j = std::max<std::size_t>(sorted_prefix, 1); j < m; ++j) {
    const std::uint64_t key = keys[j];
    std::size_t k = j;
    for (; k > 0 && keys[k - 1] > key && budget > 0; --k, --budget) {
      keys[k] = keys[k - 1];
    }
    keys[k] = key;
    if (budget == 0) {
      std::sort(keys.begin(), keys.end());
      return;
    }
  }
}

}  // namespace

// ------------------------------------------------------------- wire format --

namespace {

/// CRC-32C of a v2 frame with the crc field's own four bytes taken as zero
/// (three streaming chunks; the xor conventions cancel across calls).
std::uint32_t frame_crc(std::span<const unsigned char> bytes) {
  static constexpr unsigned char kZero[4] = {0, 0, 0, 0};
  std::uint32_t c = crc32c(bytes.data(), kWireCrcOffset);
  c = crc32c_update(c, kZero, 4);
  return crc32c_update(c, bytes.data() + kWireCrcOffset + 4,
                       bytes.size() - kWireCrcOffset - 4);
}

/// Shared decode core: fills the outputs and returns true, or (for any
/// structural or integrity defect) writes a diagnostic into *err and
/// returns false.  Every byte read is bounds-checked before the read, so
/// arbitrarily damaged frames are rejected, never UB.
bool decode_impl(std::span<const unsigned char> bytes,
                 std::uint32_t* sender_shard, std::uint32_t* dest_shard,
                 detail::StagingBuffer* out, std::uint64_t* seq,
                 std::string* err) {
  const auto fail = [err](auto&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    *err = os.str();
    return false;
  };
  if (bytes.size() < kWireHeaderBytes) {
    return fail("shard buffer truncated: ", bytes.size(),
                " bytes, header needs ", kWireHeaderBytes);
  }
  const unsigned char* p = bytes.data();
  auto get32 = [&p] {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    p += 4;
    return v;
  };
  auto get64 = [&p] {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    return v;
  };
  const std::uint32_t magic = get32();
  if (magic != kShardBufferMagic) {
    return fail("shard buffer bad magic ", magic);
  }
  const std::uint32_t version = get32();
  if (version != kShardBufferVersion) {
    return fail("shard buffer version ", version, " unsupported (want ",
                kShardBufferVersion, ")");
  }
  *sender_shard = get32();
  *dest_shard = get32();
  const std::uint64_t count = get64();
  const std::uint64_t frame_seq = get64();
  const std::uint32_t stored_crc = get32();
  get32();  // reserved
  if (stored_crc != frame_crc(bytes)) {
    return fail("shard buffer CRC mismatch (stored ", stored_crc, ")");
  }
  if (seq != nullptr) *seq = frame_seq;
  if (count > (bytes.size() - kWireHeaderBytes) / kWireRecordBytes ||
      bytes.size() != kWireHeaderBytes + kWireRecordBytes * count) {
    return fail("shard buffer size ", bytes.size(), " != header + ", count,
                " records");
  }
  out->clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t slot = get32();
    const VertexId from = get32();
    Message msg;
    msg.tag = get32();
    msg.words[0] = get64();
    msg.words[1] = get64();
    out->push(slot, from, msg);
  }
  return true;
}

}  // namespace

std::vector<unsigned char> encode_shard_buffer(
    std::uint32_t sender_shard, std::uint32_t dest_shard,
    const detail::StagingBuffer& buf, std::uint64_t seq) {
  const std::uint64_t count = buf.size();
  std::vector<unsigned char> out(kWireHeaderBytes + kWireRecordBytes * count);
  unsigned char* p = out.data();
  auto put32 = [&p](std::uint32_t v) {
    std::memcpy(p, &v, 4);
    p += 4;
  };
  auto put64 = [&p](std::uint64_t v) {
    std::memcpy(p, &v, 8);
    p += 8;
  };
  put32(kShardBufferMagic);
  put32(kShardBufferVersion);
  put32(sender_shard);
  put32(dest_shard);
  put64(count);
  put64(seq);
  put32(0);  // crc placeholder, patched below
  put32(0);  // reserved
  for (std::size_t i = 0; i < count; ++i) {
    put32(buf.slot[i]);
    put32(buf.from[i]);
    put32(buf.msg[i].tag);
    put64(buf.msg[i].words[0]);
    put64(buf.msg[i].words[1]);
  }
  const std::uint32_t crc = frame_crc(out);
  std::memcpy(out.data() + kWireCrcOffset, &crc, 4);
  return out;
}

void decode_shard_buffer(std::span<const unsigned char> bytes,
                         std::uint32_t* sender_shard, std::uint32_t* dest_shard,
                         detail::StagingBuffer* out, std::uint64_t* seq) {
  std::string err;
  XD_CHECK_MSG(decode_impl(bytes, sender_shard, dest_shard, out, seq, &err),
               err);
}

bool try_decode_shard_buffer(std::span<const unsigned char> bytes,
                             std::uint32_t* sender_shard,
                             std::uint32_t* dest_shard,
                             detail::StagingBuffer* out, std::uint64_t* seq) {
  std::string err;
  return decode_impl(bytes, sender_shard, dest_shard, out, seq, &err);
}

// -------------------------------------------------------------- ShardPlane --

void ShardPlane::configure(const Graph& g, int shards) {
  XD_CHECK_MSG(shards >= 1, "shard count must be >= 1");
  graph_ = &g;
  shards_ = shards;
  const std::size_t n = g.num_vertices();
  const auto s_sz = static_cast<std::size_t>(shards);
  bounds_.assign(s_sz + 1, 0);
  for (std::size_t s = 0; s <= s_sz; ++s) bounds_[s] = n * s / s_sz;
  vshard_.assign(n, 0);
  for (std::size_t s = 0; s < s_sz; ++s) {
    for (std::size_t v = bounds_[s]; v < bounds_[s + 1]; ++v) {
      vshard_[v] = static_cast<std::uint32_t>(s);
    }
  }
  bufs_.assign(s_sz * s_sz, {});
  order_.assign(s_sz * s_sz, {});
  buf_congestion_.assign(s_sz * s_sz, 0);
  counts_.assign(s_sz, {});
  key_scratch_.assign(s_sz, {});
  shard_msg_base_.assign(s_sz + 1, 0);
  arena_.clear();
  offsets_.assign(n + 1, 0);
  exchange_seq_ = 0;
  stats_ = {};
  stats_.shard.resize(s_sz);
}

std::size_t ShardPlane::staged() const {
  std::size_t total = 0;
  for (const auto& b : bufs_) total += b.size();
  return total;
}

void ShardPlane::wire_exchange() {
  // Transport semantics under test: every (sender, dest) buffer becomes an
  // XDSB v2 frame, the fault plane damages frames in flight, and each
  // destination column re-requests what it is missing from the senders'
  // retained staging copies -- at most kMaxAttempts passes before the
  // exchange is declared unrecoverable.  Runs serially (fault-armed runs
  // trade speed for a deterministic hit order); fault keys are pure
  // (seq, sender, dest, attempt) coordinates so p-triggers replay exactly.
  constexpr int kMaxAttempts = 8;
  FaultPlane& faults = FaultPlane::instance();
  const std::uint64_t seq = ++exchange_seq_;
  const std::uint64_t volume = graph_->volume();
  const auto S = static_cast<std::size_t>(shards_);
  std::vector<detail::StagingBuffer> col(S);
  std::vector<char> have(S, 0);
  detail::StagingBuffer scratch;
  for (int s = 0; s < shards_; ++s) {
    std::fill(have.begin(), have.end(), 0);
    int attempt = 0;
    for (; attempt < kMaxAttempts; ++attempt) {
      std::vector<std::vector<unsigned char>> arrivals;
      bool all_held = true;
      for (int q = 0; q < shards_; ++q) {
        if (have[static_cast<std::size_t>(q)]) continue;
        all_held = false;
        const std::uint64_t key =
            (seq * 0x9E3779B97F4A7C15ull) ^
            (static_cast<std::uint64_t>(q) << 20) ^
            (static_cast<std::uint64_t>(s) << 8) ^
            static_cast<std::uint64_t>(attempt);
        if (attempt > 0) {
          ++stats_.wire.retransmits;
          faults.count("shard.retransmits");
        }
        if (faults.should_fire("shard.drop", key)) {
          ++stats_.wire.dropped;
          continue;  // the frame never arrives
        }
        std::vector<unsigned char> frame = encode_shard_buffer(
            static_cast<std::uint32_t>(q), static_cast<std::uint32_t>(s),
            bufs_[index(q, s)], seq);
        ++stats_.wire.frames;
        if (faults.should_fire("shard.corrupt", key)) {
          const std::uint64_t bit =
              faults.decision_mix("shard.corrupt", key) %
              (static_cast<std::uint64_t>(frame.size()) * 8);
          frame[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
        }
        if (faults.should_fire("shard.dup", key)) {
          ++stats_.wire.frames;
          arrivals.push_back(frame);
        }
        arrivals.push_back(std::move(frame));
      }
      if (all_held) break;
      if (arrivals.size() > 1 &&
          faults.should_fire("shard.reorder",
                             (seq << 16) ^ static_cast<std::uint64_t>(s))) {
        ++stats_.wire.reordered;
        std::reverse(arrivals.begin(), arrivals.end());
      }
      for (const auto& frame : arrivals) {
        std::uint32_t sender = 0;
        std::uint32_t dest = 0;
        std::uint64_t frame_seq = 0;
        if (!try_decode_shard_buffer(frame, &sender, &dest, &scratch,
                                     &frame_seq)) {
          ++stats_.wire.corrupted;
          continue;
        }
        if (sender >= S || dest != static_cast<std::uint32_t>(s) ||
            frame_seq != seq) {
          ++stats_.wire.corrupted;  // valid frame, wrong coordinates
          continue;
        }
        if (have[sender]) {
          ++stats_.wire.duplicates;
          continue;  // first valid copy wins
        }
        col[sender] = std::move(scratch);
        scratch = {};
        have[sender] = 1;
      }
    }
    for (int q = 0; q < shards_; ++q) {
      XD_CHECK_MSG(have[static_cast<std::size_t>(q)],
                   "shard wire exchange unrecoverable: buffer (" << q << " -> "
                       << s << ") still missing after " << attempt
                       << " attempts (seq " << seq << ")");
    }
    // Commit the column: the decoded buffers replace the staging originals
    // (with the shard invariant re-checked defensively), and phase A
    // canonicalizes them from the wire content -- identical content,
    // identical results.
    for (int q = 0; q < shards_; ++q) {
      const std::size_t idx = index(q, s);
      bufs_[idx] = std::move(col[static_cast<std::size_t>(q)]);
      col[static_cast<std::size_t>(q)] = {};
      for (const std::uint32_t slot : bufs_[idx].slot) {
        XD_CHECK_MSG(slot < volume,
                     "wire record slot " << slot << " out of range");
        const int to_shard = shard_of(graph_->slot_target(slot));
        XD_CHECK_MSG(to_shard == s, "wire record routed to shard "
                                        << to_shard << ", expected " << s);
      }
    }
  }
}

void ShardPlane::phase_count(int s) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto [lo, hi] = shard_range(s);
  std::uint64_t total = 0;
  for (int q = 0; q < shards_; ++q) total += bufs_[index(q, s)].size();
  // Receiver counts, zeroed only when there is something to count: a quiet
  // round (most of an MPX run) costs no O(n / S) pass here.
  auto& counts = counts_[static_cast<std::size_t>(s)];
  if (total > 0) counts.assign(hi - lo, 0);
  for (int q = 0; q < shards_; ++q) {
    const std::size_t idx = index(q, s);
    const detail::StagingBuffer& b = bufs_[idx];
    const std::size_t m = b.size();
    const std::uint32_t* slots = b.slot.data();
    auto& ord = order_[idx];
    ord.clear();
    // Canonical per-buffer order is ascending (slot, staging index).  One
    // fused pass detects sortedness while reading the per-slot congestion
    // runs and counting receivers; vertex-ascending staging (every protocol
    // in the library) survives it and needs no reordering at all.
    std::uint64_t cong = 0;
    std::uint64_t run = 0;
    std::size_t i = 0;
    for (; i < m; ++i) {
      if (i > 0 && slots[i] < slots[i - 1]) break;
      run = i > 0 && slots[i] == slots[i - 1] ? run + 1 : 1;
      cong = std::max(cong, run);
      ++counts[graph_->slot_target(slots[i]) - lo];
    }
    if (i < m) {
      // Out of order: finish the (order-free) receiver counts, then sort
      // (slot, index) keys -- a total order, so the result is stable -- to
      // fix the visit order, and recompute congestion off the sorted runs.
      for (std::size_t j = i; j < m; ++j) {
        ++counts[graph_->slot_target(slots[j]) - lo];
      }
      auto& keys = key_scratch_[static_cast<std::size_t>(s)];
      keys.resize(m);
      for (std::size_t j = 0; j < m; ++j) {
        keys[j] = (std::uint64_t{slots[j]} << 32) | static_cast<std::uint32_t>(j);
      }
      sort_nearly_sorted(keys, i);
      ord.resize(m);
      cong = 0;
      for (std::size_t j = 0; j < m; ++j) {
        run = j > 0 && (keys[j] >> 32) == (keys[j - 1] >> 32) ? run + 1 : 1;
        cong = std::max(cong, run);
        ord[j] = static_cast<std::uint32_t>(keys[j] & 0xffffffffu);
      }
    }
    buf_congestion_[idx] = cong;
  }
  auto& st = stats_.shard[static_cast<std::size_t>(s)];
  st.received = total;
  st.buffer_ms = ms_since(t0);
}

void ShardPlane::phase_scatter(int s) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto [lo, hi] = shard_range(s);
  auto& counts = counts_[static_cast<std::size_t>(s)];
  auto& st = stats_.shard[static_cast<std::size_t>(s)];
  // This shard's slice of the global CSR offsets is vertices [lo, hi) only
  // (offsets_[n] is written serially by deliver(), and neighboring shards'
  // slices are disjoint, so no write is shared across workers).
  const std::uint32_t base = shard_msg_base_[static_cast<std::size_t>(s)];
  if (st.received == 0) {
    std::fill(offsets_.begin() + static_cast<std::ptrdiff_t>(lo),
              offsets_.begin() + static_cast<std::ptrdiff_t>(hi), base);
    st.scatter_ms = ms_since(t0);
    return;
  }
  // Exclusive prefix sums turn the receiver counts into scatter cursors.
  std::uint32_t running = base;
  for (std::uint32_t& c : counts) {
    const std::uint32_t k = c;
    c = running;
    running += k;
  }
  Envelope* arena = arena_.data();
  const auto cursor_of = [&](std::uint32_t slot) -> std::uint32_t& {
    return counts[graph_->slot_target(slot) - lo];
  };
  for (int q = 0; q < shards_; ++q) {
    const std::size_t bidx = index(q, s);
    const detail::StagingBuffer& b = bufs_[bidx];
    const auto& ord = order_[bidx];
    const std::uint32_t* slots = b.slot.data();
    const std::size_t m = b.size();
    // Hint the write-allocate for an upcoming destination; the cursor may
    // advance a little before we get there, but the line it points at now
    // is almost always the line we will touch.  (A cursor never passes its
    // receiver's end offset, so the hint stays inside or one past the
    // arena.)
    constexpr std::size_t kAhead = 12;
    if (ord.empty()) {
      for (std::size_t i = 0; i < m; ++i) {
        if (i + kAhead < m) {
          __builtin_prefetch(arena + cursor_of(slots[i + kAhead]), 1, 0);
        }
        arena[cursor_of(slots[i])++] = Envelope{b.from[i], b.msg[i]};
      }
    } else {
      for (std::size_t i = 0; i < m; ++i) {
        if (i + kAhead < m) {
          __builtin_prefetch(arena + cursor_of(slots[ord[i + kAhead]]), 1, 0);
        }
        const std::size_t idx = ord[i];
        arena[cursor_of(slots[idx])++] = Envelope{b.from[idx], b.msg[idx]};
      }
    }
  }
  // Every cursor now sits at its receiver's end, which is where the next
  // receiver starts: shift them into the offsets slice.
  offsets_[lo] = base;
  std::copy(counts.begin(), counts.end() - 1,
            offsets_.begin() + static_cast<std::ptrdiff_t>(lo) + 1);
  st.scatter_ms = ms_since(t0);
}

void ShardPlane::deliver(int workers) {
  const auto S = static_cast<std::size_t>(shards_);
  const std::size_t n = graph_->num_vertices();
  const int w = clamp_workers(workers, shards_);

  // Fault-armed runs route every buffer through the wire frame path first
  // (serial, deterministic); disarmed runs pay one relaxed load here and
  // exchange buffers in memory.  A single shard has no exchange to damage.
  if (shards_ > 1 &&
      FaultPlane::instance().armed(FaultCategory::kShard)) {
    wire_exchange();
  }

  // Phase A, parallel over destination shards: canonicalize buffers, read
  // congestion, count receivers.  All writes are per-dest-shard-local.
  EpochScheduler::run_partitioned(S, w,
                                  [&](int /*w*/, std::size_t lo,
                                      std::size_t hi) {
                                    for (std::size_t s = lo; s < hi; ++s) {
                                      phase_count(static_cast<int>(s));
                                    }
                                  });

  // Serial barrier: shard totals -> arena slice offsets, buffer congestion
  // -> global max.  Exact because every directed slot lives in exactly one
  // (sender, dest) buffer.
  std::size_t total_staged = 0;
  stats_.max_congestion = 0;
  shard_msg_base_[0] = 0;
  for (std::size_t s = 0; s < S; ++s) {
    total_staged += stats_.shard[s].received;
    XD_CHECK_MSG(total_staged < (std::uint64_t{1} << 32),
                 "too many staged messages for one exchange");
    shard_msg_base_[s + 1] =
        shard_msg_base_[s] + static_cast<std::uint32_t>(stats_.shard[s].received);
  }
  for (const std::uint64_t c : buf_congestion_) {
    stats_.max_congestion = std::max(stats_.max_congestion, c);
  }
  stats_.staged = total_staged;
  offsets_[n] = shard_msg_base_[S];
  arena_.resize(total_staged);

  // Phase B, parallel over destination shards: publish offsets and scatter.
  EpochScheduler::run_partitioned(
      S, w, [&](int /*w*/, std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          phase_scatter(static_cast<int>(s));
        }
      });

  for (auto& b : bufs_) b.clear();
}

}  // namespace xd::congest
