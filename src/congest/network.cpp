#include "congest/network.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "congest/scheduler.hpp"
#include "util/check.hpp"

namespace xd::congest {

int parse_shard_count(const char* text) {
  XD_CHECK_MSG(text != nullptr, "shard count: null string");
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  XD_CHECK_MSG(end != text, "shard count '" << text << "' is not a number");
  while (*end != '\0' &&
         std::isspace(static_cast<unsigned char>(*end)) != 0) {
    ++end;
  }
  XD_CHECK_MSG(*end == '\0',
               "shard count '" << text << "' has trailing garbage");
  XD_CHECK_MSG(errno != ERANGE && v >= 1 && v <= (1L << 20),
               "shard count " << text << " out of range [1, 2^20]");
  return static_cast<int>(v);
}

Network::Network(const Graph& graph, RoundLedger& ledger, std::uint64_t seed)
    : graph_(&graph), ledger_(&ledger) {
  Rng master(seed);
  rngs_.reserve(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    rngs_.push_back(master.fork(v));
  }
  // XD_SHARDS sets the shard count of every network in the process -- how
  // the *_sharded CTest variants re-run whole suites at S > 1 without
  // touching call sites (docs/sharding.md).
  const char* env = std::getenv("XD_SHARDS");
  plane_.configure(graph, env != nullptr ? parse_shard_count(env) : 1);
}

void Network::set_threads(int threads) {
  XD_CHECK_MSG(threads >= 1, "thread count must be >= 1");
  threads_ = threads;
}

void Network::set_shards(int shards) {
  XD_CHECK_MSG(shards >= 1, "shard count must be >= 1");
  XD_CHECK_MSG(staged() == 0,
               "cannot reshard while " << staged() << " messages are staged");
  plane_.configure(*graph_, shards);
}

namespace {

// The staging checks' failure paths, out of line and cold so the per-message
// hot path carries no message-formatting frame.  Each rethrows the first
// violated precondition as a CheckError.
[[noreturn, gnu::cold, gnu::noinline]] void reject_send(const Graph& g,
                                                        VertexId from,
                                                        std::uint32_t slot) {
  XD_CHECK_MSG(from < g.num_vertices(), "bad sender " << from);
  XD_CHECK_MSG(slot < g.degree(from),
               "slot " << slot << " out of range for vertex " << from);
  const VertexId to = g.neighbors(from)[slot];
  XD_CHECK_MSG(to != from, "cannot send over a self-loop slot");
  XD_CHECK_MSG(false, "send rejected without a violated precondition");
}

[[noreturn, gnu::cold, gnu::noinline]] void reject_send_to(const Graph& g,
                                                           VertexId from,
                                                           VertexId to) {
  XD_CHECK_MSG(from < g.num_vertices(), "bad sender " << from);
  XD_CHECK_MSG(to != from, "cannot send over a self-loop slot");
  XD_CHECK_MSG(false, "send_to: {" << from << "," << to << "} is not an edge");
}

}  // namespace

std::uint32_t Network::directed_slot(VertexId from, std::uint32_t slot) const {
  const Graph& g = *graph_;
  if (from >= g.num_vertices() || slot >= g.degree(from) ||
      g.neighbors(from)[slot] == from) [[unlikely]] {
    reject_send(g, from, slot);
  }
  // Position of this slot in the global CSR layout: unique per (from, slot)
  // pair, which is exactly per directed edge use.
  return g.slot_base(from) + slot;
}

std::uint32_t Network::directed_slot_to(VertexId from, VertexId to) {
  const Graph& g = *graph_;
  if (from >= g.num_vertices() || to == from) [[unlikely]] {
    reject_send_to(g, from, to);
  }
  std::uint64_t probes = 0;
  const std::uint32_t slot = g.slot_of(from, to, &probes);
  slot_lookup_probes_.fetch_add(probes, std::memory_order_relaxed);
  if (slot == Graph::kNoSlot) [[unlikely]] reject_send_to(g, from, to);
  return g.slot_base(from) + slot;
}

// Staging aggregates at the sender: records go straight into the sender
// shard's per-destination buffers (per-sender staging order -- the only
// order the canonical delivery sort can observe -- is preserved).
void Network::send(VertexId from, std::uint32_t slot, const Message& msg) {
  const std::uint32_t ds = directed_slot(from, slot);
  plane_.stage(plane_.shard_of(from), ds, from, msg);
}

void Network::send_to(VertexId from, VertexId to, const Message& msg) {
  const std::uint32_t ds = directed_slot_to(from, to);
  plane_.stage(plane_.shard_of(from), ds, from, msg);
}

std::uint64_t Network::exchange(std::string_view reason) {
  return do_exchange(reason, /*has_override=*/false, 0);
}

std::uint64_t Network::exchange_charging(std::string_view reason,
                                         std::uint64_t rounds_override) {
  return do_exchange(reason, /*has_override=*/true, rounds_override);
}

std::uint64_t Network::do_exchange(std::string_view reason, bool has_override,
                                   std::uint64_t rounds_override) {
  plane_.deliver(threads_);
  const ShardDeliveryStats& st = plane_.last_delivery();
  ledger_->count_messages(st.staged);
  std::uint64_t rounds = std::max<std::uint64_t>(st.max_congestion, 1);
  if (has_override) {
    XD_CHECK_MSG(
        st.max_congestion <= std::max<std::uint64_t>(rounds_override, 1),
        "exchange_charging: congestion " << st.max_congestion
                                         << " exceeds declared rounds "
                                         << rounds_override);
    rounds = rounds_override;
  }
  if (rounds > 0) ledger_->charge(rounds, reason);
  return rounds;
}

std::uint64_t Network::run_round(VertexProgram& program,
                                 std::string_view reason) {
  const int S = plane_.shards();
  const int workers = std::min(threads_, S);

  // Send phase: the shard is the partition unit -- each worker runs whole
  // shards, staging straight into that sender shard's aggregation buffers
  // (rows are disjoint across shards), so which worker runs a shard can
  // never change what gets staged where.  Workers run on the shared pool
  // idiom (EpochScheduler::run_partitioned, which also rethrows the first
  // worker exception after its join barrier; one worker runs inline).
  EpochScheduler::run_partitioned(
      static_cast<std::size_t>(S), workers,
      [&](int /*w*/, std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          Outbox out(this, static_cast<int>(s));
          const auto [vlo, vhi] = plane_.shard_range(static_cast<int>(s));
          for (auto v = static_cast<VertexId>(vlo); v < vhi; ++v) {
            out.vertex_ = v;
            program.on_send(v, out);
          }
        }
      });

  const std::uint64_t rounds = do_exchange(reason, false, 0);

  EpochScheduler::run_partitioned(
      static_cast<std::size_t>(S), workers,
      [&](int /*w*/, std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          const auto [vlo, vhi] = plane_.shard_range(static_cast<int>(s));
          for (auto v = static_cast<VertexId>(vlo); v < vhi; ++v) {
            program.on_receive(v, inbox(v));
          }
        }
      });
  return rounds;
}

std::uint64_t Network::run_rounds(VertexProgram& program, int rounds,
                                  std::string_view reason) {
  std::uint64_t total = 0;
  for (int r = 0; r < rounds; ++r) total += run_round(program, reason);
  return total;
}

void Network::tick(std::uint64_t rounds, std::string_view reason) {
  if (rounds > 0) ledger_->charge(rounds, reason);
}

// ---------------------------------------------------------------- Outbox --

void Outbox::send(std::uint32_t slot, const Message& msg) {
  net_->plane_.stage(shard_, net_->directed_slot(vertex_, slot), vertex_, msg);
}

void Outbox::send_to(VertexId to, const Message& msg) {
  net_->plane_.stage(shard_, net_->directed_slot_to(vertex_, to), vertex_,
                     msg);
}

Rng& Outbox::rng() const { return net_->rng(vertex_); }

}  // namespace xd::congest
