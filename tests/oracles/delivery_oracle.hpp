#pragma once

/// \file delivery_oracle.hpp
/// Reference oracle for CONGEST message delivery.
///
/// The obvious formulation, independent of the shard plane: every staged
/// message is a RefStaged record kept in staging order; delivery stable-
/// sorts the batch by directed slot and appends each record to its
/// receiver's own vector, and the round charge is max(1, longest run of one
/// directed slot).  RefNetwork wraps it in the Network surface the tests
/// drive (send, send_to, exchange, inbox, ledger totals) plus a run_round
/// that runs a send/receive phase pair over all vertices, so the same
/// protocol can execute through congest::Network at every shards x threads
/// combination and through this reference.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "congest/message.hpp"
#include "graph/graph.hpp"
#include "util/check.hpp"

namespace xd::oracle {

/// One staged message.
struct RefStaged {
  std::uint32_t directed_slot;
  VertexId from;
  VertexId to;
  congest::Message msg;
};

/// Delivery of one staged batch: per-receiver inboxes and the congestion.
struct RefDelivery {
  std::vector<std::vector<congest::Envelope>> inbox;
  std::uint64_t congestion = 0;
};

/// Delivers `batch` (in staging order) over a graph of n vertices.
inline RefDelivery deliver_reference(std::size_t n,
                                     std::vector<RefStaged> batch) {
  std::stable_sort(batch.begin(), batch.end(),
                   [](const RefStaged& a, const RefStaged& b) {
                     return a.directed_slot < b.directed_slot;
                   });
  RefDelivery out;
  out.inbox.resize(n);
  std::uint64_t run = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    run = i > 0 && batch[i].directed_slot == batch[i - 1].directed_slot
              ? run + 1
              : 1;
    out.congestion = std::max(out.congestion, run);
    out.inbox[batch[i].to].push_back(
        congest::Envelope{batch[i].from, batch[i].msg});
  }
  return out;
}

/// The Network surface over deliver_reference.
class RefNetwork {
 public:
  explicit RefNetwork(const Graph& g) : g_(&g) {
    delivered_.inbox.resize(g.num_vertices());
  }

  void send(VertexId from, std::uint32_t slot, const congest::Message& msg) {
    XD_CHECK(slot < g_->degree(from));
    const VertexId to = g_->neighbors(from)[slot];
    XD_CHECK(to != from);
    staged_.push_back(RefStaged{g_->slot_base(from) + slot, from, to, msg});
  }

  /// Smallest slot of `from` pointing at `to` (a linear scan).
  void send_to(VertexId from, VertexId to, const congest::Message& msg) {
    const auto nbrs = g_->neighbors(from);
    const auto it = std::find(nbrs.begin(), nbrs.end(), to);
    XD_CHECK(it != nbrs.end() && to != from);
    send(from, static_cast<std::uint32_t>(it - nbrs.begin()), msg);
  }

  /// Delivers the staged batch; returns (and totals) the rounds charged.
  std::uint64_t exchange() {
    messages_ += staged_.size();
    delivered_ = deliver_reference(g_->num_vertices(), std::move(staged_));
    staged_.clear();
    const std::uint64_t r = std::max<std::uint64_t>(delivered_.congestion, 1);
    rounds_ += r;
    return r;
  }

  [[nodiscard]] std::span<const congest::Envelope> inbox(VertexId v) const {
    return delivered_.inbox[v];
  }

  /// Per-vertex staging handle for run_round's send phase.
  class Outbox {
   public:
    void send(std::uint32_t slot, const congest::Message& msg) {
      net_->send(v_, slot, msg);
    }
    void send_to(VertexId to, const congest::Message& msg) {
      net_->send_to(v_, to, msg);
    }
    [[nodiscard]] VertexId vertex() const { return v_; }

   private:
    friend class RefNetwork;
    RefNetwork* net_ = nullptr;
    VertexId v_ = 0;
  };

  /// One superstep: send(v, outbox) for every v, one exchange, then
  /// receive(v, inbox) for every v.  Returns the rounds charged.
  template <class SendFn, class ReceiveFn>
  std::uint64_t run_round(SendFn&& send, ReceiveFn&& receive) {
    Outbox out;
    out.net_ = this;
    for (VertexId v = 0; v < g_->num_vertices(); ++v) {
      out.v_ = v;
      send(v, out);
    }
    const std::uint64_t r = exchange();
    for (VertexId v = 0; v < g_->num_vertices(); ++v) receive(v, inbox(v));
    return r;
  }

  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t messages() const { return messages_; }

 private:
  const Graph* g_;
  std::vector<RefStaged> staged_;
  RefDelivery delivered_;
  std::uint64_t rounds_ = 0;
  std::uint64_t messages_ = 0;
};

}  // namespace xd::oracle
