// Reduced exchange network for cross-shard reconciliation.
//
// The zone-sharded scheduler (DESIGN.md §3.12) solves each shard's balance
// graph independently, which leaves exactly one kind of imbalance on the
// table: an overloaded *boundary* hotspot that chose its receivers blind
// to closer slack across a shard cut. After the per-shard solves commit,
// the orchestrator collects the boundary senders' residual overload and
// the residual slack of every hotspot within the exchange radius, and this
// module solves min-cost max-flow over that reduced network — a band
// around the shard cuts, a fraction of the global problem's size. The
// orchestrator calls it once per θ step of a distance sweep so the
// exchange honours the same closest-first commitment discipline as the
// global solve.
//
// This layer is deliberately generic (plain node ids, supplies, arcs): flow
// cannot depend on core, and the same reduction serves both the flat and
// the virtual-region sharded schemes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flow/mcmf.h"

namespace ccdn {

/// A feasible sender→receiver arc of the reduced network, in caller
/// (global hotspot) ids. `capacity` is min(residual sender slack, residual
/// receiver slack) at build time, matching the Gd edge shape.
struct ExchangeArc {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  double cost_km = 0.0;
  std::int64_t capacity = 0;
};

/// One unit-flow entry of the exchange solution, in caller ids.
struct ExchangeFlow {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::int64_t amount = 0;
};

struct ExchangeResult {
  /// Positive-amount flows, ordered by (from, to), merged per pair.
  std::vector<ExchangeFlow> flows;
  std::int64_t moved = 0;
  double cost_km = 0.0;
};

/// Solve the reduced network: source → each distinct sender (cap = its
/// `supply`), per-arc sender → receiver edges (cap/cost from the arc), each
/// distinct receiver → sink (cap = its `demand`). `supply` and `demand` are
/// indexed by caller id and must cover every id appearing in `arcs`.
/// Deterministic: node ids are assigned in ascending caller-id order and
/// arcs are added in caller order.
[[nodiscard]] ExchangeResult solve_exchange(
    std::span<const std::int64_t> supply, std::span<const std::int64_t> demand,
    std::span<const ExchangeArc> arcs);

}  // namespace ccdn
