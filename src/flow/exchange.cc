#include "flow/exchange.h"

#include <algorithm>
#include <limits>

#include "flow/network.h"
#include "util/error.h"

namespace ccdn {

ExchangeResult solve_exchange(std::span<const std::int64_t> supply,
                              std::span<const std::int64_t> demand,
                              std::span<const ExchangeArc> arcs) {
  ExchangeResult result;
  if (arcs.empty()) return result;

  // Distinct endpoint ids, ascending, so node numbering is independent of
  // arc order.
  std::vector<std::uint32_t> senders;
  std::vector<std::uint32_t> receivers;
  for (const ExchangeArc& arc : arcs) {
    CCDN_REQUIRE(arc.from < supply.size() && arc.to < demand.size(),
                 "exchange arc endpoint outside supply/demand span");
    CCDN_REQUIRE(arc.capacity > 0, "non-positive exchange arc capacity");
    senders.push_back(arc.from);
    receivers.push_back(arc.to);
  }
  const auto dedupe = [](std::vector<std::uint32_t>& ids) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  };
  dedupe(senders);
  dedupe(receivers);

  constexpr NodeId kUnmapped = std::numeric_limits<NodeId>::max();
  const std::size_t max_id =
      std::max(senders.back(), receivers.back()) + std::size_t{1};
  std::vector<NodeId> sender_node(max_id, kUnmapped);
  std::vector<NodeId> receiver_node(max_id, kUnmapped);

  FlowNetwork net(2 + senders.size() + receivers.size());
  const NodeId source = 0;
  const NodeId sink = 1;
  NodeId next = 2;
  for (const std::uint32_t s : senders) {
    sender_node[s] = next++;
    CCDN_REQUIRE(supply[s] > 0, "exchange sender without residual supply");
    (void)net.add_edge(source, sender_node[s], supply[s], 0.0);
  }
  for (const std::uint32_t r : receivers) {
    receiver_node[r] = next++;
    CCDN_REQUIRE(demand[r] > 0, "exchange receiver without residual demand");
    (void)net.add_edge(receiver_node[r], sink, demand[r], 0.0);
  }
  std::vector<EdgeId> arc_edge(arcs.size());
  for (std::size_t a = 0; a < arcs.size(); ++a) {
    arc_edge[a] = net.add_edge(sender_node[arcs[a].from],
                               receiver_node[arcs[a].to], arcs[a].capacity,
                               arcs[a].cost_km);
  }

  const McmfResult solved = MinCostMaxFlow::solve(net, source, sink);
  result.moved = solved.flow;
  result.cost_km = solved.cost;

  for (std::size_t a = 0; a < arcs.size(); ++a) {
    const std::int64_t amount = net.flow(arc_edge[a]);
    if (amount > 0) {
      result.flows.push_back({arcs[a].from, arcs[a].to, amount});
    }
  }
  // Merge parallel arcs per (from, to) pair and fix the order, mirroring
  // merge_flow_entries so downstream accounting sees one entry per pair.
  std::sort(result.flows.begin(), result.flows.end(),
            [](const ExchangeFlow& x, const ExchangeFlow& y) {
              if (x.from != y.from) return x.from < y.from;
              return x.to < y.to;
            });
  std::size_t out = 0;
  for (std::size_t i = 0; i < result.flows.size(); ++i) {
    if (out > 0 && result.flows[out - 1].from == result.flows[i].from &&
        result.flows[out - 1].to == result.flows[i].to) {
      result.flows[out - 1].amount += result.flows[i].amount;
    } else {
      result.flows[out++] = result.flows[i];
    }
  }
  result.flows.resize(out);
  return result;
}

}  // namespace ccdn
