#include "core/shard_solver.h"

#include <algorithm>
#include <exception>
#include <future>

#include "core/theta_sweep.h"
#include "util/error.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "verify/shard_audit.h"

namespace ccdn {

ThreadPool* lazy_shard_pool(std::unique_ptr<ThreadPool>& pool,
                            std::size_t num_shards, bool threaded_executor) {
  if (threaded_executor || num_shards < 2) return nullptr;
  if (!pool) {
    pool = std::make_unique<ThreadPool>(
        std::min(num_shards, ThreadPool::default_threads()));
  }
  return pool.get();
}

ShardedSolveOutcome solve_sharded(std::span<const Hotspot> hotspots,
                                  const GridIndex& index,
                                  HotspotPartition& partition,
                                  const ShardAssignment& assignment,
                                  std::span<const std::uint8_t> boundary,
                                  const ShardedSolveOptions& options,
                                  ThreadPool* pool,
                                  const ShardSolveFn& solve_shard) {
  const std::size_t num_shards = assignment.num_shards;
  CCDN_REQUIRE(assignment.shard_of.size() == hotspots.size(),
               "shard assignment does not cover the hotspot set");
  CCDN_REQUIRE(boundary.size() == hotspots.size(),
               "boundary mask does not cover the hotspot set");
  ShardedSolveOutcome outcome;
  outcome.shards.resize(num_shards);
  for (const std::uint8_t b : boundary) outcome.boundary_hotspots += b;

  // --- Per-shard solves. ---
  Stopwatch wall;
  if (pool == nullptr) {
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      outcome.shards[s] = solve_shard(s);
    }
  } else {
    // Every task captures this frame, so none may outlive it: join all of
    // them before anything propagates, even when submit() itself throws.
    std::vector<std::future<ShardFlowResult>> pending;
    pending.reserve(num_shards);
    try {
      for (std::uint32_t s = 0; s < num_shards; ++s) {
        pending.push_back(
            pool->submit([&solve_shard, s] { return solve_shard(s); }));
      }
    } catch (...) {
      for (const auto& task : pending) task.wait();
      throw;
    }
    std::exception_ptr first_error;
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      try {
        outcome.shards[s] = pending[s].get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }
  outcome.shard_wall_s = wall.elapsed_seconds();

  // --- Commit shard flows against the global slack (the absorb
  // contract: per-shard loads equal the global loads restricted to the
  // shard, so shard-local phi is the global phi on members and this can
  // never underflow on a correct shard solve). ---
  const bool auditing =
      kCheckedBuild && options.audit_level != AuditLevel::kOff;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const ShardFlowResult& shard = outcome.shards[s];
    if (auditing) {
      AuditReport report;
      audit_shard_flows(shard.flows, assignment.shard_of, s, report);
      report.require_clean("sharded slot: shard flows");
    }
    for (const FlowEntry& f : shard.flows) {
      partition.phi[f.from] -= f.amount;
      partition.phi[f.to] -= f.amount;
      CCDN_ENSURE(partition.phi[f.from] >= 0 && partition.phi[f.to] >= 0,
                  "shard flow exceeded slack");
      outcome.moved += f.amount;
    }
    outcome.flows.insert(outcome.flows.end(), shard.flows.begin(),
                         shard.flows.end());
  }

  // --- Exchange over boundary residuals: a Gd θ sweep on ThetaSweeper.
  // A single max-flow at the full radius would move strictly more than the
  // global θ sweep does (progressive commitment strands capacity on
  // purpose — closer arcs first), and every extra unit moved is extra
  // serving distance; sweeping the same θ grid keeps the exchange's
  // movement discipline — and hence the optimality gap — aligned with the
  // global solve's. ---
  wall.reset();
  if (num_shards > 1 && outcome.boundary_hotspots > 0) {
    // The arcs a global solve at the exchange radius would have offered
    // the boundary senders; the sweeper drops those whose slack is spent.
    std::vector<CandidateEdge> arcs = candidate_edges(
        hotspots, partition, options.exchange_radius_km, index);
    std::erase_if(arcs,
                  [&](const CandidateEdge& c) { return boundary[c.from] == 0; });
    ThetaSweeper sweeper;
    sweeper.set_audit_level(options.audit_level);
    sweeper.begin_slot(partition, std::span<const CandidateEdge>(arcs));
    const double theta_step = options.exchange_theta_step_km > 0.0
                                  ? options.exchange_theta_step_km
                                  : options.exchange_radius_km;
    double theta = options.exchange_theta1_km > 0.0
                       ? std::min(options.exchange_theta1_km,
                                  options.exchange_radius_km)
                       : options.exchange_radius_km;
    while (true) {
      const SweepStep step = sweeper.step_gd(theta);
      outcome.exchange_flows.insert(outcome.exchange_flows.end(),
                                    step.flows.begin(), step.flows.end());
      outcome.exchange_moved += step.moved;
      if (theta >= options.exchange_radius_km) break;
      theta = std::min(theta + theta_step, options.exchange_radius_km);
    }
    sweeper.end_slot();
    outcome.moved += outcome.exchange_moved;
    if (!outcome.exchange_flows.empty()) {
      if (auditing) {
        AuditReport report;
        audit_exchange_flows(outcome.exchange_flows, assignment.shard_of,
                             boundary, report);
        report.require_clean("sharded slot: exchange flows");
      }
      outcome.flows.insert(outcome.flows.end(), outcome.exchange_flows.begin(),
                           outcome.exchange_flows.end());
    }
  }
  outcome.exchange_s = wall.elapsed_seconds();
  return outcome;
}

}  // namespace ccdn
