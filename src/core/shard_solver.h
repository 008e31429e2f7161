// Zone-sharded flow-solve orchestration (DESIGN.md §3.12).
//
// Given a slot's global HotspotPartition and a geo shard assignment
// (geo/zone_partition.h), solve_sharded():
//
//   1. runs a caller-supplied per-shard solve — flat RBCAer's θ sweep or
//      the virtual scheme's regional loop, restricted to one shard's
//      hotspots — for every shard, on the caller's thread pool when one is
//      given and serially otherwise (callers already running inside a
//      thread pool pass none). Each result lands at its shard's index, so
//      both ways produce bit-identical results: the per-shard solve is a
//      pure function of the slot inputs;
//   2. commits every shard-local flow against the caller's global
//      partition slack, exactly like the unsharded absorb loop;
//   3. runs a θ-swept exchange over the residuals: boundary senders (the
//      hotspots whose candidate radius crosses a shard cut, so their local
//      solve was blind to receivers across it) offer their remaining
//      overload to the residual slack of every hotspot within the exchange
//      radius — in any shard, the sender's own included. The exchange is a
//      ThetaSweeper Gd sweep (core/theta_sweep.h) over those senders'
//      candidate arcs at increasing distance radii (θ1, θ1+δ, … up to the
//      exchange radius), mirroring the global sweep's closest-first
//      commitment discipline; a single max-flow at the full radius would
//      move strictly more traffic than the global solve and inflate the
//      optimality gap.
//
// The caller's partition.phi ends up accounting for every committed unit,
// so the merged flow list satisfies the same audit_flow_entries contract as
// an unsharded slot. Per-shard locality and exchange boundary-sender
// structure are audited via verify/shard_audit.h (checked builds, audit
// level >= kPlan); at kFull the sweeper also audits every exchange step's
// flow network.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/balance_graph.h"
#include "geo/zone_partition.h"
#include "model/types.h"
#include "verify/audit.h"

namespace ccdn {

class ThreadPool;

/// What one shard's local solve returns. Flows are in GLOBAL hotspot ids;
/// the timing fields are measured inside the shard solve (so they exclude
/// dispatch and join overhead: ShardedSolveOutcome::shard_wall_s minus the
/// slowest shard's wall_s is that overhead).
struct ShardFlowResult {
  std::vector<FlowEntry> flows;
  std::int64_t moved = 0;
  std::size_t num_clusters = 0;
  std::size_t guide_nodes = 0;
  std::size_t theta_iterations = 0;
  double gc_build_s = 0.0;  // content clustering
  double graph_s = 0.0;     // candidate + Gd/Gc construction
  double mcmf_s = 0.0;      // augmentation
  double wall_s = 0.0;      // the whole shard solve, wall clock
};

struct ShardedSolveOptions {
  /// Arc radius of the exchange round; the schemes pass θ2 so the exchange
  /// sees exactly the receiver neighbourhood the global solve would have
  /// offered these senders.
  double exchange_radius_km = 1.5;
  /// θ grid of the exchange rounds (the schemes pass θ1/δ): the exchange
  /// sweeps radii θ1, θ1+δ, … up to exchange_radius_km, committing after
  /// each round, mirroring the global sweep's closer-arcs-first movement
  /// discipline. Non-positive values collapse to a single round at the
  /// full radius.
  double exchange_theta1_km = 0.0;
  double exchange_theta_step_km = 0.0;
  AuditLevel audit_level = AuditLevel::kOff;
};

struct ShardedSolveOutcome {
  /// Shard flows (in shard order) followed by exchange flows; not yet
  /// merged per pair — callers run merge_flow_entries like the unsharded
  /// path.
  std::vector<FlowEntry> flows;
  /// Per-shard results with their flows intact (diagnostics and benches).
  std::vector<ShardFlowResult> shards;
  std::vector<FlowEntry> exchange_flows;
  std::int64_t moved = 0;           // total committed, exchange included
  std::int64_t exchange_moved = 0;  // exchange round's share
  std::size_t boundary_hotspots = 0;
  /// Wall time of the executor phase (dispatch → every shard joined).
  double shard_wall_s = 0.0;
  /// Wall time of the exchange round (arc build + θ steps + commit).
  double exchange_s = 0.0;
};

/// The per-shard solve: given a shard id, produce that shard's local flow
/// result. Must be a pure function of the slot inputs: shards run
/// concurrently on the pool, so a solve may only read shared state, and its
/// result is the only channel back.
using ShardSolveFn = std::function<ShardFlowResult(std::uint32_t shard)>;

/// The pool a sharded scheme hands solve_sharded: `pool`, created on first
/// use with min(num_shards, hardware threads) workers, or nullptr (serial
/// shards) when there is a single shard or the slot runs inside a threaded
/// executor — the simulator's window lanes already keep every core busy
/// with whole slots, so shard threads on top would only oversubscribe them.
[[nodiscard]] ThreadPool* lazy_shard_pool(std::unique_ptr<ThreadPool>& pool,
                                          std::size_t num_shards,
                                          bool threaded_executor);

/// Run the sharded solve + exchange round described above. `partition` is
/// the slot's global partition; its phi values are decremented in place for
/// every committed flow. `boundary` is the mask from boundary_hotspots()
/// at the exchange radius. With a `pool` every shard's solve is submitted
/// to it; with nullptr the shards run serially on the calling thread. A
/// shard that throws is rethrown (the first in shard order) only after
/// every shard has finished, and before `partition` is touched.
[[nodiscard]] ShardedSolveOutcome solve_sharded(
    std::span<const Hotspot> hotspots, const GridIndex& index,
    HotspotPartition& partition, const ShardAssignment& assignment,
    std::span<const std::uint8_t> boundary,
    const ShardedSolveOptions& options, ThreadPool* pool,
    const ShardSolveFn& solve_shard);

}  // namespace ccdn
