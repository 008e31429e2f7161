#include "core/theta_sweep.h"

#include <algorithm>

#include "core/rbcaer_scheme.h"
#include "util/error.h"
#include "util/stopwatch.h"
#include "verify/flow_audit.h"

namespace ccdn {

void ThetaSweeper::begin_slot(HotspotPartition& partition,
                              std::span<const CandidateEdge> candidates) {
  partition_ = &partition;
  candidates_.assign(candidates.begin(), candidates.end());

  // Sort flat (distance, index) keys rather than indices with an indirect
  // comparator: the sort is once-per-slot but over every candidate pair, and
  // the pointer-chasing comparator dominated begin_slot at city scale. The
  // radix sort is stable, so records with bit-identical distances keep
  // their ascending-index order — the same (d, index) total order a
  // comparison sort with an index tie-break would produce.
  order_scratch_.resize(candidates_.size());
  for (std::uint32_t i = 0; i < candidates_.size(); ++i) {
    order_scratch_[i] = {radix_key(candidates_[i].distance_km), i};
  }
  radix_sort_keyed(order_scratch_, radix_swap_, radix_hist_);
  by_distance_.resize(candidates_.size());
  for (std::uint32_t i = 0; i < by_distance_.size(); ++i) {
    by_distance_[i] = order_scratch_[i].value;
  }
  cursor_ = 0;

  net_.reserve(2 + partition.overloaded.size() + partition.underutilized.size(),
               partition.overloaded.size() + partition.underutilized.size() +
                   candidates_.size());
  build_scaffold(net_, partition, map_);
  scaffold_cp_ = net_.checkpoint();
  // Remember each sender's source arc so the persistent steps can focus the
  // source's adjacency onto the step's arrival senders (everyone else is a
  // dead end by the exhaustion argument — see commit()).
  source_arc_of_.assign(net_.num_nodes(), 0);
  for (const EdgeId e : net_.out_edges(map_.source)) {
    source_arc_of_[net_.edge(e).to] = e;
  }
  sender_mark_.assign(net_.num_nodes(), 0);
  mark_stamp_ = 0;
  // The scaffold's reverse arcs (hotspot→source, sink→hotspot) can never be
  // on an augmenting path; removing them up front lets the dead-end prune in
  // the Dijkstra engine skip heap pushes for senders with no visible pairs.
  // switch_to_transient() restores the full adjacency for the Gc regime,
  // whose cold oracle keeps these arcs.
  net_.drop_terminal_arcs(map_.source, map_.sink);
  pair_edges_.clear();
  committed_.clear();

  transient_ = false;
  gd_batch_done_ = false;
  live_.clear();
  arrivals_.clear();
  last_gc_idle_ = false;
  last_guide_nodes_ = 0;
  gd_solver_.reset_potentials(net_.num_nodes());
}

void ThetaSweeper::end_slot() { partition_ = nullptr; }

std::size_t ThetaSweeper::collect_arrivals(double theta_km) {
  arrivals_.clear();
  while (cursor_ < by_distance_.size() &&
         candidates_[by_distance_[cursor_]].distance_km < theta_km) {
    const std::uint32_t idx = by_distance_[cursor_++];
    const auto& c = candidates_[idx];
    // φ never grows within a slot, so a candidate that is dead on arrival
    // stays dead: drop it here and never reconsider it.
    if (partition_->phi[c.from] > 0 && partition_->phi[c.to] > 0) {
      arrivals_.push_back(idx);
    }
  }
  return arrivals_.size();
}

void ThetaSweeper::refresh_live() {
  // Prune entries whose endpoint slack died since the last build.
  std::size_t out = 0;
  for (const std::uint32_t idx : live_) {
    const auto& c = candidates_[idx];
    if (partition_->phi[c.from] > 0 && partition_->phi[c.to] > 0) {
      live_[out++] = idx;
    }
  }
  live_.resize(out);
  if (arrivals_.empty()) return;
  // Arrivals come in distance order; the cold builders consume candidates
  // in original candidate_edges order, so merge by index.
  std::sort(arrivals_.begin(), arrivals_.end());
  const std::size_t old_size = live_.size();
  live_.insert(live_.end(), arrivals_.begin(), arrivals_.end());
  std::inplace_merge(live_.begin(),
                     live_.begin() + static_cast<std::ptrdiff_t>(old_size),
                     live_.end());
}

void ThetaSweeper::switch_to_transient() {
  transient_ = true;
  // The Gc regime must present the cold oracle's exact residual graph: the
  // persistent regime's adjacency compactions (dead/terminal/focused arcs)
  // are search-neutral for Gd's measure-zero ties but observable through
  // Gc's zero-cost tie-breaking, so rebuild the scaffold adjacency from
  // storage before the first transient step.
  net_.restore_arcs(scaffold_cp_);
  live_.clear();
  for (std::size_t pos = 0; pos < cursor_; ++pos) {
    const std::uint32_t idx = by_distance_[pos];
    const auto& c = candidates_[idx];
    if (partition_->phi[c.from] > 0 && partition_->phi[c.to] > 0) {
      live_.push_back(idx);
    }
  }
  std::sort(live_.begin(), live_.end());
  committed_.clear();
}

void ThetaSweeper::commit(SweepStep& out) {
  if (transient_) {
    // Transient edges start from zero flow every step, so the edge flows
    // ARE the increments.
    for (const auto& pair : pair_edges_) {
      const std::int64_t f = net_.flow(pair.edge);
      if (f > 0) out.flows.push_back({pair.from, pair.to, f});
    }
  } else {
    for (std::size_t p = 0; p < pair_edges_.size(); ++p) {
      const std::int64_t f = net_.flow(pair_edges_[p].edge);
      const std::int64_t delta = f - committed_[p];
      // freeze_residuals() at the previous commit makes decreases
      // impossible; a negative delta means the freeze invariant broke.
      CCDN_ENSURE(delta >= 0, "frozen flow decreased");
      if (delta > 0) {
        out.flows.push_back({pair_edges_[p].from, pair_edges_[p].to, delta});
        committed_[p] = f;
      }
    }
  }
  merge_flow_entries(out.flows);
  for (const auto& f : out.flows) {
    CCDN_ASSERT(f.amount > 0, "non-positive merged flow entry");
    partition_->phi[f.from] -= f.amount;
    partition_->phi[f.to] -= f.amount;
    CCDN_ENSURE(partition_->phi[f.from] >= 0 && partition_->phi[f.to] >= 0,
                "flow exceeded slack");
  }
  net_.freeze_residuals();
  if constexpr (kCheckedBuild) {
    if (audit_level_ >= AuditLevel::kFull) audit_commit();
  }
  // After the freeze a saturated arc is dead in both directions and can
  // never come back (φ only shrinks); dropping dead arcs keeps the
  // searches from scanning drained scaffold entries.
  net_.drop_dead_arcs();
  if (!transient_) {
    // Stronger compaction for the persistent regime: the augment that just
    // finished proved no source→sink path remains, so every surviving pair
    // arc has a slack-exhausted endpoint (otherwise s→from→to→t would
    // still augment) and is therefore unusable for the rest of the slot.
    // Dropping them all makes the next step's searches touch only the live
    // scaffold and that step's own arrivals — the whole sweep's search
    // work becomes linear in the candidate count instead of steps × count.
    net_.drop_arcs_at_or_after(
        static_cast<EdgeId>(scaffold_cp_.stored_edges));
  }
}

void ThetaSweeper::audit_commit() const {
  AuditReport report;
  // Storage-walking checks, so the adjacency compactions the sweep already
  // performed (drop_dead_arcs, focus_out_edges) cannot hide an arc. The
  // freeze that just ran zeroed every backward residual, so the zero-
  // potential reduced-cost check (raw cost >= 0 on live arcs) must hold;
  // a surviving negative arc means a stale residual escaped the freeze —
  // the exact corruption the warm sweep's compaction could introduce.
  audit_flow_conservation(net_, map_.source, map_.sink, report);
  audit_reduced_costs(net_, {}, report);
  report.require_clean("theta-sweep commit");
}

SweepStep ThetaSweeper::step_gd(double theta_km) {
  CCDN_REQUIRE(partition_ != nullptr, "step_gd outside begin_slot/end_slot");
  SweepStep out;
  Stopwatch clock;

  if (!transient_) {
    const std::size_t appended = collect_arrivals(theta_km);
    if (appended == 0) {
      // The previous augment already proved no source→sink path remains,
      // and freezing only removes residual arcs, so with no new edges the
      // answer is still "no flow": skip the search entirely.
      out.graph_s = clock.elapsed_seconds();
      return out;
    }
    const auto first_new = static_cast<EdgeId>(2 * net_.num_edges());
    ++mark_stamp_;
    step_source_arcs_.clear();
    for (const std::uint32_t idx : arrivals_) {
      const auto& c = candidates_[idx];
      const std::int64_t cap =
          std::min(partition_->phi[c.from], partition_->phi[c.to]);
      CCDN_ASSERT(cap > 0, "dead candidate survived the arrival filter");
      const NodeId from_node = map_.at(c.from);
      const EdgeId e =
          net_.add_edge(from_node, map_.at(c.to), cap, c.distance_km);
      pair_edges_.push_back({c.from, c.to, e});
      committed_.push_back(0);
      if (sender_mark_[from_node] != mark_stamp_) {
        sender_mark_[from_node] = mark_stamp_;
        step_source_arcs_.push_back(source_arc_of_[from_node]);
      }
    }
    // Exhaustion (see commit()) proved every other sender a dead end, so
    // narrow the source's adjacency to the arrival senders: each search now
    // scans O(|arrivals|) arcs instead of every live sender.
    net_.focus_out_edges(map_.source, step_source_arcs_);
    out.graph_s = clock.elapsed_seconds();
    clock.reset();
    McmfResult res;
    if (!gd_batch_done_) {
      // The first non-empty step is a from-zero batch solve, not an
      // incremental one — every arc is new and the potentials carry no
      // information yet. The carried-potentials Dijkstra is pathological
      // here (each search heap-churns the whole zero-cost sender plateau),
      // so run it with SPFA instead; the warm-start machinery takes over
      // from the next step on.
      res = solver_.augment(net_, map_.source, map_.sink);
      gd_batch_done_ = true;
    } else {
      // A freshly appended short edge can under-cut the carried
      // potentials, and a dormant sender's potential goes stale while the
      // source's drifts down; the seeded re-price clamps the awakening
      // senders and lowers just the violated neighborhood instead of
      // re-pricing the whole graph.
      gd_solver_.reprice_from(net_, first_new, step_source_arcs_);
      res = gd_solver_.augment(net_, map_.source, map_.sink);
      if constexpr (kCheckedBuild) {
        if (audit_level_ >= AuditLevel::kFull) {
          // The carried potentials must still price every *traversable*
          // residual arc non-negatively after the augment, or the next
          // step's Dijkstra would settle suboptimal paths. Traversable,
          // not stored: a dormant sender's source arc was parked by
          // focus_out_edges above, its price is stale by design, and the
          // seeded re-price clamps it again before it re-enters any
          // adjacency slice.
          AuditReport report;
          audit_reduced_costs(net_, gd_solver_.potentials(), report,
                              ArcWalk::kTraversable);
          report.require_clean("theta-sweep carried potentials");
        }
      }
    }
    out.moved = res.flow;
    out.cost = res.cost;
    out.mcmf_s = clock.elapsed_seconds();
    commit(out);
    return out;
  }

  // Transient regime (a step_gc ran earlier this slot, e.g. the residual
  // Gd pass of Algorithm 1 line 12). With no arrivals since the previous
  // transient step, a rebuilt Gd cannot move anything. That step's graph
  // held every live pair, either as a direct edge (cap min(φ_i, φ_j)) or as
  // a member edge into a guide node whose aggregate arc has cap
  // min(Σ member caps, φ_j). After its max-flow, a live pair with slack
  // left at both ends would still be an augmenting path, so every live
  // pair now has a spent endpoint, and a Gd over the same live set is
  // empty.
  if (collect_arrivals(theta_km) == 0) {
    out.graph_s = clock.elapsed_seconds();
    return out;
  }
  refresh_live();
  live_edges_.clear();
  live_edges_.reserve(live_.size());
  for (const std::uint32_t idx : live_) live_edges_.push_back(candidates_[idx]);
  net_.truncate(scaffold_cp_);
  // New flow epoch: transient steps solve from zero on the frozen
  // scaffold, so re-zero flow() readings before appending this step's
  // arcs (keeps the commit audit's conservation walk exact).
  net_.rebase_flows();
  pair_edges_.clear();
  append_gd_edges(net_, map_, *partition_, live_edges_, pair_edges_);
  out.graph_s = clock.elapsed_seconds();
  clock.reset();
  // Fresh rebuild on the frozen scaffold: every positive-capacity arc is a
  // forward arc with non-negative cost, so zero potentials are valid.
  gd_solver_.reset_potentials(net_.num_nodes());
  const McmfResult res = gd_solver_.augment(net_, map_.source, map_.sink);
  out.moved = res.flow;
  out.cost = res.cost;
  out.mcmf_s = clock.elapsed_seconds();
  if constexpr (kCheckedBuild) {
    if (audit_level_ >= AuditLevel::kFull) {
      // Certify this transient epoch min-cost before commit() freezes it
      // and the next step's truncate() discards the evidence.
      AuditReport report;
      audit_epoch_residual(net_, report);
      report.require_clean("theta-sweep gd transient epoch");
    }
  }
  commit(out);
  last_gc_idle_ = false;
  return out;
}

SweepStep ThetaSweeper::step_gc(double theta_km,
                                std::span<const std::uint32_t> cluster_of,
                                const GuideOptions& options) {
  CCDN_REQUIRE(partition_ != nullptr, "step_gc outside begin_slot/end_slot");
  SweepStep out;
  Stopwatch clock;
  if (!transient_) switch_to_transient();

  const std::size_t arrived = collect_arrivals(theta_km);
  if (arrived == 0 && last_gc_idle_) {
    // Same live set and same φ as the previous build: the rebuilt Gc would
    // be identical, and its solve already came back empty.
    out.guide_nodes = last_guide_nodes_;
    out.graph_s = clock.elapsed_seconds();
    return out;
  }
  refresh_live();
  live_edges_.clear();
  live_edges_.reserve(live_.size());
  for (const std::uint32_t idx : live_) live_edges_.push_back(candidates_[idx]);
  net_.truncate(scaffold_cp_);
  net_.rebase_flows();  // new flow epoch — see step_gd's transient branch
  pair_edges_.clear();
  out.guide_nodes =
      append_gc_edges(net_, map_, *partition_, live_edges_, theta_km,
                      cluster_of, options, pair_edges_, gc_scratch_);
  last_guide_nodes_ = out.guide_nodes;
  out.graph_s = clock.elapsed_seconds();
  clock.reset();
  const McmfResult res = solver_.augment(net_, map_.source, map_.sink);
  out.moved = res.flow;
  out.cost = res.cost;
  out.mcmf_s = clock.elapsed_seconds();
  if constexpr (kCheckedBuild) {
    if (audit_level_ >= AuditLevel::kFull) {
      // Certify this transient Gc epoch min-cost before commit() freezes
      // it and the next step's truncate() discards the evidence.
      AuditReport report;
      audit_epoch_residual(net_, report);
      report.require_clean("theta-sweep gc transient epoch");
    }
  }
  commit(out);
  last_gc_idle_ = res.flow == 0;
  return out;
}

void SweepTotals::add(const SweepStep& step) {
  moved += step.moved;
  guide_nodes += step.guide_nodes;
  graph_s += step.graph_s;
  mcmf_s += step.mcmf_s;
  flows.insert(flows.end(), step.flows.begin(), step.flows.end());
}

SweepTotals sweep_theta(ThetaSweeper& sweeper, const RbcaerConfig& config,
                        std::int64_t max_movable,
                        std::span<const std::uint32_t> cluster_of) {
  SweepTotals out;
  constexpr double kThetaEps = 1e-9;
  double theta = config.theta1_km;
  while (theta <= config.theta2_km + kThetaEps && out.moved < max_movable) {
    ++out.theta_iterations;
    out.add(config.content_aggregation
                ? sweeper.step_gc(theta, cluster_of, config.guide)
                : sweeper.step_gd(theta));
    theta += config.delta_km;
  }
  return out;
}

}  // namespace ccdn
