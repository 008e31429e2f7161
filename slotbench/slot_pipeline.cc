// End-to-end slot-pipeline benchmark program (run it through run.py).
//
// One process replays RBCAer over one fixed workload, twice over:
//
//   1. Untraced: the public Simulator::run, back to back (closed loop, no
//      arrival schedule) until --seconds have elapsed. These passes give every
//      end-to-end number: set-up time, requests/s, per-slot stage time,
//      peak RSS and the paper's four §V-A quality metrics.
//   2. Traced: the same slots driven by hand through each layer's public
//      functions (partition_into_slots -> SlotDemand -> plan_slot ->
//      plan_digest / audit_slot_plan -> admit_slot -> count_new_replicas),
//      with a span recorded around every call and the layer counters read
//      after it. The spans stay in memory and are written to --spans when
//      the run ends; run.py folds them into the per-layer metrics.
//
// The traced drive doubles as the correctness gate: its per-slot digests,
// audits, clustering replay and quality metrics must agree with the
// untraced passes (see check_slots below). The program prints one JSON
// object on stdout; set-up and gating failures exit non-zero.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cluster/content_distance.h"
#include "cluster/hierarchical.h"
#include "core/rbcaer_scheme.h"
#include "model/demand.h"
#include "model/timeslots.h"
#include "model/topsets.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/cpu_features.h"
#include "util/error.h"
#include "util/flags.h"
#include "util/peak_rss.h"
#include "verify/schedule_audit.h"

namespace ccdn {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads. Sizes are fixed per workload; the seed draws the trace.
//
// The world (hotspots, demand zones, catalog) is the workload's fixed
// geometry, generated from its config's own seed; --seed feeds the trace
// generator only. World seeds move the quality metrics far more than any
// bound could absorb: across city world seeds 1-3 the average access
// distance reads 0.68, 2.13 and 2.76 km, because the Pareto zone weights
// sometimes make one zone dominate. Trace seeds keep each workload's shape
// and vary only the sampled demand.

// Days replayed per pass. paper_day's day slots take ~0.15 s, so several
// days per pass give many slot samples.
constexpr std::size_t kPaperDays = 10;
constexpr std::size_t kPerHotspotDailyRequests = 700;
// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetupReps = 3;

struct Workload {
  WorldConfig world;
  TraceConfig trace;
  std::int64_t slot_seconds = 24 * 3600;
  double service_fraction = 0.05;
  double cache_fraction = 0.03;
  std::size_t threads = 1;
  /// Every slot must overload some hotspot (else: at least one slot must).
  bool overload_every_slot = false;
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "paper_day") {
    // The paper's instance (§V-A): 310 hotspots, 15,190 videos and
    // 212,472 requests per one-day slot, s_h = 5%, c_h = 3%.
    w.world = WorldConfig::evaluation_region();
    w.trace.num_requests = 212472 * kPaperDays;
    w.trace.duration_hours = 24 * kPaperDays;
  } else if (name == "city_day_h8000") {
    // Large H: the O(H^2) Jd matrix and dendrogram dominate planning.
    w.world = WorldConfig::city_scale();
    w.world.num_hotspots = 8000;
    w.trace.num_requests = w.world.num_hotspots * kPerHotspotDailyRequests;
    w.trace.duration_hours = 24;
  } else if (name == "overload_hourly") {
    // Hourly slots with service capacity equal to the mean per-hotspot
    // load per slot, so the skewed demand overloads hotspots in every slot
    // and the θ sweep, MCMF and per-slot clustering do real work.
    w.world = WorldConfig::evaluation_region();
    w.world.num_hotspots = 2000;
    w.world.num_videos = 8000;
    w.trace.num_requests = w.world.num_hotspots * kPerHotspotDailyRequests;
    w.trace.duration_hours = 24;
    w.slot_seconds = 3600;
    w.service_fraction = static_cast<double>(kPerHotspotDailyRequests) /
                         24.0 / static_cast<double>(w.world.num_videos);
    w.threads = 2;
    w.overload_every_slot = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (paper_day | city_day_h8000 | "
                                "overload_hourly)");
  }
  w.trace.seed = seed;
  return w;
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent span and the slot they belong to. Kept in
// memory and written out once, after every timed section has finished.

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the span list; -1 for a root
  std::int64_t slot = -1;    // -1 for run-level spans
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 14); }

  std::int64_t open(const char* name, std::int64_t parent, std::int64_t slot) {
    spans_.push_back({name, now_ns(), 0, parent, slot});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  /// A span whose duration the callee measured itself (the scheme's stage
  /// timings): placed at `start_ns`, and the returned end is where the
  /// next sibling derived span starts.
  std::int64_t derived(const char* name, std::int64_t start_ns,
                       double seconds, std::int64_t parent,
                       std::int64_t slot) {
    const auto end_ns = start_ns + static_cast<std::int64_t>(seconds * 1e9);
    spans_.push_back({name, start_ns, end_ns, parent, slot});
    return end_ns;
  }
  [[nodiscard]] const Span& at(std::int64_t id) const {
    return spans_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  void write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    CCDN_REQUIRE(out != nullptr, "cannot open span file " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %" PRId64
                   ", \"end_ns\": %" PRId64 ", \"parent\": %" PRId64
                   ", \"slot\": %" PRId64 "}\n",
                   i, s.name, s.start_ns, s.end_ns, s.parent, s.slot);
    }
    CCDN_REQUIRE(std::fclose(out) == 0, "cannot write span file " + path);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it when the scope ends.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int64_t parent,
             std::int64_t slot)
      : tracer_(tracer), id_(tracer.open(name, parent, slot)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

// ---------------------------------------------------------------------------
// Set-up: world + capacities + trace, then the Simulator, whose constructor
// builds the hotspot GridIndex.

struct Instance {
  std::vector<Request> trace;
  std::unique_ptr<Simulator> simulator;
};

Instance set_up(const Workload& w, Tracer& tracer) {
  const ScopedSpan setup(tracer, "bench.setup", -1, -1);
  Instance instance;
  std::vector<Hotspot> hotspots;
  {
    const ScopedSpan span(tracer, "trace.generate", setup.id(), -1);
    World world = generate_world(w.world);
    assign_uniform_capacities(world, w.service_fraction, w.cache_fraction);
    instance.trace = generate_trace(world, w.trace);
    hotspots = world.hotspots();
  }
  {
    const ScopedSpan span(tracer, "geo.index_build", setup.id(), -1);
    SimulationConfig config;
    config.slot_seconds = w.slot_seconds;
    config.num_threads = w.threads;
    // kPlan records a per-slot plan digest; the in-pipeline audits it also
    // enables are compiled out of the (unchecked) builds this bench runs.
    config.audit_level = AuditLevel::kPlan;
    instance.simulator = std::make_unique<Simulator>(
        std::move(hotspots), VideoCatalog{w.world.num_videos}, config);
  }
  return instance;
}

// ---------------------------------------------------------------------------
// The traced drive.

struct Counters {
  std::int64_t max_movable = 0;
  std::int64_t moved = 0;
  std::size_t replicas = 0;
  std::size_t miss_rerouted = 0;
  std::size_t theta_iterations = 0;
  std::size_t guide_nodes = 0;
  std::size_t potential_reprices = 0;
  std::size_t jd_pairs = 0;
  std::size_t clusters = 0;
  std::size_t rejected_capacity = 0;
  std::size_t rejected_placement = 0;
  std::size_t sent_to_cdn = 0;
};

struct SlotCheck {
  std::uint64_t digest = 0;
  bool audit_ok = true;
  std::string audit_summary;
  std::int64_t max_movable = 0;
  bool clusters_match = true;
  std::size_t replay_clusters = 0;
  std::size_t plan_clusters = 0;
};

struct TracedDrive {
  double slot_work_s = 0.0;   // Σ demand + plan + admit spans
  double stage_work_s = 0.0;  // same, with plan as the scheme's stage sum
  Counters counters;
  std::vector<SlotCheck> slots;
  std::optional<SimulationReport> report;
};

double span_seconds(const Tracer& tracer, std::int64_t id) {
  const Span& s = tracer.at(id);
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

TracedDrive traced_drive(const Workload& w, const Instance& instance,
                         Tracer& tracer) {
  const Simulator& sim = *instance.simulator;
  const std::vector<Hotspot>& hotspots = sim.hotspots();
  const GridIndex& index = sim.hotspot_index();
  const double cdn_km = sim.config().cdn_distance_km;
  const std::span<const Request> trace(instance.trace);
  const SchemeContext context{hotspots, index,
                              VideoCatalog{w.world.num_videos}, cdn_km};
  RbcaerScheme scheme;
  const RbcaerConfig& config = scheme.config();
  TracedDrive drive;
  drive.report.emplace(w.world.num_videos, cdn_km);
  Counters& c = drive.counters;
  std::vector<std::vector<VideoId>> previous_placements;
  std::size_t nearest_sink = 0;

  const ScopedSpan root_span(tracer, "bench.traced_run", -1, -1);
  const std::int64_t root = root_span.id();
  std::vector<SlotRange> ranges;
  {
    const ScopedSpan span(tracer, "model.slotting", root, -1);
    ranges = partition_into_slots(trace, w.slot_seconds);
  }
  for (const SlotRange& range : ranges) {
    const auto slot = static_cast<std::int64_t>(drive.slots.size());
    const std::span<const Request> requests =
        trace.subspan(range.begin, range.size());
    SlotCheck check;
    std::optional<SlotDemand> demand;
    std::int64_t demand_span = -1;
    {
      const ScopedSpan span(tracer, "model.demand", root, slot);
      demand.emplace(requests, index);
      demand_span = span.id();
    }
    SlotPlan plan;
    std::int64_t plan_span = -1;
    {
      const ScopedSpan span(tracer, "core.plan", root, slot);
      plan = scheme.plan_slot(context, requests, *demand);
      plan_span = span.id();
    }
    const StageTimings& stages = *scheme.last_stage_timings();
    const RbcaerScheme::Diagnostics& diag = scheme.last_diagnostics();
    std::int64_t at = tracer.at(plan_span).start_ns;
    at = tracer.derived("core.partition", at, stages.partition_s, plan_span,
                        slot);
    at = tracer.derived("core.gc_build", at, stages.gc_build_s, plan_span,
                        slot);
    at = tracer.derived("core.graph", at, stages.graph_s, plan_span, slot);
    at = tracer.derived("flow.mcmf", at, stages.mcmf_s, plan_span, slot);
    tracer.derived("core.replication", at, stages.replication_s, plan_span,
                   slot);
    check.max_movable = diag.max_movable;
    check.plan_clusters = diag.num_clusters;
    c.max_movable += diag.max_movable;
    c.moved += diag.moved;
    c.replicas += diag.replicas;
    c.miss_rerouted += diag.miss_rerouted;
    c.theta_iterations += diag.theta_iterations;
    c.guide_nodes += diag.guide_nodes;
    c.potential_reprices += diag.potential_reprices;

    {
      const ScopedSpan span(tracer, "verify.digest", root, slot);
      check.digest = plan_digest(plan);
    }
    {
      const ScopedSpan span(tracer, "verify.audit", root, slot);
      AuditReport audit;
      audit_slot_plan(plan, hotspots, requests, demand->request_home(),
                      audit);
      check.audit_ok = audit.ok();
      check.audit_summary = audit.summary();
    }
    SlotMetrics metrics;
    std::int64_t admit_span = -1;
    {
      const ScopedSpan span(tracer, "sim.admit", root, slot);
      metrics = admit_slot(hotspots, plan, requests, cdn_km);
      admit_span = span.id();
    }
    {
      const ScopedSpan span(tracer, "core.count_new_replicas", root, slot);
      metrics.replicas =
          count_new_replicas(previous_placements, plan.placements);
      previous_placements = std::move(plan.placements);
    }
    c.rejected_capacity += metrics.rejected_capacity;
    c.rejected_placement += metrics.rejected_placement;
    c.sent_to_cdn += metrics.sent_to_cdn;
    drive.report->add_slot(metrics);

    const double demand_s = span_seconds(tracer, demand_span);
    const double admit_s = span_seconds(tracer, admit_span);
    drive.slot_work_s += demand_s + span_seconds(tracer, plan_span) + admit_s;
    drive.stage_work_s += demand_s + admit_s + stages.total_s();

    {
      // The nearest-hotspot lookups SlotDemand performs, timed alone. Run
      // after the slot's pipeline so model.demand meets the caches as
      // Simulator::run leaves them, not warmed by this pass.
      const ScopedSpan span(tracer, "geo.nearest", root, slot);
      for (const Request& r : requests) {
        nearest_sink += index.nearest(r.location);
      }
    }

    if (diag.max_movable > 0) {
      // Replay of the scheme's clustering phase on the same SlotDemand,
      // split into its three layers. Outside the pipeline: core.plan
      // already contains this work once, as core.gc_build.
      std::vector<std::vector<VideoId>> top_sets;
      {
        const ScopedSpan span(tracer, "model.topsets", root, slot);
        top_sets = top_sets_per_hotspot(*demand, config.top_fraction);
      }
      std::optional<DistanceMatrix> jd;
      {
        const ScopedSpan span(tracer, "cluster.jd", root, slot);
        jd.emplace(content_distance_matrix(
            top_sets,
            {.use_bitmap = config.bitmap_jaccard, .simd = config.simd}));
      }
      ClusteringResult clustering;
      {
        const ScopedSpan span(tracer, "cluster.dendrogram", root, slot);
        clustering = hierarchical_cluster(*jd, config.linkage,
                                          config.content_cluster_threshold,
                                          config.simd);
      }
      const std::size_t n = jd->size();
      c.jd_pairs += n * (n - 1) / 2;
      c.clusters += clustering.num_clusters;
      check.replay_clusters = clustering.num_clusters;
      check.clusters_match = clustering.num_clusters == diag.num_clusters;
    }
    drive.slots.push_back(std::move(check));
  }
  // Keeps the lookups observable so the pass cannot be optimized away.
  if (nearest_sink == static_cast<std::size_t>(-1)) std::puts("");
  return drive;
}

// ---------------------------------------------------------------------------
// Gate: which slots fail any check.

bool same_quality(const SimulationReport& a, const SimulationReport& b) {
  return a.serving_ratio() == b.serving_ratio() &&
         a.average_distance_km() == b.average_distance_km() &&
         a.replication_cost() == b.replication_cost() &&
         a.cdn_server_load() == b.cdn_server_load();
}

std::vector<std::string> check_slots(
    const Workload& w, const std::vector<SimulationReport>& passes,
    const TracedDrive& drive, std::vector<std::uint8_t>& failed) {
  std::vector<std::string> failures;
  const std::size_t n = drive.slots.size();
  failed.assign(n, 0);
  const auto fail_all = [&](const std::string& why) {
    failures.push_back(why);
    std::fill(failed.begin(), failed.end(), 1);
  };
  for (const SimulationReport& pass : passes) {
    if (pass.slot_digests().size() != n) {
      fail_all("untraced pass has " +
               std::to_string(pass.slot_digests().size()) +
               " slot digests, traced drive has " + std::to_string(n));
      return failures;
    }
    if (!same_quality(pass, *drive.report)) {
      fail_all("quality metrics differ between the untraced and traced drives");
    }
  }
  bool any_movable = false;
  for (std::size_t s = 0; s < n; ++s) {
    const SlotCheck& check = drive.slots[s];
    const std::string where = "slot " + std::to_string(s) + ": ";
    for (const SimulationReport& pass : passes) {
      if (pass.slot_digests()[s] != check.digest) {
        failed[s] = 1;
        failures.push_back(where + "plan digest differs from Simulator::run");
        break;
      }
    }
    if (!check.audit_ok) {
      failed[s] = 1;
      failures.push_back(where + "audit_slot_plan: " + check.audit_summary);
    }
    if (!check.clusters_match) {
      failed[s] = 1;
      failures.push_back(where + "clustering replay found " +
                         std::to_string(check.replay_clusters) +
                         " clusters, plan_slot " +
                         std::to_string(check.plan_clusters));
    }
    any_movable = any_movable || check.max_movable > 0;
    if (w.overload_every_slot && check.max_movable <= 0) {
      failed[s] = 1;
      failures.push_back(where + "no overloaded hotspot (max_movable = 0)");
    }
  }
  if (!any_movable) {
    fail_all("no slot overloads a hotspot, so balancing never ran");
  }
  return failures;
}

// ---------------------------------------------------------------------------
// Output.

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

/// Minimal JSON string escaping for the failure messages.
std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return out + "\"";
}

void print_array(const std::vector<double>& values) {
  std::printf("[");
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.9g", i == 0 ? "" : ", ", values[i]);
  }
  std::printf("]");
}

void print_numbers(const char* key, const std::vector<double>& values) {
  std::printf("  \"%s\": ", key);
  print_array(values);
  std::printf(",\n");
}

int run(const Flags& flags) {
  if constexpr (kCheckedBuild) {
    // Checked builds run in-pipeline audits, which makes them a different
    // program from the one whose speed is being recorded.
    std::fprintf(stderr, "refusing to measure a checked build (NDEBUG "
                         "undefined); use Release or RelWithDebInfo\n");
    return 3;
  }
  for (const char* required : {"workload", "seed", "seconds", "spans"}) {
    CCDN_REQUIRE(flags.has(required),
                 std::string("--") + required + " is required");
  }
  const std::string name = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 0));
  const double seconds = flags.get_double("seconds", 0.0);
  const std::string spans_path = flags.get_string("spans", "");
  const Workload w = make_workload(name, seed);

  Tracer tracer;
  std::vector<double> setup_s;
  std::optional<Instance> instance;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    instance.reset();  // never hold two traces at once
    const Clock::time_point start = Clock::now();
    instance.emplace(set_up(w, tracer));
    setup_s.push_back(seconds_since(start));
  }
  const Simulator& sim = *instance->simulator;

  // Untraced passes, each a fresh scheme through the public Simulator::run.
  std::vector<SimulationReport> passes;
  std::vector<double> pass_wall_s;
  std::vector<std::vector<double>> slot_s;  // one row of slot times per pass
  const Clock::time_point measure_start = Clock::now();
  while (passes.empty() || seconds_since(measure_start) < seconds) {
    RbcaerScheme scheme;
    const Clock::time_point start = Clock::now();
    passes.push_back(sim.run(scheme, instance->trace));
    pass_wall_s.push_back(seconds_since(start));
    std::vector<double>& row = slot_s.emplace_back();
    for (const StageTimings& t : passes.back().stage_timings()) {
      row.push_back(t.total_s());
    }
  }
  const double peak_rss = peak_rss_mb();
  double untraced_stage_s = 0.0;
  for (const SimulationReport& pass : passes) {
    untraced_stage_s += pass.total_stage_timings().total_s();
  }
  untraced_stage_s /= static_cast<double>(passes.size());

  const TracedDrive drive = traced_drive(w, *instance, tracer);
  std::vector<std::uint8_t> failed;
  const std::vector<std::string> failures =
      check_slots(w, passes, drive, failed);
  tracer.write(spans_path);

  const SimulationReport& q = passes.front();
  const Counters& c = drive.counters;
  std::size_t failed_slots = 0;
  for (const std::uint8_t f : failed) failed_slots += f;

  std::printf("{\n");
  std::printf("  \"workload\": \"%s\",\n  \"seed\": %" PRIu64 ",\n",
              name.c_str(), seed);
  std::printf(
      "  \"context\": {\"nproc\": %u, \"cpu_model\": %s, \"compiler\": %s, "
      "\"build_type\": \"%s\", \"cpu_has_avx2\": %s, \"checked_build\": "
      "false, \"simulator_threads\": %zu, \"hotspots\": %zu, \"videos\": "
      "%u},\n",
      std::thread::hardware_concurrency(), quoted(cpu_model()).c_str(),
      quoted(__VERSION__).c_str(), SLOTBENCH_BUILD_TYPE,
      cpu_has_avx2() ? "true" : "false", w.threads, sim.hotspots().size(),
      w.world.num_videos);
  std::printf("  \"requests\": %zu,\n  \"slots\": %zu,\n",
              instance->trace.size(), drive.slots.size());
  print_numbers("setup_s", setup_s);
  print_numbers("pass_wall_s", pass_wall_s);
  std::printf("  \"slot_s\": [");
  for (std::size_t i = 0; i < slot_s.size(); ++i) {
    std::printf("%s", i == 0 ? "" : ", ");
    print_array(slot_s[i]);
  }
  std::printf("],\n");
  std::printf("  \"peak_rss_mb\": %.6f,\n", peak_rss);
  std::printf(
      "  \"quality\": {\"serving_ratio\": %.17g, \"avg_distance_km\": %.17g, "
      "\"replication_cost\": %.17g, \"cdn_server_load\": %.17g},\n",
      q.serving_ratio(), q.average_distance_km(), q.replication_cost(),
      q.cdn_server_load());
  std::printf(
      "  \"traced\": {\"slot_work_s\": %.9g, \"stage_work_s\": %.9g, "
      "\"untraced_stage_work_s\": %.9g, \"spans\": %zu},\n",
      drive.slot_work_s, drive.stage_work_s, untraced_stage_s, tracer.size());
  std::printf(
      "  \"counters\": {\"core.max_movable\": %" PRId64
      ", \"core.moved\": %" PRId64
      ", \"core.replicas\": %zu, \"core.miss_rerouted\": %zu, "
      "\"core.theta_iterations\": %zu, \"core.guide_nodes\": %zu, "
      "\"flow.potential_reprices\": %zu, \"cluster.jd_pairs\": %zu, "
      "\"cluster.clusters\": %zu, \"sim.rejected_capacity\": %zu, "
      "\"sim.rejected_placement\": %zu, \"sim.sent_to_cdn\": %zu},\n",
      c.max_movable, c.moved, c.replicas, c.miss_rerouted,
      c.theta_iterations, c.guide_nodes, c.potential_reprices, c.jd_pairs,
      c.clusters, c.rejected_capacity, c.rejected_placement, c.sent_to_cdn);
  std::printf("  \"failed_slots\": %zu,\n  \"failures\": [", failed_slots);
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ", quoted(failures[i]).c_str());
  }
  std::printf("]\n}\n");
  return failed_slots == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ccdn

int main(int argc, char** argv) {
  try {
    return ccdn::run(ccdn::Flags(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slot_pipeline: %s\n", e.what());
    return 2;
  }
}
