// ccdn_trace — command-line front end for the trace pipeline.
//
//   ccdn_trace generate --out=trace.csv [--hotspots=310] [--requests=212472]
//                       [--videos=15190] [--seed=42] [--hours=24] [--stream]
//       Generate a synthetic session trace (and print the world summary).
//       --stream emits slot by slot through the windowed TraceGenerator
//       cursor and flushes each batch, so traces larger than memory can be
//       written (costs one draw-stream replay per emitted slot).
//
//   ccdn_trace stats --in=trace.csv [--hotspots=310] [--seed=42]
//       Load a trace and print workload/balance/popularity statistics
//       against the matching world's hotspot deployment.
//
//   ccdn_trace simulate --in=trace.csv --scheme=rbcaer|nearest|random|virtual
//                       [--capacity=0.05] [--cache=0.03] [--hotspots=310]
//                       [--stream] [--threads=1] [--window=0] [--shards=0]
//       Run one scheme over the trace and print the four paper metrics.
//       --stream pulls slot batches straight off the CSV (bounded memory,
//       bit-identical report); --threads/--window size the pipelined
//       executor (window 0 = 2x threads); --shards sets the rbcaer and
//       virtual schemes' zone-shard count (0 = unsharded).
//
// The world is regenerated from the same --seed/--hotspots/--videos flags,
// so a trace file plus its generation flags fully reproduces a run. A flag
// the subcommand does not read is a usage error (exit 2), so a misspelt or
// retired flag never silently falls back to its default.
#include <cstdio>
#include <memory>
#include <string>

#include "core/nearest_scheme.h"
#include "core/random_scheme.h"
#include "core/rbcaer_scheme.h"
#include "core/virtual_rbcaer_scheme.h"
#include "model/trace_stats.h"
#include "sim/measurement.h"
#include "sim/simulator.h"
#include "stats/empirical_cdf.h"
#include "stats/load_balance.h"
#include "trace/generator.h"
#include "trace/slot_source.h"
#include "trace/trace_io.h"
#include "trace/world.h"
#include "util/cpu_features.h"
#include "util/flags.h"
#include "util/log.h"

namespace {

using namespace ccdn;

/// True (after naming each one on stderr) when a flag was set but never
/// read. Call once a subcommand has read every flag it understands.
bool has_unknown_flags(const Flags& flags) {
  const auto unknown = flags.unused();
  for (const auto& name : unknown) {
    std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
  }
  return !unknown.empty();
}

World world_from_flags(const Flags& flags) {
  WorldConfig config = WorldConfig::evaluation_region();
  config.num_hotspots = static_cast<std::size_t>(
      flags.get_int("hotspots", static_cast<std::int64_t>(
                                    config.num_hotspots)));
  config.num_videos = static_cast<std::uint32_t>(
      flags.get_int("videos", config.num_videos));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  return generate_world(config);
}

int cmd_generate(const Flags& flags) {
  const std::string out = flags.get_string("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out=<path> is required\n");
    return 2;
  }
  TraceConfig trace_config;
  trace_config.num_requests = static_cast<std::size_t>(
      flags.get_int("requests", static_cast<std::int64_t>(
                                    trace_config.num_requests)));
  trace_config.duration_hours =
      static_cast<std::size_t>(flags.get_int("hours", 24));
  trace_config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const bool stream = flags.get_bool("stream", false);
  const World world = world_from_flags(flags);
  if (has_unknown_flags(flags)) return 2;
  std::size_t written = 0;
  if (stream) {
    TraceGenerator generator(world, trace_config);
    TraceWriter writer(out);
    while (auto batch = generator.next_slot_batch()) {
      writer.append(*batch);
    }
    written = writer.rows_written();
  } else {
    const auto trace = generate_trace(world, trace_config);
    write_trace_csv(out, trace);
    written = trace.size();
  }
  std::printf("wrote %zu requests over %zu h to %s (world: %zu hotspots, "
              "%u videos, seed %llu)\n",
              written, trace_config.duration_hours, out.c_str(),
              world.hotspots().size(), world.config().num_videos,
              static_cast<unsigned long long>(world.config().seed));
  return 0;
}

int cmd_stats(const Flags& flags) {
  const std::string in = flags.get_string("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "stats: --in=<path> is required\n");
    return 2;
  }
  const World world = world_from_flags(flags);
  if (has_unknown_flags(flags)) return 2;
  const auto trace = read_trace_csv(in);
  if (trace.empty()) {
    std::fprintf(stderr, "stats: trace is empty\n");
    return 1;
  }
  const TraceStats stats = compute_trace_stats(trace);
  std::printf("trace summary: %zu requests, %zu users, %zu videos, span "
              "%.1f h, top-20%% share %.2f\n",
              stats.num_requests, stats.distinct_users,
              stats.distinct_videos,
              static_cast<double>(stats.span_seconds()) / 3600.0,
              stats.top20_share);

  const GridIndex index(world.hotspot_locations(), 0.5);
  const RoutedDemand routed = route_nearest(index, trace);

  std::vector<double> loads(routed.workloads.begin(),
                            routed.workloads.end());
  const EmpiricalCdf cdf(loads);
  std::printf("trace: %zu requests; world: %zu hotspots\n", trace.size(),
              world.hotspots().size());
  std::printf("workload under Nearest routing:\n");
  std::printf("  median %.0f  p90 %.0f  p99 %.0f  (p99/median %.1fx)\n",
              cdf.median(), cdf.quantile(0.9), cdf.quantile(0.99),
              cdf.quantile(0.99) / std::max(1.0, cdf.median()));
  std::printf("  gini %.3f  cv %.3f  jain %.3f\n", gini_coefficient(loads),
              coefficient_of_variation(loads), jains_fairness_index(loads));
  std::printf("distinct videos requested per hotspot (mean): %.0f\n",
              static_cast<double>(routed.total_replication_cost()) /
                  static_cast<double>(world.hotspots().size()));
  return 0;
}

int cmd_simulate(const Flags& flags) {
  const std::string in = flags.get_string("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "simulate: --in=<path> is required\n");
    return 2;
  }
  World world = world_from_flags(flags);
  assign_uniform_capacities(world, flags.get_double("capacity", 0.05),
                            flags.get_double("cache", 0.03));
  const std::string scheme_name = flags.get_string("scheme", "rbcaer");
  // Jd SIMD kernel selection (auto | scalar | avx2). Any mode yields the
  // identical plan; the flag exists for pinning and for forcing the vector
  // path in benchmarks.
  const SimdMode simd =
      parse_simd_mode(flags.get_string("simd", "auto"));
  // Zone-sharded planning (0 = unsharded) for the RBCAer family; the
  // stateless baselines have no sharded path.
  const auto shards = static_cast<std::size_t>(flags.get_int("shards", 0));
  SchemePtr scheme;
  if (scheme_name == "rbcaer") {
    RbcaerConfig config;
    config.simd = simd;
    config.num_shards = shards;
    scheme = std::make_unique<RbcaerScheme>(config);
  } else if (scheme_name == "nearest") {
    scheme = std::make_unique<NearestScheme>();
  } else if (scheme_name == "random") {
    scheme = std::make_unique<RandomScheme>(1.5);
  } else if (scheme_name == "virtual") {
    VirtualRbcaerConfig config;
    config.regional.simd = simd;
    config.regional.num_shards = shards;
    scheme = std::make_unique<VirtualRbcaerScheme>(config);
  } else {
    std::fprintf(stderr,
                 "simulate: unknown --scheme '%s' (rbcaer|nearest|random|"
                 "virtual)\n",
                 scheme_name.c_str());
    return 2;
  }
  SimulationConfig sim_config;
  sim_config.slot_seconds = flags.get_int("slot_seconds", 24 * 3600);
  sim_config.num_threads =
      static_cast<std::size_t>(flags.get_int("threads", 1));
  sim_config.max_inflight_slots =
      static_cast<std::size_t>(flags.get_int("window", 0));
  const bool stream = flags.get_bool("stream", false);
  if (has_unknown_flags(flags)) return 2;
  const Simulator simulator(world.hotspots(),
                            VideoCatalog{world.config().num_videos},
                            sim_config);
  SimulationReport report = [&] {
    if (stream) {
      CsvSlotSource source(in, sim_config.slot_seconds);
      return simulator.run(*scheme, source);
    }
    const auto trace = read_trace_csv(in);
    return simulator.run(*scheme, trace);
  }();
  std::printf("%s over %zu requests:\n", scheme->name().c_str(),
              report.total_requests());
  std::printf("  serving_ratio        %.3f\n", report.serving_ratio());
  std::printf("  avg_distance_km      %.3f\n", report.average_distance_km());
  std::printf("  replication_cost     %.3f\n", report.replication_cost());
  std::printf("  cdn_server_load      %.3f\n", report.cdn_server_load());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto& positional = flags.positional();
  const std::string command = positional.empty() ? "" : positional.front();
  try {
    if (command == "generate") return cmd_generate(flags);
    if (command == "stats") return cmd_stats(flags);
    if (command == "simulate") return cmd_simulate(flags);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: ccdn_trace <generate|stats|simulate> [flags]\n"
               "see the header comment of tools/ccdn_trace.cc\n");
  return 2;
}
