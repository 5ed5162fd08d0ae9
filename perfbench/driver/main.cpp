// perfbench — one workload, measured end to end (or, with --trace 1,
// layer by layer), checked against an independent reference.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --tmpdir <dir>
//
// The last line of standard output is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Diagnostics go to standard error. See perfbench/README.md.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "driver/common.hpp"

namespace pb {

void mark_first_batch(const RunConfig& cfg, Outcome& out) {
  const auto now = Clock::now();
  if (out.rounds == 0)
    out.setup_s = seconds_between(cfg.process_start, now) - cfg.excluded_s;
  out.stack_ms.push_back(seconds_between(out.round_start, now) * 1e3);
}

void merge_queries(const Outcome& local, Outcome& out) {
  for (const auto& e : local.errors) out.error(e);
  out.check.merge(local.check);
  out.probe_ms.insert(out.probe_ms.end(), local.probe_ms.begin(),
                      local.probe_ms.end());
  out.sum_ms.insert(out.sum_ms.end(), local.sum_ms.begin(),
                    local.sum_ms.end());
}

namespace {

constexpr std::size_t kProbeSets = 16;
constexpr std::size_t kProbesPerSet = 256;

struct Shape {
  Stream stream;
  Interleave interleave;
  bool want_final = false;
};

/// Every workload's generated shape; see README.md for the why.
Shape make_shape(const std::string& workload, std::uint64_t seed) {
  Shape s;
  if (workload == "kron17_inproc") {
    RmatParams p;
    p.batch_size = 100000;
    p.batches = 200;
    s.stream = rmat_stream(p, seed);
    s.interleave = Interleave{10, 20, 0};
  } else if (workload == "router_query_mix") {
    RmatParams p;
    p.batch_size = 50000;
    p.batches = 80;
    s.stream = rmat_stream(p, seed);
    s.interleave = Interleave{8, 8, 40};
  } else if (workload == "replicated_ingest") {
    HostPairParams p;
    p.batch_size = 10000;
    p.batches = 400;
    s.stream = hostpair_stream(p, seed);
    s.interleave = Interleave{8, 40, 50};
    s.want_final = true;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return s;
}

void make_inputs(const std::string& workload, std::uint64_t seed,
                 Inputs& in) {
  Shape shape = make_shape(workload, seed);
  const auto probes =
      probe_sets(shape.stream, kProbeSets, kProbesPerSet, seed);
  in.nrows = shape.stream.nrows;
  in.ncols = shape.stream.ncols;
  in.interleave = shape.interleave;
  in.entries = shape.stream.entries();
  in.ref = std::make_unique<Reference>(shape.stream, probes, shape.want_final);
  for (const auto& set : probes) {
    std::vector<net::ElementQuery> qs;
    for (const auto& c : set) qs.push_back(net::ElementQuery{c.row, c.col});
    in.probes.push_back(std::move(qs));
  }
  in.batches.reserve(shape.stream.batches.size());
  for (auto& b : shape.stream.batches) {
    gbx::Tuples<double> t;
    t.reserve(b.size());
    for (const auto& c : b) t.push_back(c.row, c.col, 1.0);
    in.batches.push_back(std::move(t));
    Batch().swap(b);
  }
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The resident set now, from /proc/self/statm; 0 if unreadable.
double rss_mib() {
  unsigned long long size = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%llu %llu", &size, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

struct Metric {
  const char* name;
  const char* unit;
};

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> m = {
      {"gbx.fold_ns_per_entry", "ns"},
      {"gbx.scratch_grows", "count"},
      {"hier.update_ns_per_entry", "ns"},
      {"hier.level0.folds", "count"},
      {"hier.level0.fold_ratio", "ratio"},
      {"hier.level1.folds", "count"},
      {"hier.level1.fold_ratio", "ratio"},
      {"hier.level2.folds", "count"},
      {"hier.level2.fold_ratio", "ratio"},
      {"hier.freeze_ms", "ms"},
      {"hier.reduce_ms", "ms"},
      {"hier.nvals_ms", "ms"},
      {"hier.probe_ms", "ms"},
      {"hier.lanes_ns_per_entry", "ns"},
      {"hier.lane_busy_skew", "ratio"},
      {"hier.submit_blocked_s", "s"},
      {"governor.peak_pinned_bytes", "bytes"},
      {"governor.evictions", "count"},
      {"net.server_ns_per_entry", "ns"},
      {"net.insert_blocked_s", "s"},
      {"net.flush_ms", "ms"},
      {"net.parks", "count"},
      {"net.sum_quiesced_ms", "ms"},
      {"cluster.router_ns_per_entry", "ns"},
      {"cluster.stitched_sum_ms", "ms"},
      {"cluster.stitched_freezes", "count"},
      {"repl.replicated_ns_per_entry", "ns"},
      {"repl.durable_flush_ms", "ms"},
      {"repl.wal_bytes_per_entry", "bytes"},
      {"setup.warm_stack_ms", "ms"},
      {"traced.ingest_rate", "entries/s"},
  };
  return m;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmpdir;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--tmpdir") a.tmpdir = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (argc % 2 != 1) throw std::invalid_argument("arguments come in pairs");
  if (a.workload.empty() || a.tmpdir.empty())
    throw std::invalid_argument("--workload and --tmpdir are required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

void print_result(const Outcome& out,
                  const std::vector<std::pair<Metric, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.check.ok() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t k = 0; k < metrics.size(); ++k)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                k ? ", " : "", metrics[k].first.name, metrics[k].second,
                metrics[k].first.unit);
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(int argc, char** argv, Clock::time_point process_start) {
  const Args a = parse(argc, argv);
  trace::enable(a.trace);

  const auto g0 = Clock::now();
  Inputs in;
  make_inputs(a.workload, a.seed, in);
  // peak_rss_mb is the first round's peak above what the inputs hold, so
  // the generator's freed memory goes back to the system first.
  malloc_trim(0);
  const double inputs_rss = rss_mib();
  const double inputs_peak = peak_rss_mib();
  RunConfig cfg;
  cfg.seconds = a.seconds;
  cfg.process_start = process_start;
  cfg.tmpdir = a.tmpdir;
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu batches, %llu entries, %llu "
               "distinct; inputs+reference %.2f s, %.1f MiB resident (peak "
               "%.1f MiB)\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               in.batches.size(), static_cast<unsigned long long>(in.entries),
               static_cast<unsigned long long>(
                   in.ref->distinct(in.batches.size())),
               seconds_between(g0, Clock::now()), inputs_rss, inputs_peak);

  const auto round = a.workload == "kron17_inproc"      ? kron17_inproc_round
                     : a.workload == "router_query_mix" ? router_query_mix_round
                                                        : replicated_ingest_round;
  // Whole rounds until the run has measured for --seconds, so every run
  // attempts whole rounds of the same operations. Peak RSS is read after
  // the first: one cold stack, before later rounds' freed memory lingers
  // in per-thread allocator arenas.
  Outcome out;
  // Everything since g0 (inputs, reference, the report above) is the
  // benchmark's own work, not set-up.
  cfg.excluded_s = seconds_between(g0, Clock::now());
  const auto start = Clock::now();
  double peak_rss_mb = 0;
  do {
    out.round_start = Clock::now();
    round(in, cfg, out);
    if (++out.rounds == 1) {
      const double peak = peak_rss_mib();
      peak_rss_mb = peak - inputs_rss;
      if (peak <= inputs_peak)
        std::fprintf(stderr,
                     "perfbench: warning: the first round stayed under the "
                     "input generator's peak (%.1f MiB); peak_rss_mb is a "
                     "lower bound\n",
                     inputs_peak);
    }
  } while (seconds_between(start, Clock::now()) < cfg.seconds);

  std::vector<std::pair<Metric, double>> metrics;
  if (!a.trace) {
    metrics = {
        {{"setup_s", "s"}, out.setup_s},
        {{"ingest_rate", "entries/s"}, quantile(out.ingest_rate, 0.5)},
        {{"probe_p50_ms", "ms"}, quantile(out.probe_ms, 0.5)},
        {{"probe_p90_ms", "ms"}, quantile(out.probe_ms, 0.9)},
        {{"sum_p50_ms", "ms"}, quantile(out.sum_ms, 0.5)},
        {{"state_bytes_per_entry", "bytes"},
         quantile(out.state_bytes_per_entry, 0.5)},
        {{"peak_rss_mb", "MiB"}, peak_rss_mb},
    };
  } else {
    out.layer["traced.ingest_rate"] = quantile(out.ingest_rate, 0.5);
    // Rounds after the first build their stack in a warm process.
    out.layer["setup.warm_stack_ms"] = quantile(
        std::vector<double>(out.stack_ms.begin() + (out.rounds > 1),
                            out.stack_ms.end()),
        0.5);
    run_ladder(in, cfg, out);
    for (const auto& m : per_layer_metrics()) {
      auto it = out.layer.find(m.name);
      if (it == out.layer.end()) {
        out.check.add(std::string("per-layer metric missing: ") + m.name);
        continue;
      }
      metrics.emplace_back(m, it->second);
    }
    std::filesystem::create_directories(".bench_trace");
    const std::string path = ".bench_trace/" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".jsonl";
    if (!trace::write(path))
      out.check.add("cannot write trace file " + path);
    else
      std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
  }

  for (std::size_t r = 0; r < out.ingest_rate.size(); ++r)
    std::fprintf(stderr, "perfbench: round %zu: %.4g entries/s\n", r,
                 out.ingest_rate[r]);
  std::fprintf(stderr,
               "perfbench: %zu rounds, %zu probe sets, %zu sums, %llu checks, "
               "%llu failed checks\n",
               out.rounds, out.probe_ms.size(), out.sum_ms.size(),
               static_cast<unsigned long long>(out.check.checks()),
               static_cast<unsigned long long>(out.check.failures()));
  for (const auto& d : out.check.first())
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", d.c_str());
  for (const auto& e : out.errors)
    std::fprintf(stderr, "perfbench: OPERATION FAILED: %s\n", e.c_str());
  print_result(out, metrics);
  return out.check.ok() ? 0 : 1;
}

}  // namespace

}  // namespace pb

int main(int argc, char** argv) {
  const auto process_start = pb::Clock::now();
  try {
    return pb::run(argc, argv, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
