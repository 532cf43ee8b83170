// One process runs one workload for one seed:
//
//   perfbench_runner --workload swarm|churn|fleet --seed N --seconds S --trace 0|1
//                    [--spans FILE]
//
// --trace 0 repeats the workload's episode (set-up, then a fixed amount of
// measured work) until the measured windows add up to S seconds, and prints
// the end-to-end metrics. --trace 1 alternates untraced and traced episodes
// and prints the per-layer metrics; the spans of the first traced episode
// go to FILE. Every episode of one seed must reproduce the first one's
// simulated-time facts, traced or not. perfbench/run.py builds this binary
// and is the entry point; perfbench/README.md explains the choices.

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/obs/metrics.h"

namespace {
thread_local uint64_t t_heap_allocs = 0;
}  // namespace

// Counting allocator: util.heap_allocs_per_* read the calling thread's count.
void* operator new(std::size_t size) {
  ++t_heap_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

uint64_t HeapAllocs() { return t_heap_allocs; }

double Median(std::vector<double> values) { return Percentile(std::move(values), 50); }

unsigned WorkerCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return 1;
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

SpanTotals TotalSpans(const Tracer& tracer, const Names& names, size_t first, size_t last,
                      double wall_s) {
  SpanTotals out;
  if (!tracer.enabled()) {
    return out;
  }
  const std::vector<int64_t> self = SelfTimes(tracer.spans());
  const std::vector<int64_t> by_name =
      SelfTimeByName(tracer.spans(), self, tracer.names().size(), first, last);
  double layer_s = 0;
  for (size_t i = 0; i < by_name.size(); ++i) {
    const double s = static_cast<double>(by_name[i]) / 1e9;
    out.self_s[static_cast<uint32_t>(i)] = s;
    if (!names.IsGrouping(static_cast<uint32_t>(i))) {
      layer_s += s;
    }
  }
  out.coverage = wall_s > 0 ? layer_s / wall_s : 0;
  return out;
}

namespace {

bool Matches(const std::string& name, std::string_view prefix, std::string_view suffix) {
  return name.size() >= prefix.size() + suffix.size() && name.starts_with(prefix) &&
         name.ends_with(suffix);
}

}  // namespace

uint64_t SumCounters(const natpunch::obs::MetricsRegistry* reg, std::string_view prefix,
                     std::string_view suffix) {
  uint64_t sum = 0;
  for (const auto& [name, counter] : reg->counters()) {
    sum += Matches(name, prefix, suffix) ? counter->value() : 0;
  }
  return sum;
}

int64_t SumGauges(const natpunch::obs::MetricsRegistry* reg, std::string_view prefix,
                  std::string_view suffix) {
  int64_t sum = 0;
  for (const auto& [name, gauge] : reg->gauges()) {
    sum += Matches(name, prefix, suffix) ? gauge->value() : 0;
  }
  return sum;
}

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && args->seconds > 0 &&
         (args->workload == "swarm" || args->workload == "churn" || args->workload == "fleet");
}

Episode RunEpisode(const std::string& workload, uint64_t seed, Tracer& tracer) {
  if (workload == "swarm") {
    return RunSwarm(seed, tracer);
  }
  if (workload == "churn") {
    return RunChurn(seed, tracer);
  }
  return RunFleet(seed, tracer);
}

// Fewest episodes a run makes, so set-up time is a median of several.
constexpr int kMinEpisodes = 3;
constexpr double kMaxElapsedS = 120;

struct PerLayer {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order. A workload that does not
// exercise a layer reports 0 for it.
constexpr PerLayer kPerLayer[] = {
    {"netsim.run_ns_per_datagram", "ns"},
    {"netsim.events_per_datagram", "count"},
    {"netsim.lan_packets_per_datagram", "count"},
    {"netsim.timers_wheel_per_datagram", "count"},
    {"netsim.timers_heap_per_datagram", "count"},
    {"netsim.wheel_cascades_per_datagram", "count"},
    {"netsim.ns_per_event", "ns"},
    {"netsim.events_per_introduction", "count"},
    {"netsim.heap_depth_max", "count"},
    {"nat.translations_per_datagram", "count"},
    {"nat.flowcache_hit_ratio", "ratio"},
    {"nat.mappings_created_per_introduction", "count"},
    {"nat.filtered_drops_per_introduction", "count"},
    {"nat.mappings_live_max", "count"},
    {"transport.tcp_retransmits_per_device", "count"},
    {"transport.tcp_simultaneous_opens_per_device", "count"},
    {"transport.tcp_rsts_per_device", "count"},
    {"transport.malformed_drops", "count"},
    {"core.send_ns_per_datagram", "ns"},
    {"core.connect_call_ns", "ns"},
    {"core.app_send_ns", "ns"},
    {"core.punch_attempts_per_introduction", "count"},
    {"core.punch_success_ratio", "ratio"},
    {"core.probes_per_punch", "count"},
    {"core.punch_rtt_p50_ms", "sim_ms"},
    {"core.relay_fallbacks", "count"},
    {"core.recoveries", "count"},
    {"core.relay_losses", "count"},
    {"core.sends_dropped", "count"},
    {"core.turn_relayed_per_datagram", "count"},
    {"core.connect_p50_ms", "sim_ms"},
    {"core.connect_p99_ms", "sim_ms"},
    {"core.connect_samples", "count"},
    {"core.connect_retries", "count"},
    {"core.availability", "ratio"},
    {"core.recovery_p50_ms", "sim_ms"},
    {"core.recovery_p95_ms", "sim_ms"},
    {"core.recovery_samples", "count"},
    {"core.bytes_per_session", "B"},
    {"rendezvous.connect_requests_per_introduction", "count"},
    {"rendezvous.forwards_per_introduction", "count"},
    {"rendezvous.replications_sent", "count"},
    {"rendezvous.unknown_targets", "count"},
    {"rendezvous.failovers", "count"},
    {"scenario.reset_ns_per_device", "ns"},
    {"scenario.build_ns_per_device", "ns"},
    {"natcheck.start_ns_per_device", "ns"},
    {"natcheck.events_per_device", "count"},
    {"natcheck.udp_pings_per_device", "count"},
    {"natcheck.tcp_hellos_per_device", "count"},
    {"fleet.speedup", "x"},
    {"fleet.ns_per_device_sequential", "ns"},
    {"util.udp_session_slab_peak", "count"},
    {"util.resilient_session_slab_peak", "count"},
    {"util.heap_allocs_per_datagram", "count"},
    {"util.heap_allocs_per_introduction", "count"},
    {"scenario.setup_s", "s"},
    {"rendezvous.setup_s", "s"},
    {"core.setup_s", "s"},
    {"netsim.setup_s", "s"},
    {"fleet.setup_s", "s"},
    {"obs.trace_overhead", "x"},
    {"obs.span_coverage", "ratio"},
};

// A run's throughput: one episode's operations over its quiet window time,
// the sum over the window's pieces of each piece's fastest time across the
// run's episodes. Every episode of a seed does identical work piece by
// piece, so a piece's minimum is its cost with nothing else in the way.
// Other tenants of a shared machine only ever slow a piece down, and they
// do it for stretches of seconds: the episodes of one churn run measured
// 4.2k-7.8k introductions/s, and medians of whole runs moved by 30%.
double QuietRate(const std::vector<Episode>& episodes) {
  std::vector<double> quiet = episodes.front().piece_s;
  for (const Episode& ep : episodes) {
    for (size_t i = 0; i < quiet.size() && i < ep.piece_s.size(); ++i) {
      quiet[i] = std::min(quiet[i], ep.piece_s[i]);
    }
  }
  double total = 0;
  for (double s : quiet) {
    total += s;
  }
  return total > 0 ? static_cast<double>(episodes.front().ops) / total : 0;
}


void PrintFacts(const Args& args, const Episode& ep) {
  // FNV-1a over the deterministic facts: run.py --check compares it across
  // processes and seeds.
  uint64_t hash = 1469598103934665603ULL;
  for (int64_t fact : ep.facts) {
    for (int b = 0; b < 8; ++b) {
      hash ^= static_cast<uint64_t>(fact) >> (8 * b) & 0xff;
      hash *= 1099511628211ULL;
    }
  }
  std::printf("SIM {\"workload\": \"%s\", \"seed\": %llu, \"fingerprint\": \"%016llx\"}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(hash));
}

int Run(const Args& args) {
  std::printf("STAMP {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", \"lto\": \"%s\"}\n",
              WorkerCount(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_LTO);
  std::vector<Episode> plain;
  std::vector<Episode> traced;
  Tracer first_tracer(true);
  double window_total = 0;
  std::vector<std::string> errors;
  const auto start = Clock::now();
  while (true) {
    Tracer off(false);
    plain.push_back(RunEpisode(args.workload, args.seed, off));
    window_total += plain.back().window_s;
    if (args.trace) {
      Tracer on(true);
      Tracer& tracer = traced.empty() ? first_tracer : on;
      traced.push_back(RunEpisode(args.workload, args.seed, tracer));
      window_total += traced.back().window_s;
    }
    for (const Episode* ep : {&plain.back(), args.trace ? &traced.back() : nullptr}) {
      if (ep == nullptr) {
        continue;
      }
      errors.insert(errors.end(), ep->errors.begin(), ep->errors.end());
      if (ep->facts != plain.front().facts) {
        errors.push_back(args.workload + ": episode " + std::to_string(plain.size()) +
                         (ep == &plain.back() ? "" : " (traced)") +
                         " diverged from the first episode's simulated-time facts");
      }
    }
    if (!errors.empty()) {
      break;
    }
    // A traced run spends most of its time outside the measured windows
    // (fleet's traced episode also times RunFleet), so it stops on elapsed
    // time. Either way a run ends within kMaxElapsedS plus one episode.
    const double elapsed = SecondsSince(start);
    const int needed = args.trace ? 1 : kMinEpisodes;
    if (static_cast<int>(plain.size()) >= needed &&
        ((args.trace ? elapsed : window_total) >= args.seconds || elapsed > kMaxElapsedS)) {
      break;
    }
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  PrintFacts(args, plain.front());

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> setup_s;
  for (const Episode& ep : plain) {
    attempted += ep.attempted;
    failed += ep.failed;
    setup_s.push_back(ep.setup_s);
  }
  std::vector<Metric> metrics;
  if (!args.trace) {
    const Episode& first = plain.front();
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
        {"ops_per_s", QuietRate(plain), "1/s"},
        {"ok_share", 1.0 - FailedShare(attempted, failed), "ratio"},
        {"direct_share", first.direct_share, "ratio"},
    };
    std::fprintf(stderr,
                 "%s seed %llu: %zu episodes, window %.2f s, setup %.3f s, %.0f ops/s, "
                 "%llu/%llu failed\n",
                 args.workload.c_str(), static_cast<unsigned long long>(args.seed), plain.size(),
                 window_total, Median(setup_s), QuietRate(plain),
                 static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  } else {
    std::map<std::string, double> layers = traced.front().layers;
    if (layers.find("obs.trace_overhead") == layers.end()) {
      layers["obs.trace_overhead"] = QuietRate(traced) / QuietRate(plain);
    }
    for (const PerLayer& p : kPerLayer) {
      auto it = layers.find(p.name);
      metrics.push_back({p.name, it == layers.end() ? 0.0 : it->second, p.unit});
    }
    const double coverage = layers["obs.span_coverage"];
    if (coverage < 0.9) {
      errors.push_back("spans cover " + std::to_string(coverage) + " of the measured window");
      std::fprintf(stderr, "CHECK FAILED: %s\n", errors.back().c_str());
    }
    if (!args.spans.empty()) {
      std::ofstream(args.spans) << first_tracer.Json();
    }
  }
  std::printf("%s\n", ResultJson(errors.empty(), attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::Parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload swarm|churn|fleet --seed N --seconds S --trace 0|1 "
                 "[--spans FILE]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
