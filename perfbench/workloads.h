// The three workloads and what they hand back to the runner's main(). Each
// workload builds its world from the seed, times one episode (set-up plus a
// fixed amount of measured work) from outside, and reports the episode's
// deterministic simulated-time facts separately from its wall-clock times.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/harness.h"

namespace natpunch {
namespace obs {
class MetricsRegistry;
}  // namespace obs
}  // namespace natpunch

namespace perfbench {

// Heap allocations made by the calling thread (a counting operator new in
// the runner binary).
uint64_t HeapAllocs();

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values);
double PeakRssMb();      // peak resident set of this process, MiB
unsigned WorkerCount();  // what `nproc` reports: CPUs this process may run on

// Span names. Grouping spans (setup, tick, device) only give the layer spans
// under them a request id and a parent; layer spans wrap one call, or one
// batch of identical calls, into a layer's public functions.
struct Names {
  explicit Names(Tracer& t)
      : setup(t.Name("setup")),
        tick(t.Name("tick")),
        device(t.Name("device")),
        scenario_build(t.Name("scenario.build")),
        scenario_reset(t.Name("scenario.reset")),
        rendezvous_setup(t.Name("rendezvous.setup")),
        core_setup(t.Name("core.setup")),
        core_send(t.Name("core.send")),
        core_connect(t.Name("core.connect")),
        core_app_send(t.Name("core.app_send")),
        netsim_run(t.Name("netsim.run")),
        nat_reboot(t.Name("nat.reboot")),
        natcheck_start(t.Name("natcheck.start")),
        fleet_build(t.Name("fleet.build")) {}
  uint32_t setup, tick, device;
  uint32_t scenario_build, scenario_reset, rendezvous_setup, core_setup, core_send, core_connect,
      core_app_send, netsim_run, nat_reboot, natcheck_start, fleet_build;

  bool IsGrouping(uint32_t name) const { return name == setup || name == tick || name == device; }
};

// Self time per span name over spans [first, last), in seconds, plus the
// share of `wall_s` that layer spans account for.
struct SpanTotals {
  std::map<uint32_t, double> self_s;
  double coverage = 0;
  double Self(uint32_t name) const {
    auto it = self_s.find(name);
    return it == self_s.end() ? 0.0 : it->second;
  }
};
SpanTotals TotalSpans(const Tracer& tracer, const Names& names, size_t first, size_t last,
                      double wall_s);

// Registry helpers: sum every counter (gauge) named <prefix>...<suffix>.
uint64_t SumCounters(const natpunch::obs::MetricsRegistry* reg, std::string_view prefix,
                     std::string_view suffix);
int64_t SumGauges(const natpunch::obs::MetricsRegistry* reg, std::string_view prefix,
                  std::string_view suffix);

// One episode's results.
struct Episode {
  double setup_s = 0;
  double window_s = 0;      // wall time of the measured window
  uint64_t ops = 0;         // completed operations in the window
  // Wall time of each piece of the window, in order: a swarm send batch, a
  // churn traffic slice, the whole fleet window. Every episode of a seed
  // does the same work in each piece.
  std::vector<double> piece_s;
  uint64_t attempted = 0;   // operations attempted (failed_share's base)
  uint64_t failed = 0;
  double direct_share = 0;  // simulated-time result
  std::vector<std::string> errors;
  // Deterministic facts: equal for every episode of one seed, traced or not.
  std::vector<int64_t> facts;
  // Per-layer metrics; filled by traced episodes only.
  std::map<std::string, double> layers;
};

// `tracer` enabled = the traced run: metrics registry on, spans recorded,
// per-layer metrics filled in.
Episode RunSwarm(uint64_t seed, Tracer& tracer);
Episode RunChurn(uint64_t seed, Tracer& tracer);
Episode RunFleet(uint64_t seed, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
