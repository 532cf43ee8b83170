// fleet: the paper's 380-device Table 1 fleet replicated kReplicas times and
// classified by RunFleetParallel on `nproc` workers (batch). The traced run
// re-runs RunNatCheckIn's public calls here, device by device, so reset,
// build, start and run get spans of their own; its Table 1 totals must equal
// RunFleetParallel's.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/fleet/fleet.h"
#include "src/natcheck/client.h"
#include "src/natcheck/servers.h"
#include "src/scenario/scenario.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using namespace natpunch;

constexpr int64_t kReplicas = 20;
constexpr int kSpeedupRepeats = 3;

Table1Cells Cells(const VendorTally& t) {
  return {{t.udp_yes, t.udp_hairpin_yes, t.tcp_yes, t.tcp_hairpin_yes},
          {t.udp_n, t.udp_hairpin_n, t.tcp_n, t.tcp_hairpin_n}};
}

std::vector<DeviceSpec> Build(const std::vector<DeviceSpec>& base) {
  std::vector<DeviceSpec> devices;
  devices.reserve(base.size() * kReplicas);
  for (int64_t r = 0; r < kReplicas; ++r) {
    devices.insert(devices.end(), base.begin(), base.end());
  }
  return devices;
}

struct Rebuild {
  VendorTally total;
  uint64_t events = 0, udp_pings = 0, tcp_hellos = 0, retransmits = 0, simultaneous_opens = 0;
  uint64_t rsts = 0, malformed = 0;
};

// RunNatCheckIn (src/fleet/fleet.cc) through its public calls, sequentially,
// with a span per phase; per-device seeds follow RunFleet's sequence.
Rebuild RunTraced(const std::vector<DeviceSpec>& devices, uint64_t seed, Tracer& tr,
                  const Names& n) {
  Rebuild out;
  Rng seeds(seed);
  Scenario scenario;
  for (size_t i = 0; i < devices.size(); ++i) {
    const DeviceSpec& device = devices[i];
    Scope dev(tr, n.device, i);
    Scenario::Options options;
    options.seed = seeds.NextU64();
    options.metrics = true;
    {
      Scope s(tr, n.scenario_reset, i);
      scenario.Reset(options);
    }
    Host* s1 = nullptr;
    Host* s2 = nullptr;
    Host* s3 = nullptr;
    NattedSite site;
    {
      Scope s(tr, n.scenario_build, i);
      s1 = scenario.AddPublicHost("S1", Ipv4Address::FromOctets(18, 181, 0, 31));
      s2 = scenario.AddPublicHost("S2", Ipv4Address::FromOctets(18, 181, 0, 32));
      s3 = scenario.AddPublicHost("S3", Ipv4Address::FromOctets(18, 181, 0, 33));
      site = scenario.AddNattedSite("dev", device.config, Ipv4Address::FromOctets(155, 99, 25, 11),
                                    Ipv4Prefix(Ipv4Address::FromOctets(10, 0, 0, 0), 24), 1);
    }
    std::unique_ptr<NatCheckServers> servers;
    std::unique_ptr<NatCheckClient> client;
    NatCheckReport report;
    {
      Scope s(tr, n.natcheck_start, i);
      servers = std::make_unique<NatCheckServers>(s1, s2, s3);
      if (servers->Start().ok()) {
        NatCheckServerAddrs addrs;
        addrs.udp1 = servers->udp_endpoint(1);
        addrs.udp2 = servers->udp_endpoint(2);
        addrs.tcp1 = servers->tcp_endpoint(1);
        addrs.tcp2 = servers->tcp_endpoint(2);
        addrs.tcp3 = servers->tcp_endpoint(3);
        NatCheckClientConfig config;
        config.test_udp_hairpin = device.reports_udp_hairpin;
        config.test_tcp = device.reports_tcp;
        config.test_tcp_hairpin = device.reports_tcp_hairpin;
        client = std::make_unique<NatCheckClient>(site.host(0), addrs, config);
        client->Run(4321, [&report](Result<NatCheckReport> result) {
          if (result.ok()) {
            report = *result;
          }
        });
      }
    }
    {
      Scope s(tr, n.netsim_run, i);
      scenario.net().RunFor(Seconds(90));
    }
    report.nat_reboots = site.nat->stats().reboots;
    report.nat_expired_mappings = site.nat->stats().expired_mappings;
    out.total.Add(device, report);
    out.events += scenario.net().event_loop().events_processed();
    out.udp_pings += servers->stats().udp_pings;
    out.tcp_hellos += servers->stats().tcp_hellos;
    const obs::MetricsRegistry* reg = scenario.net().metrics();
    out.retransmits += SumCounters(reg, "tcp.", ".retransmits");
    out.simultaneous_opens += SumCounters(reg, "tcp.", ".simultaneous_opens");
    out.rsts += SumCounters(reg, "tcp.", ".rsts_sent");
    for (Host* host : {s1, s2, s3, site.host(0)}) {
      out.malformed += host->malformed_drops();
    }
    client.reset();
    servers.reset();
  }
  return out;
}

std::vector<int64_t> Facts(const Table1Result& result) {
  const Table1Cells c = Cells(result.total);
  const FailureTaxonomy& t = result.total.taxonomy;
  std::vector<int64_t> facts(std::begin(c.yes), std::end(c.yes));
  facts.insert(facts.end(), std::begin(c.n), std::end(c.n));
  facts.insert(facts.end(), {t.udp_unreachable, t.udp_inconsistent, t.tcp_unreachable,
                             t.tcp_inconsistent, t.tcp_rejected});
  facts.push_back(static_cast<int64_t>(result.events));
  return facts;
}

}  // namespace

Episode RunFleet(uint64_t seed, Tracer& tr) {
  const Names n(tr);
  Episode ep;
  const size_t setup_first = tr.spans().size();
  const auto setup_start = Clock::now();
  std::vector<DeviceSpec> base;
  std::vector<DeviceSpec> devices;
  {
    Scope s(tr, n.fleet_build, 0);
    base = BuildFleet(PaperTable1Vendors(), seed);
    devices = Build(base);
  }
  ep.setup_s = SecondsSince(setup_start);
  const size_t setup_last = tr.spans().size();

  const unsigned workers = WorkerCount();
  const auto window_start = Clock::now();
  const Table1Result result = RunFleetParallel(devices, seed, workers);
  ep.window_s = SecondsSince(window_start);
  ep.piece_s = {ep.window_s};

  // The 380-device result of this seed's fleet. BuildFleet's seeded flavour
  // knobs move a device or two across NAT Check's §6.3 instrument artifacts,
  // so it is 310/380, 80/335, 184/286, 40/284 for most seeds, not all.
  const Table1Cells once = Cells(natpunch::RunFleet(base, seed).total);
  const Table1Cells total = Cells(result.total);
  ep.errors = CheckFleet(total, once, kReplicas);
  ep.ops = devices.size();
  ep.attempted = devices.size();
  ep.failed = std::min<uint64_t>(devices.size(), FleetDeviations(total, once, kReplicas));
  ep.direct_share = static_cast<double>(total.yes[0]) / static_cast<double>(total.n[0]);
  ep.facts = Facts(result);
  if (!tr.enabled()) {
    return ep;
  }

  // fleet.speedup: RunFleet vs RunFleetParallel on the same device list.
  std::vector<double> sequential_s;
  std::vector<double> parallel_s;
  for (int i = 0; i < kSpeedupRepeats; ++i) {
    auto start = Clock::now();
    const Table1Result oracle = natpunch::RunFleet(devices, seed);
    sequential_s.push_back(SecondsSince(start));
    start = Clock::now();
    const Table1Result parallel = RunFleetParallel(devices, seed, workers);
    parallel_s.push_back(SecondsSince(start));
    if (!(oracle == result) || !(parallel == result)) {
      ep.errors.push_back("fleet: RunFleet and RunFleetParallel disagree");
    }
  }

  const size_t traced_first = tr.spans().size();
  const auto traced_start = Clock::now();
  const Rebuild rebuild = RunTraced(devices, seed, tr, n);
  const double traced_s = SecondsSince(traced_start);
  const size_t traced_last = tr.spans().size();
  if (!(rebuild.total == result.total)) {
    ep.errors.push_back("fleet: traced per-device run disagrees with RunFleetParallel's Table 1");
  }
  if (rebuild.malformed != 0) {
    ep.errors.push_back("fleet: " + std::to_string(rebuild.malformed) + " malformed drops");
  }

  const SpanTotals win = TotalSpans(tr, n, traced_first, traced_last, traced_s);
  const SpanTotals set = TotalSpans(tr, n, setup_first, setup_last, ep.setup_s);
  const double count = static_cast<double>(devices.size());
  auto& L = ep.layers;
  L["netsim.ns_per_event"] =
      win.Self(n.netsim_run) * 1e9 / static_cast<double>(std::max<uint64_t>(1, rebuild.events));
  L["transport.tcp_retransmits_per_device"] = static_cast<double>(rebuild.retransmits) / count;
  L["transport.tcp_simultaneous_opens_per_device"] =
      static_cast<double>(rebuild.simultaneous_opens) / count;
  L["transport.tcp_rsts_per_device"] = static_cast<double>(rebuild.rsts) / count;
  L["transport.malformed_drops"] = static_cast<double>(rebuild.malformed);
  L["scenario.reset_ns_per_device"] = win.Self(n.scenario_reset) * 1e9 / count;
  L["scenario.build_ns_per_device"] = win.Self(n.scenario_build) * 1e9 / count;
  L["natcheck.start_ns_per_device"] = win.Self(n.natcheck_start) * 1e9 / count;
  L["natcheck.events_per_device"] = static_cast<double>(rebuild.events) / count;
  L["natcheck.udp_pings_per_device"] = static_cast<double>(rebuild.udp_pings) / count;
  L["natcheck.tcp_hellos_per_device"] = static_cast<double>(rebuild.tcp_hellos) / count;
  L["fleet.speedup"] = Median(sequential_s) / Median(parallel_s);
  L["fleet.ns_per_device_sequential"] = Median(sequential_s) * 1e9 / count;
  L["fleet.setup_s"] = set.Self(n.fleet_build);
  // Traced and untraced throughput of the same sequential per-device loop.
  L["obs.trace_overhead"] = Median(sequential_s) / traced_s;
  L["obs.span_coverage"] = win.coverage;
  return ep;
}

}  // namespace perfbench
