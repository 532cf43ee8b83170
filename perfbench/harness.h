// Pieces of the benchmark that do not drive the simulator: percentiles, the
// in-memory span recorder and its self-time arithmetic, the classification
// of introductions, the workloads' output checks, and the one-line JSON
// result. Kept free of simulator types so perfbench_test can feed them
// hand-made (and deliberately wrong) inputs.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

// 1-based nearest rank of percentile p in a sample of n. The epsilon keeps
// 99.9% of 10000 at rank 9990 despite the product rounding up.
inline size_t Rank(double p, size_t n) {
  return static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
}

// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t rank = std::clamp<size_t>(Rank(p, values.size()), 1, values.size());
  return values[rank - 1];
}

// The highest percentile on a fixed ladder that still has at least ten
// samples beyond its rank, with its value and the sample count. A timing is
// reported as its median plus this tail; `percentile` is 0 when even the
// median lacks ten samples above it (fewer than 20 samples).
struct Tail {
  double percentile = 0;
  double value = 0;
  size_t samples = 0;
};

inline Tail SupportedTail(const std::vector<double>& values) {
  static constexpr double kLadder[] = {99.9, 99, 95, 90, 75, 50};
  Tail tail;
  tail.samples = values.size();
  for (double p : kLadder) {
    if (values.size() >= Rank(p, values.size()) + 10) {
      tail.percentile = p;
      tail.value = Percentile(values, p);
      return tail;
    }
  }
  return tail;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

// One call from the benchmark into a layer. `request` names the unit of work
// the call served: the tick (swarm), the introduction (churn) or the device
// (fleet).
struct Span {
  uint32_t name = 0;    // index into Tracer::names()
  int32_t parent = -1;  // enclosing span, -1 for a root
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Keeps spans in memory; Json() writes them out once, at exit. A disabled
// tracer records nothing, so the untraced runs pay one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  uint32_t Name(const std::string& name) {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) {
        return static_cast<uint32_t>(i);
      }
    }
    names_.push_back(name);
    return static_cast<uint32_t>(names_.size() - 1);
  }

  int32_t Begin(uint32_t name, uint64_t request) {
    if (!enabled_) {
      return -1;
    }
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  void End(int32_t index) {
    if (index < 0) {
      return;
    }
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                                origin_)
        .count();
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  // {"names":[...],"spans":[[name,parent,request,start_ns,end_ns],...]}
  std::string Json() const {
    std::string out = "{\"names\":[";
    for (size_t i = 0; i < names_.size(); ++i) {
      out += (i > 0 ? ",\"" : "\"") + names_[i] + "\"";
    }
    out += "],\"spans\":[";
    char buf[128];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf), "%s[%u,%d,%llu,%lld,%lld]", i > 0 ? "," : "", s.name,
                    s.parent, static_cast<unsigned long long>(s.request),
                    static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
      out += buf;
    }
    out += "]}\n";
    return out;
  }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class Scope {
 public:
  Scope(Tracer& tracer, uint32_t name, uint64_t request)
      : tracer_(tracer), index_(tracer.Begin(name, request)) {}
  ~Scope() { tracer_.End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int32_t index_;
};

// Self time of every span: its duration minus the part of its interval that
// its direct children cover. Children are clipped to the parent and merged
// first, so overlapping siblings are not subtracted twice; grandchildren are
// already inside their parent's interval and are never subtracted again.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, s.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

// Total self time per span name over spans [first, last).
inline std::vector<int64_t> SelfTimeByName(const std::vector<Span>& spans,
                                           const std::vector<int64_t>& self, size_t name_count,
                                           size_t first, size_t last) {
  std::vector<int64_t> total(name_count, 0);
  for (size_t i = first; i < last && i < spans.size(); ++i) {
    total[spans[i].name] += self[i];
  }
  return total;
}

// ---------------------------------------------------------------------------
// Introductions (churn)
// ---------------------------------------------------------------------------

enum class Outcome { kDirect, kRelay, kFailed };

// One introduction as the benchmark saw it. Times are simulated microseconds.
struct IntroRecord {
  int64_t due_us = 0;
  int64_t done_us = -1;  // when ConnectToPeer's callback fired; -1 = never
  bool ok = false;       // the callback carried a session, not an error
  bool direct = false;   // ... whose first path was the punched one
  uint32_t nat_a = 0;
  uint32_t nat_b = 0;
  // The pair shares a NAT, or both NATs pass SupportsUdpHolePunching().
  bool must_be_direct = false;
};

// A refused introduction (the callback carried an error) and one with no
// usable path by its deadline both count as failed.
inline Outcome Classify(const IntroRecord& r, int64_t deadline_us) {
  if (!r.ok || r.done_us < 0 || r.done_us - r.due_us > deadline_us) {
    return Outcome::kFailed;
  }
  return r.direct ? Outcome::kDirect : Outcome::kRelay;
}

// failed / attempted. With nothing attempted every claim is unproven, so the
// share is 1, never a flattering 0.
inline double FailedShare(uint64_t attempted, uint64_t failed) {
  return attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

// ---------------------------------------------------------------------------
// Output checks. Each returns the list of violations; empty means correct.
// ---------------------------------------------------------------------------

struct SwarmFacts {
  uint64_t sessions = 0;   // both sides of every punched pair
  uint64_t alive = 0;      // still alive at the end of the window
  uint64_t sent = 0;       // app datagrams sent in the window
  uint64_t delivered = 0;  // app datagrams received in the window
  uint64_t failovers = 0;  // rendezvous client re-homings
  uint64_t malformed = 0;  // frames dropped by strict decoding
};

inline std::vector<std::string> CheckSwarm(const SwarmFacts& f) {
  std::vector<std::string> errors;
  if (f.sessions == 0 || f.alive != f.sessions) {
    errors.push_back("swarm: " + std::to_string(f.alive) + " of " + std::to_string(f.sessions) +
                     " sessions alive");
  }
  if (f.sent == 0 || f.delivered != f.sent) {
    errors.push_back("swarm: " + std::to_string(f.delivered) + " of " + std::to_string(f.sent) +
                     " datagrams delivered");
  }
  if (f.failovers != 0 || f.malformed != 0) {
    errors.push_back("swarm: " + std::to_string(f.failovers) + " rendezvous failovers, " +
                     std::to_string(f.malformed) + " malformed drops");
  }
  return errors;
}

struct Reboot {
  int64_t at_us = 0;
  uint32_t nat = 0;
};

struct ChurnFacts {
  std::vector<IntroRecord> intros;
  int64_t deadline_us = 0;
  // A reboot this long before an introduction's due time still overlaps it:
  // the registration S holds for the rebooted host is stale until the host's
  // next rendezvous keepalive.
  int64_t reboot_guard_us = 0;
  std::vector<Reboot> reboots;
  // Tallies kept by the callbacks themselves, independently of Classify.
  uint64_t direct = 0;
  uint64_t relay = 0;
  uint64_t failed = 0;
  uint64_t sent = 0;       // app datagrams
  uint64_t delivered = 0;
  // Nothing in this workload stops a shard or mangles a frame.
  uint64_t unknown_targets = 0;
  uint64_t failovers = 0;
  uint64_t malformed = 0;
};

inline bool RebootOverlaps(const ChurnFacts& f, const IntroRecord& r) {
  const int64_t from = r.due_us - f.reboot_guard_us;
  const int64_t to = r.done_us >= 0 ? r.done_us : r.due_us + f.deadline_us;
  for (const Reboot& b : f.reboots) {
    if ((b.nat == r.nat_a || b.nat == r.nat_b) && b.at_us >= from && b.at_us <= to) {
      return true;
    }
  }
  return false;
}

inline std::vector<std::string> CheckChurn(const ChurnFacts& f) {
  std::vector<std::string> errors;
  uint64_t counts[3] = {0, 0, 0};
  size_t must_direct_misses = 0;
  for (const IntroRecord& r : f.intros) {
    const Outcome o = Classify(r, f.deadline_us);
    ++counts[static_cast<int>(o)];
    if (r.must_be_direct && o != Outcome::kDirect && !RebootOverlaps(f, r)) {
      ++must_direct_misses;
    }
  }
  if (f.intros.empty()) {
    errors.push_back("churn: no introductions");
  }
  if (counts[0] != f.direct || counts[1] != f.relay || counts[2] != f.failed ||
      f.direct + f.relay + f.failed != f.intros.size()) {
    errors.push_back("churn: introductions not all counted as direct/relay/failed (" +
                     std::to_string(f.direct) + "/" + std::to_string(f.relay) + "/" +
                     std::to_string(f.failed) + " of " + std::to_string(f.intros.size()) + ")");
  }
  if (must_direct_misses > 0) {
    errors.push_back("churn: " + std::to_string(must_direct_misses) +
                     " punchable pairs did not end direct and no reboot overlapped them");
  }
  if (f.unknown_targets != 0 || f.failovers != 0 || f.malformed != 0) {
    errors.push_back("churn: " + std::to_string(f.unknown_targets) + " unknown targets, " +
                     std::to_string(f.failovers) + " rendezvous failovers, " +
                     std::to_string(f.malformed) + " malformed drops");
  }
  if (f.sent == 0 || f.delivered > f.sent) {
    errors.push_back("churn: delivered " + std::to_string(f.delivered) + " of " +
                     std::to_string(f.sent) + " app datagrams");
  }
  return errors;
}

// Table 1's All Vendors row: UDP, UDP hairpin, TCP and TCP hairpin cells.
struct Table1Cells {
  int64_t yes[4] = {0, 0, 0, 0};
  int64_t n[4] = {0, 0, 0, 0};
};

// Distance of every cell from `replicas` x `base`, summed: each device whose
// classification moves a cell adds one to it.
inline uint64_t FleetDeviations(const Table1Cells& total, const Table1Cells& base,
                                int64_t replicas) {
  uint64_t off = 0;
  for (int c = 0; c < 4; ++c) {
    off += static_cast<uint64_t>(std::llabs(total.yes[c] - replicas * base.yes[c]));
    off += static_cast<uint64_t>(std::llabs(total.n[c] - replicas * base.n[c]));
  }
  return off;
}

inline std::vector<std::string> CheckFleet(const Table1Cells& total, const Table1Cells& base,
                                           int64_t replicas) {
  std::vector<std::string> errors;
  const uint64_t off = FleetDeviations(total, base, replicas);
  if (off != 0) {
    errors.push_back("fleet: Table 1 totals are " + std::to_string(off) + " device(s) away from " +
                     std::to_string(replicas) + " x the 380-device result");
  }
  return errors;
}

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The last stdout line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
// Values keep all their digits (%.17g).
inline std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                              const std::vector<Metric>& metrics) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  std::string out = buf;
  out += "\"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i > 0 ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
