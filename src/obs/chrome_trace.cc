#include "src/obs/chrome_trace.h"

#include <cinttypes>
#include <cstdio>

#include "src/obs/json_export.h"

namespace natpunch {
namespace obs {
namespace {

constexpr int kPid = 1;

void AppendMetadata(std::string* out, const char* name, int tid, std::string_view value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"name\":\"%s\",\"ph\":\"M\",\"ts\":0,\"pid\":%d,\"tid\":%d,",
                name, kPid, tid);
  out->append(buf);
  out->append("\"args\":{\"name\":\"");
  AppendJsonEscaped(out, value);
  out->append("\"}}");
}

}  // namespace

std::string_view TraceEventCategory(TraceEvent event) {
  switch (event) {
    case TraceEvent::kSend:
    case TraceEvent::kDeliver:
    case TraceEvent::kForward:
      return "net";
    case TraceEvent::kNatTranslateOut:
    case TraceEvent::kNatTranslateIn:
    case TraceEvent::kNatHairpin:
    case TraceEvent::kNatPayloadRewrite:
      return "nat";
    case TraceEvent::kDropLoss:
    case TraceEvent::kDropNoRoute:
    case TraceEvent::kDropNoNextHop:
    case TraceEvent::kDropTtl:
    case TraceEvent::kDropPrivateLeak:
    case TraceEvent::kNatDropUnsolicited:
    case TraceEvent::kNatRejectRst:
    case TraceEvent::kNatRejectIcmp:
    case TraceEvent::kNatDropNoMapping:
    case TraceEvent::kDropBurst:
      return "drop";
    case TraceEvent::kLinkDown:
    case TraceEvent::kFault:
    case TraceEvent::kCorrupt:
    case TraceEvent::kDuplicate:
    case TraceEvent::kReorder:
    case TraceEvent::kTruncate:
      return "fault";
  }
  return "net";
}

std::string ChromeTraceJson(const TraceRecorder& trace, std::string_view process_name) {
  std::string out;
  out.reserve(256 + trace.records().size() * 192);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  AppendMetadata(&out, "process_name", 0, process_name);
  // One named thread row per interned node. Id 0 is the empty name — used
  // by records with no node — rendered as the process-wide "(sim)" row.
  out += ',';
  AppendMetadata(&out, "thread_name", 0, "(sim)");
  for (TraceNodeId id = 1; id < trace.name_count(); ++id) {
    out += ',';
    AppendMetadata(&out, "thread_name", static_cast<int>(id), trace.NodeName(id));
  }
  char buf[160];
  for (const TraceRecord& rec : trace.records()) {
    out += ',';
    const std::string_view name = TraceEventName(rec.event);
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%.*s\",\"cat\":\"%.*s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%" PRId64
                  ",\"pid\":%d,\"tid\":%u,\"args\":{",
                  static_cast<int>(name.size()), name.data(),
                  static_cast<int>(TraceEventCategory(rec.event).size()),
                  TraceEventCategory(rec.event).data(), rec.time.micros(), kPid, rec.node);
    out += buf;
    std::snprintf(buf, sizeof(buf), "\"packet\":%" PRIu64 ",\"proto\":\"%s\"", rec.packet_id,
                  rec.protocol == IpProtocol::kTcp    ? "tcp"
                  : rec.protocol == IpProtocol::kIcmp ? "icmp"
                                                      : "udp");
    out += buf;
    if (rec.packet_id != 0) {
      out += ",\"src\":\"";
      AppendJsonEscaped(&out, rec.src.ToString());
      out += "\",\"dst\":\"";
      AppendJsonEscaped(&out, rec.dst.ToString());
      out += '"';
    }
    if (!rec.detail.empty()) {
      out += ",\"detail\":\"";
      AppendJsonEscaped(&out, rec.detail.view());
      out += '"';
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace natpunch
