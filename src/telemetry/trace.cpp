#include "telemetry/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/hash.hpp"

namespace uwp::telemetry {

namespace {

struct StructureOrder {
  bool operator()(const TraceSpan& a, const TraceSpan& b) const {
    if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
    return static_cast<std::uint8_t>(a.op) < static_cast<std::uint8_t>(b.op);
  }
};

}  // namespace

std::uint64_t trace_structure_digest(std::span<const TraceSpan> spans) {
  std::vector<TraceSpan> sorted(spans.begin(), spans.end());
  std::sort(sorted.begin(), sorted.end(), StructureOrder{});
  std::uint64_t h = kFnvOffsetBasis;
  for (const TraceSpan& s : sorted) {
    fnv_mix(h, s.trace_id);
    fnv_mix(h, static_cast<std::uint64_t>(s.op));
    fnv_mix(h, s.t);
  }
  return h;
}

void write_chrome_trace(std::ostream& out, std::span<const TraceSpan> spans) {
  // Stable output order (by trace, then op) keeps diffs readable; viewers
  // sort by ts themselves.
  std::vector<TraceSpan> sorted(spans.begin(), spans.end());
  std::sort(sorted.begin(), sorted.end(), StructureOrder{});

  char buf[512];
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::size_t i = 0;
  while (i < sorted.size()) {
    // One trace = the run of spans sharing a trace id (StructureOrder
    // groups them). Emit an "X" event per span, then flow arrows if the
    // trace crossed streams.
    std::size_t j = i;
    bool multi_stream = false;
    while (j < sorted.size() && sorted[j].trace_id == sorted[i].trace_id) {
      if (sorted[j].stream != sorted[i].stream) multi_stream = true;
      ++j;
    }
    for (std::size_t k = i; k < j; ++k) {
      const TraceSpan& s = sorted[k];
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"cat\":\"uwp\",\"ph\":\"X\",\"pid\":0,"
          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":%" PRIu64
          ",\"session\":%" PRIu64 ",\"round\":%" PRIu64
          ",\"t\":%.6g,\"parent\":\"%s\"}}",
          first ? "" : ",", to_string(s.op), unsigned(s.stream), s.ts_s * 1e6,
          s.dur_s * 1e6, s.trace_id, trace_session(s.trace_id),
          trace_round(s.trace_id), s.t, to_string(parent_of(s.op)));
      out << buf;
      first = false;
    }
    if (multi_stream) {
      // Wall-time order for the arrows: ingest -> queue -> round.
      std::vector<const TraceSpan*> chain;
      for (std::size_t k = i; k < j; ++k) chain.push_back(&sorted[k]);
      std::sort(chain.begin(), chain.end(),
                [](const TraceSpan* a, const TraceSpan* b) {
                  return a->ts_s < b->ts_s;
                });
      for (std::size_t k = 0; k < chain.size(); ++k) {
        const TraceSpan& s = *chain[k];
        std::snprintf(buf, sizeof(buf),
                      ",{\"name\":\"trace\",\"cat\":\"flow\",\"ph\":\"%s\","
                      "\"id\":%" PRIu64
                      ",\"pid\":0,\"tid\":%u,\"ts\":%.3f%s}",
                      k == 0 ? "s" : "t", s.trace_id, unsigned(s.stream),
                      s.ts_s * 1e6, k == 0 ? "" : ",\"bp\":\"e\"");
        out << buf;
      }
    }
    i = j;
  }
  out << "]}\n";
}

}  // namespace uwp::telemetry
