#include "obs/explain.h"

#include <cstdio>
#include <sstream>

namespace ipqs {
namespace obs {
namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

void QueryExplain::WriteJson(std::ostream& os, bool include_timings) const {
  os << "{";
  os << "\"kind\": \"" << JsonEscape(kind) << "\"";
  os << ", \"now\": " << now;
  os << ", \"deadline_ms\": " << deadline_ms;
  os << ", \"k\": " << k;
  os << ", \"pruning_enabled\": " << (pruning_enabled ? "true" : "false");
  os << ", \"objects_known\": " << objects_known;
  os << ", \"candidates\": " << candidates;
  os << ", \"cache\": {\"hits\": " << cache_hits
     << ", \"stale\": " << cache_stale << ", \"misses\": " << cache_misses
     << "}";
  os << ", \"quality\": \"" << JsonEscape(quality) << "\"";
  os << ", \"coverage_degraded\": " << (coverage_degraded ? "true" : "false");
  os << ", \"budget\": {\"reason\": \"" << JsonEscape(budget_reason) << "\""
     << ", \"filter_seconds\": " << FormatDouble(budget_filter_seconds)
     << ", \"est_full_cost\": " << FormatDouble(est_full_cost)
     << ", \"est_stale_cost\": " << FormatDouble(est_stale_cost)
     << ", \"est_reduced_cost\": " << FormatDouble(est_reduced_cost) << "}";
  os << ", \"work\": {\"filter_runs\": " << filter_runs
     << ", \"filter_resumes\": " << filter_resumes
     << ", \"filter_seconds\": " << filter_seconds
     << ", \"stale_served_objects\": " << stale_served_objects << "}";
  os << ", \"timing_ns\": {\"prune\": " << (include_timings ? prune_ns : 0)
     << ", \"infer\": " << (include_timings ? infer_ns : 0)
     << ", \"evaluate\": " << (include_timings ? evaluate_ns : 0)
     << ", \"total\": " << (include_timings ? total_ns : 0) << "}";
  os << ", \"ingest\": {\"watermark\": " << ingest_watermark
     << ", \"staged\": " << ingest_staged
     << ", \"late_dropped\": " << ingest_late_dropped << "}";
  os << ", \"batch\": {\"batched\": " << (batched ? "true" : "false")
     << ", \"size\": " << batch_size
     << ", \"deduped\": " << (deduped ? "true" : "false") << "}";
  os << ", \"result\": {\"objects\": " << result_objects
     << ", \"total_probability\": " << FormatDouble(result_total_probability)
     << "}";
  os << "}";
}

std::string QueryExplain::ToJson(bool include_timings) const {
  std::ostringstream oss;
  WriteJson(oss, include_timings);
  return oss.str();
}

void WriteExplainsJson(std::ostream& os,
                       const std::vector<QueryExplain>& explains,
                       bool include_timings) {
  os << "[";
  for (size_t i = 0; i < explains.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    explains[i].WriteJson(os, include_timings);
  }
  os << (explains.empty() ? "]" : "\n]") << "\n";
}

}  // namespace obs
}  // namespace ipqs
