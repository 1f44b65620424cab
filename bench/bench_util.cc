#include "bench_util.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

namespace ipqs {
namespace bench {
namespace {

// State for the BENCH_*.json twin of the printed tables (see bench_util.h).
// Benches are single-threaded mains, so plain globals suffice.
struct BenchRow {
  double x = 0.0;
  std::vector<double> values;
  double wall_ms = 0.0;
};

struct BenchSection {
  std::string figure;
  std::string title;
  std::string xlabel;
  std::vector<std::string> columns;
  std::vector<BenchRow> rows;
  // Wall time of MustRun calls since the last PrintRow; attached to the
  // next row.
  double pending_wall_ms = 0.0;
};

BenchSection g_section;

const char* BenchJsonDir() { return std::getenv("IPQS_BENCH_JSON"); }

std::string FileSafe(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  }
  return out;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
    }
    out->push_back(c);
  }
  out->push_back('"');
}

// The first "model name" line of /proc/cpuinfo, or "unknown".
std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      const size_t start = line.find_first_not_of(" \t", colon + 1);
      return start == std::string::npos ? "unknown" : line.substr(start);
    }
  }
  return "unknown";
}

void AppendJsonDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

// Writes the finished section (if any) to BENCH_<figure>.json and resets
// it. No-op unless IPQS_BENCH_JSON is set and the section has rows.
void FlushSection() {
  const char* dir = BenchJsonDir();
  if (dir == nullptr || g_section.rows.empty()) {
    g_section = BenchSection{};
    return;
  }
  std::string json = "{\n  \"figure\": ";
  AppendJsonString(&json, g_section.figure);
  json += ",\n  \"title\": ";
  AppendJsonString(&json, g_section.title);
  json += ",\n  \"xlabel\": ";
  AppendJsonString(&json, g_section.xlabel);
  json += ",\n  \"fast_mode\": ";
  json += FastMode() ? "true" : "false";
  json += ",\n  \"build_type\": ";
  AppendJsonString(&json, IPQS_BUILD_TYPE);
  json += ",\n  \"host\": {\"cpus\": ";
  json += std::to_string(std::thread::hardware_concurrency());
  json += ", \"cpu_model\": ";
  AppendJsonString(&json, CpuModel());
  json += "}";
  json += ",\n  \"columns\": [";
  for (size_t i = 0; i < g_section.columns.size(); ++i) {
    if (i > 0) json += ", ";
    AppendJsonString(&json, g_section.columns[i]);
  }
  json += "],\n  \"rows\": [\n";
  for (size_t i = 0; i < g_section.rows.size(); ++i) {
    const BenchRow& row = g_section.rows[i];
    json += "    {\"x\": ";
    AppendJsonDouble(&json, row.x);
    json += ", \"values\": [";
    for (size_t j = 0; j < row.values.size(); ++j) {
      if (j > 0) json += ", ";
      AppendJsonDouble(&json, row.values[j]);
    }
    json += "], \"wall_ms\": ";
    AppendJsonDouble(&json, row.wall_ms);
    json += i + 1 < g_section.rows.size() ? "},\n" : "}\n";
  }
  json += "  ]\n}\n";

  const std::string path =
      std::string(dir) + "/BENCH_" + FileSafe(g_section.figure) + ".json";
  std::ofstream out(path);
  if (out) {
    out << json;
    std::printf("bench json: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write bench json: %s\n", path.c_str());
  }
  g_section = BenchSection{};
}

}  // namespace

bool FastMode() {
  const char* fast = std::getenv("IPQS_FAST");
  return fast != nullptr && fast[0] == '1';
}

ExperimentConfig PaperProtocol() {
  ExperimentConfig config;  // Table 2 defaults are the struct defaults.
  if (FastMode()) {
    config.sim.trace.num_objects = 80;
    config.warmup_seconds = 180;
    config.num_timestamps = 10;
    config.range_queries_per_timestamp = 30;
    config.knn_query_points = 10;
  }
  return config;
}

void PrintHeader(const std::string& figure, const std::string& title,
                 const std::string& xlabel,
                 const std::vector<std::string>& columns) {
  FlushSection();  // A bench binary may print several sections.
  g_section.figure = figure;
  g_section.title = title;
  g_section.xlabel = xlabel;
  g_section.columns = columns;

  std::printf("=== %s: %s ===\n", figure.c_str(), title.c_str());
  if (FastMode()) {
    std::printf("(IPQS_FAST=1: reduced protocol)\n");
  }
  std::printf("%-16s", xlabel.c_str());
  for (const std::string& c : columns) {
    std::printf("%12s", c.c_str());
  }
  std::printf("\n");
}

void PrintRow(double x, const std::vector<double>& values) {
  g_section.rows.push_back({x, values, g_section.pending_wall_ms});
  g_section.pending_wall_ms = 0.0;

  std::printf("%-16g", x);
  for (double v : values) {
    std::printf("%12.4f", v);
  }
  std::printf("\n");
}

void PrintShapeNote(const std::string& note) {
  std::printf("paper shape: %s\n\n", note.c_str());
  FlushSection();
}

ExperimentResult MustRun(const ExperimentConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  const auto result = Experiment(config).Run();
  if (!result.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  g_section.pending_wall_ms +=
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  return *result;
}

}  // namespace bench
}  // namespace ipqs
