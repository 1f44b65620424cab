// End-to-end benchmark harness for ipqs.
//
//   ipqs_perfbench --workload <adhoc_panel|standing|ingest_faulty>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--rounds <n>] --out <dir> --scratch <dir>
//
// One process, one thread: a single client in a closed loop. Every run
// drives all three serving loops (see README.md), because every workload
// reports every end-to-end metric; the named workload's own loop gets most
// of the time and the other two run in interleaved slices. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

using ipqs::obs::MonotonicNanos;

// Time weights: the workload's own loop gets kOwnWeight, each other loop
// its entry in kOtherWeight (indexed like kWorkloads), sized so that every
// p99 still rests on >= 1,000 calls when the host runs slow. Loops switch
// every kSliceSeconds (host speed drifts over seconds, so every metric
// samples the whole run).
constexpr double kOwnWeight = 0.5;
constexpr double kOtherWeight[] = {0.25, 0.35, 0.25};
constexpr double kSliceSeconds = 0.5;

const char* const kWorkloads[] = {"adhoc_panel", "standing", "ingest_faulty"};

// Metrics more than one loop can produce come from the primary loop when it
// produces them, else from adhoc_panel's loop.
const char* const kSharedMetrics[] = {
    "query.prune_ms",   "query.evaluate_ms",
    "query.infer_ms",   "query.merge_ms",
    "query.candidates", "query.prune_keep",
    "filter.runs",      "filter.resumes",
    "filter.seconds",   "filter.run_us",
    "filter.resume_us", "filter.ns_per_particle_second",
    "filter.predict_us", "filter.weight_us",
    "filter.resample_us", "filter.snap_us",
    "filter.cache_hit", "filter.invalidations",
    "filter.reseeds",   "graph.dindex_hit",
    "graph.dijkstras",  "range_kl",
    "knn_hit"};

bool ParseArgs(int argc, char** argv, Options* options, std::string* error) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      *error = "bad argument: " + key;
      return false;
    }
    args[key.substr(2)] = argv[++i];
  }
  try {
    options->workload = args["workload"];
    options->seed = std::stoull(args.count("seed") ? args["seed"] : "1");
    options->seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
    options->trace = (args.count("trace") ? args["trace"] : "0") == "1";
    options->rounds = std::stoi(args.count("rounds") ? args["rounds"] : "0");
    options->out_dir = args.count("out") ? args["out"] : ".";
    options->scratch_dir = args.count("scratch") ? args["scratch"] : ".";
  } catch (const std::exception& e) {
    *error = std::string("bad numeric argument: ") + e.what();
    return false;
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                options->workload) == std::end(kWorkloads)) {
    *error = "unknown workload: " + options->workload;
    return false;
  }
  if (options->seconds <= 0 || options->rounds < 0) {
    *error = "--seconds must be positive and --rounds non-negative";
    return false;
  }
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  std::string name = "unknown";
  std::string model;
  while (std::getline(in, line)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    std::string key = line.substr(0, colon);
    key.erase(key.find_last_not_of(" \t") + 1);
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && name == "unknown") {
      name = value;
    } else if (key == "model" && model.empty()) {
      model = value;
    }
  }
  return model.empty() ? name : name + " (model " + model + ")";
}

std::string FilesystemOf(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string Provenance(const Options& o,
                       const std::vector<std::unique_ptr<Loop>>& loops,
                       size_t primary) {
  std::ostringstream os;
  os << "{\"workload\":" << JsonString(o.workload) << ",\"seed\":" << o.seed
     << ",\"seconds\":" << JsonNumber(o.seconds)
     << ",\"trace\":" << (o.trace ? 1 : 0) << ",\"rounds\":" << o.rounds
     << ",\"warmup_s\":" << kWarmupSeconds << ",\"loops\":{";
  for (size_t i = 0; i < loops.size(); ++i) {
    os << (i == 0 ? "" : ",") << JsonString(loops[i]->name())
       << ":{\"weight\":" << (i == primary ? kOwnWeight : kOtherWeight[i])
       << ",\"params\":" << loops[i]->Params() << "}";
  }
  os << "},\"slice_s\":" << kSliceSeconds
     << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
     << ",\"lto\":" << (PERFBENCH_LTO ? "true" : "false")
     << ",\"kernel_simd_flags\":" << JsonString(PERFBENCH_SIMD_FLAGS)
     << ",\"compiler\":" << JsonString(PERFBENCH_COMPILER)
     << ",\"cpu\":" << JsonString(CpuModel())
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"wal_filesystem\":" << JsonString(FilesystemOf(o.scratch_dir))
     << "}";
  return os.str();
}

// Runs the loops: sequentially to completion in fixed-length mode, else in
// time slices weighted by share until the deadline.
void Drive(const Options& options, std::vector<std::unique_ptr<Loop>>& loops,
           size_t primary) {
  if (options.rounds > 0) {
    for (auto& loop : loops) {
      while (!loop->Done()) {
        loop->Advance();
      }
    }
    return;
  }
  std::vector<double> used(loops.size(), 0.0);
  size_t current = loops.size();
  const int64_t deadline =
      MonotonicNanos() + static_cast<int64_t>(options.seconds * 1e9);
  while (MonotonicNanos() < deadline) {
    size_t next = 0;
    double best = 1e300;
    for (size_t i = 0; i < loops.size(); ++i) {
      const double share = i == primary ? kOwnWeight : kOtherWeight[i];
      if (used[i] / share < best) {
        best = used[i] / share;
        next = i;
      }
    }
    const int64_t start = MonotonicNanos();
    const int64_t slice_end =
        std::min(deadline, start + static_cast<int64_t>(kSliceSeconds * 1e9));
    if (next != current) {
      loops[next]->Rewarm();
      current = next;
    }
    do {
      loops[next]->Advance();
    } while (MonotonicNanos() < slice_end);
    used[next] += Seconds(MonotonicNanos() - start);
  }
  for (auto& loop : loops) {
    loop->Finish();
  }
}

// Picks each metric from the loop that owns it (see kSharedMetrics).
std::map<std::string, Metric> Collect(
    const std::vector<std::unique_ptr<Loop>>& loops, size_t primary,
    bool per_layer) {
  std::vector<std::map<std::string, Metric>> by_loop(loops.size());
  for (size_t i = 0; i < loops.size(); ++i) {
    Report report;
    if (per_layer) {
      loops[i]->PerLayer(&report);
    } else {
      loops[i]->EndToEnd(&report);
    }
    for (const Metric& m : report.metrics()) {
      by_loop[i][m.name] = m;
    }
  }
  std::map<std::string, Metric> out;
  for (size_t i = 0; i < loops.size(); ++i) {
    for (const auto& [name, m] : by_loop[i]) {
      const bool shared =
          std::find(std::begin(kSharedMetrics), std::end(kSharedMetrics),
                    name) != std::end(kSharedMetrics);
      const size_t owner =
          shared ? (by_loop[primary].count(name) ? primary : 0) : i;
      if (owner == i) {
        out[name] = m;
      }
    }
  }
  return out;
}

std::string LedgerJson(const Loop& loop,
                       const std::map<std::string, Metric>& metrics) {
  const Ledger& ledger = loop.ledger();
  const double rounds = static_cast<double>(std::max<int64_t>(1, ledger.rounds()));
  std::ostringstream os;
  os << "{\"loop\":" << JsonString(loop.name())
     << ",\"rounds\":" << ledger.rounds()
     << ",\"round_ms\":" << JsonNumber(Millis(ledger.round_ns()) / rounds)
     << ",\"unattributed\":" << JsonNumber(ledger.Unattributed())
     << ",\"spans\":{";
  bool first = true;
  std::map<std::string, int64_t> layer_self;
  for (const auto& [name, total] : ledger.totals()) {
    os << (first ? "" : ",") << JsonString(name) << ":{\"count\":"
       << total.count << ",\"total_ms_per_round\":"
       << JsonNumber(Millis(total.total_ns) / rounds)
       << ",\"self_ms_per_round\":" << JsonNumber(Millis(total.self_ns) / rounds)
       << ",\"self_share\":"
       << JsonNumber(ledger.round_ns() == 0
                         ? 0.0
                         : static_cast<double>(total.self_ns) /
                               static_cast<double>(ledger.round_ns()))
       << "}";
    layer_self[name.substr(0, name.find('.'))] += total.self_ns;
    first = false;
  }
  os << "},\"outside_rounds\":{";
  first = true;
  for (const auto& [name, total] : ledger.outside()) {
    os << (first ? "" : ",") << JsonString(name) << ":{\"count\":"
       << total.count << ",\"total_ms\":" << JsonNumber(Millis(total.total_ns))
       << "}";
    first = false;
  }
  os << "},\"layer_self_share\":{";
  first = true;
  for (const auto& [layer, ns] : layer_self) {
    os << (first ? "" : ",") << JsonString(layer) << ":"
       << JsonNumber(ledger.round_ns() == 0
                         ? 0.0
                         : static_cast<double>(ns) /
                               static_cast<double>(ledger.round_ns()));
    first = false;
  }
  os << "},\"per_layer\":{";
  first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ",") << JsonString(name) << ":{\"value\":"
       << JsonNumber(m.value) << ",\"unit\":" << JsonString(m.unit)
       << ",\"samples\":" << m.samples << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

int Main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!ParseArgs(argc, argv, &options, &error)) {
    std::fprintf(stderr, "ipqs_perfbench: %s\n", error.c_str());
    return 2;
  }
  std::filesystem::create_directories(options.out_dir);
  std::filesystem::create_directories(options.scratch_dir);

  std::vector<std::unique_ptr<Loop>> loops;
  size_t primary = 0;
  for (size_t i = 0; i < std::size(kWorkloads); ++i) {
    LoopSetup setup;
    setup.options = &options;
    setup.traced = options.trace;
    const bool own = options.workload == kWorkloads[i];
    setup.twin_epochs = setup.traced && own;
    if (own) {
      primary = i;
    }
    loops.push_back(i == 0   ? MakeAdhocPanelLoop(setup)
                    : i == 1 ? MakeStandingLoop(setup)
                             : MakeIngestFaultyLoop(setup));
  }

  const std::string provenance = Provenance(options, loops, primary);
  std::printf("# ipqs_perfbench %s\n", provenance.c_str());
  std::fflush(stdout);
  Drive(options, loops, primary);

  std::map<std::string, Metric> metrics = Collect(loops, primary, options.trace);
  const Loop& main_loop = *loops[primary];
  if (options.trace) {
    const Ledger& ledger = main_loop.ledger();
    metrics["ledger.unattributed"] = {"ledger.unattributed",
                                      ledger.Unattributed(), "ratio",
                                      ledger.rounds()};
    const double untraced = main_loop.UntracedLatency();
    metrics["obs.trace_overhead"] = {
        "obs.trace_overhead",
        untraced == 0.0 ? 0.0 : main_loop.TracedLatency() / untraced, "ratio",
        ledger.rounds()};
  } else {
    const std::vector<double>& setups = main_loop.setup_samples();
    metrics["setup_s"] = {"setup_s", Median(setups), "s",
                          static_cast<int64_t>(setups.size())};
    metrics["peak_rss_mb"] = {"peak_rss_mb", PeakRssMb(), "MB", 1};
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  for (const auto& loop : loops) {
    attempted += loop->tally().attempted;
    failed += loop->tally().failed;
    for (const std::string& note : loop->tally().notes) {
      std::printf("# FAILED %s\n", note.c_str());
    }
  }
  bool finite = true;
  for (const auto& [name, m] : metrics) {
    finite = finite && std::isfinite(m.value);
    std::printf("# %-32s %16.6f %-10s n=%lld\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  const bool correct = failed == 0 && attempted > 0 && finite;

  const std::string tag = options.workload + "-seed" +
                          std::to_string(options.seed) + "-trace" +
                          (options.trace ? "1" : "0");
  if (options.trace) {
    const std::string ledger_json = LedgerJson(main_loop, metrics);
    const std::string path = options.out_dir + "/trace-" + tag + ".json";
    if (!WriteChromeTrace(path, main_loop.name(), main_loop.ledger(),
                          main_loop.program_spans(), ledger_json)) {
      std::fprintf(stderr, "ipqs_perfbench: cannot write %s\n", path.c_str());
    } else {
      std::printf("# trace %s\n", path.c_str());
    }
  }

  std::ostringstream result;
  result << "{\"correct\":" << (correct ? "true" : "false")
         << ",\"attempted\":" << attempted << ",\"failed\":" << failed
         << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    result << (first ? "" : ",") << JsonString(name)
           << ":{\"value\":" << JsonNumber(m.value)
           << ",\"unit\":" << JsonString(m.unit) << "}";
    first = false;
  }
  result << "}}";

  // The full record: provenance, sample counts, and the result line.
  std::ofstream record(options.out_dir + "/result-" + tag + ".json");
  record << "{\"provenance\":" << provenance << ",\"samples\":{";
  first = true;
  for (const auto& [name, m] : metrics) {
    record << (first ? "" : ",") << JsonString(name) << ":" << m.samples;
    first = false;
  }
  record << "},\"result\":" << result.str() << "}\n";

  std::printf("%s\n", result.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
