#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed ^ (stream * 0x9E3779B97F4A7C15ull) ^
               (index * 0xD1B54A32D192ED03ull);
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Tally::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (notes.size() < 8) {
      notes.push_back(what);
    }
  }
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

RegistryTotals RegistryTotals::Capture(
    const ipqs::obs::MetricsRegistry& registry) {
  const ipqs::obs::RegistrySnapshot snap = registry.SnapshotAll();
  RegistryTotals totals;
  for (const auto& [name, value] : snap.counters) {
    totals.counters[name] = value;
  }
  for (const auto& [name, hist] : snap.histograms) {
    totals.histograms[name] = {hist.count, hist.sum};
  }
  return totals;
}

void RegistryTotals::AddDelta(const RegistryTotals& before,
                              const RegistryTotals& after) {
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    counters[name] += value - (it == before.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, cs] : after.histograms) {
    const auto it = before.histograms.find(name);
    const std::pair<int64_t, int64_t> base =
        it == before.histograms.end() ? std::pair<int64_t, int64_t>{0, 0}
                                      : it->second;
    auto& mine = histograms[name];
    mine.first += cs.first - base.first;
    mine.second += cs.second - base.second;
  }
}

int64_t RegistryTotals::Counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

int64_t RegistryTotals::HistCount(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? 0 : it->second.first;
}

int64_t RegistryTotals::HistSum(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? 0 : it->second.second;
}

double RegistryTotals::HistMean(const std::string& name) const {
  const int64_t count = HistCount(name);
  return count == 0 ? 0.0
                    : static_cast<double>(HistSum(name)) /
                          static_cast<double>(count);
}

void EngineLayerMetrics(const RegistryTotals& t, const std::string& prefix,
                        int64_t rounds, int particles, Report* report) {
  const std::string p = prefix + ".";
  const auto per_round = [&](double v) {
    return rounds == 0 ? 0.0 : v / static_cast<double>(rounds);
  };
  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  const auto stage_ms = [&](const char* stage) {
    return per_round(Millis(t.HistSum(p + "stage." + stage + "_ns")));
  };
  const double queries = static_cast<double>(t.Counter(p + "engine.queries"));
  const double candidates =
      static_cast<double>(t.Counter(p + "engine.candidates_inferred"));
  const double considered =
      static_cast<double>(t.Counter(p + "engine.objects_considered"));
  const double filter_seconds =
      static_cast<double>(t.Counter(p + "engine.filter_seconds"));
  const double hits = static_cast<double>(t.Counter(p + "cache.hits"));
  const double misses = static_cast<double>(t.Counter(p + "cache.misses"));
  const double dhits = static_cast<double>(t.Counter(p + "dindex.hits"));
  const double dmisses = static_cast<double>(t.Counter(p + "dindex.misses"));
  report->Add("query.prune_ms", stage_ms("prune"), "ms", rounds);
  report->Add("query.evaluate_ms", stage_ms("evaluate"), "ms", rounds);
  report->Add("query.infer_ms", stage_ms("infer"), "ms", rounds);
  report->Add("query.merge_ms", stage_ms("merge"), "ms", rounds);
  report->Add("query.candidates", ratio(candidates, queries), "count",
              static_cast<int64_t>(queries));
  report->Add("query.prune_keep", ratio(candidates, considered), "ratio",
              static_cast<int64_t>(queries));
  report->Add("filter.runs",
              per_round(static_cast<double>(t.Counter(p + "engine.filter_runs"))),
              "count", rounds);
  report->Add(
      "filter.resumes",
      per_round(static_cast<double>(t.Counter(p + "engine.filter_resumes"))),
      "count", rounds);
  report->Add("filter.seconds", per_round(filter_seconds), "count", rounds);
  report->Add("filter.run_us", t.HistMean(p + "filter.run_ns") / 1e3, "us",
              t.HistCount(p + "filter.run_ns"));
  report->Add("filter.resume_us", t.HistMean(p + "filter.resume_ns") / 1e3,
              "us", t.HistCount(p + "filter.resume_ns"));
  report->Add("filter.ns_per_particle_second",
              ratio(static_cast<double>(t.HistSum(p + "stage.infer_ns")),
                    filter_seconds * particles),
              "ns", static_cast<int64_t>(filter_seconds));
  // The program's stage timers sample every 4th filtered second, and its
  // resample timer also covers normalize, ESS and roughening.
  for (const char* stage : {"predict", "weight", "resample", "snap"}) {
    const std::string hist = p + "filter." + stage + "_ns";
    report->Add(std::string("filter.") + stage + "_us",
                t.HistMean(hist) / 1e3, "us", t.HistCount(hist));
  }
  report->Add("filter.cache_hit", ratio(hits, hits + misses), "ratio",
              static_cast<int64_t>(hits + misses));
  report->Add(
      "filter.invalidations",
      per_round(static_cast<double>(t.Counter(p + "cache.invalidations"))),
      "count", rounds);
  report->Add(
      "filter.reseeds",
      per_round(static_cast<double>(t.Counter(p + "filter.reseed_total"))),
      "count", rounds);
  report->Add("graph.dindex_hit", ratio(dhits, dhits + dmisses), "ratio",
              static_cast<int64_t>(dhits + dmisses));
  report->Add("graph.dijkstras", per_round(dmisses), "count", rounds);
}

Ledger::Span::Span(Ledger* ledger, const char* name) : ledger_(ledger) {
  if (ledger_ != nullptr) {
    ledger_->Push(name);
  }
}

Ledger::Span::~Span() {
  if (ledger_ != nullptr) {
    ledger_->Pop();
  }
}

void Ledger::BeginRound(int64_t round) {
  round_ = round;
  stack_.push_back({"round", ipqs::obs::MonotonicNanos(), 0});
}

int64_t Ledger::EndRound() {
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t end = ipqs::obs::MonotonicNanos();
  const int64_t wall = end - open.start_ns;
  ++rounds_;
  round_ns_ += wall;
  covered_ns_ += open.child_ns;
  if (keep_events) {
    events_.push_back({"round", open.start_ns, end, round_});
  }
  return wall;
}

void Ledger::Push(const char* name) {
  stack_.push_back({name, ipqs::obs::MonotonicNanos(), 0});
}

void Ledger::Pop() {
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t end = ipqs::obs::MonotonicNanos();
  const int64_t dur = end - open.start_ns;
  const bool in_round = !stack_.empty();
  Total& total = (in_round ? totals_ : outside_)[open.name];
  ++total.count;
  total.total_ns += dur;
  total.self_ns += dur - open.child_ns;
  if (in_round) {
    stack_.back().child_ns += dur;
  }
  if (keep_events) {
    events_.push_back({open.name, open.start_ns, end, in_round ? round_ : -1});
  }
}

int64_t Ledger::SelfNs(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second.self_ns;
}

double Ledger::Unattributed() const {
  return round_ns_ == 0 ? 0.0
                        : static_cast<double>(round_ns_ - covered_ns_) /
                              static_cast<double>(round_ns_);
}

bool WriteChromeTrace(const std::string& path, const std::string& loop_name,
                      const Ledger& ledger,
                      const ipqs::obs::TraceRecorder* program_spans,
                      const std::string& ledger_json) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  // The harness's spans share the program recorder's clock origin so both
  // sets line up on one timeline; spans from before it existed are left out.
  int64_t origin = ledger.events().empty() ? 0 : ledger.events()[0].start_ns;
  std::string program;
  if (program_spans != nullptr) {
    origin = ipqs::obs::MonotonicNanos() - program_spans->NowNs();
    std::ostringstream os;
    program_spans->WriteJson(os);
    // Keep only the body of the recorder's {"traceEvents":[ ... ]}.
    const std::string json = os.str();
    const size_t open = json.find('[');
    const size_t close = json.rfind(']');
    if (open != std::string::npos && close != std::string::npos) {
      program = json.substr(open + 1, close - open - 1);
      const size_t b = program.find_first_not_of(" \n");
      const size_t e = program.find_last_not_of(" \n");
      program = b == std::string::npos ? "" : program.substr(b, e - b + 1);
    }
  }
  out << "{\"traceEvents\":[";
  bool first = program.empty();
  if (!first) {
    out << "\n" << program;
  }
  for (const Ledger::Event& e : ledger.events()) {
    if (e.start_ns < origin) {
      continue;
    }
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << e.name
        << "\",\"cat\":\"" << loop_name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(e.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(e.end_ns - e.start_ns) / 1e3
        << ",\"args\":{\"round\":" << e.round << "}}";
    first = false;
  }
  out << "\n],\n\"ledger\":" << ledger_json << "}\n";
  return static_cast<bool>(out);
}

uint64_t Loop::OpenEpoch(uint64_t stream) {
  epoch_traced_ = setup_.traced && (!setup_.twin_epochs || epoch_ % 2 == 0);
  if (epoch_traced_) {
    recorder_ = std::make_unique<ipqs::obs::TraceRecorder>();
    ledger_.keep_events = kept_recorder_ == nullptr;
  }
  const int index = setup_.twin_epochs ? epoch_ / 2 : epoch_;
  return DeriveSeed(setup_.options->seed, stream, static_cast<uint64_t>(index));
}

void Loop::EndSetup(int64_t start_ns) {
  if (epoch_traced_) {
    epoch_base_ = RegistryTotals::Capture(registry_);
  } else {
    setup_s_.push_back(Seconds(ipqs::obs::MonotonicNanos() - start_ns));
  }
}

void Loop::StopMeasuring() {
  if (epoch_traced_) {
    measured_.AddDelta(epoch_base_, RegistryTotals::Capture(registry_));
  }
}

void Loop::CloseEpoch() {
  if (epoch_traced_ && kept_recorder_ == nullptr) {
    kept_recorder_ = std::move(recorder_);
    ledger_.keep_events = false;
  }
  recorder_.reset();
  ++epoch_;
  done_ = setup_.options->rounds > 0 &&
          epoch_ >= (setup_.twin_epochs ? 2 : 1);
}

int Loop::RoundsPerEpoch(int usual) const {
  return setup_.options->rounds > 0 ? setup_.options->rounds : usual;
}

ipqs::SimulationConfig TableTwoWorld(uint64_t seed) {
  ipqs::SimulationConfig config;  // Defaults are the Table 2 world.
  config.seed = seed;
  return config;
}

}  // namespace perfbench
