// Shared pieces of the end-to-end benchmark harness: run options, sample
// statistics, the metric report, the benchmark-side span ledger, and the
// Loop interface the three serving loops implement.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulation.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // > 0: fixed-length run for tests. Every loop runs exactly one epoch of
  // this many measured rounds, one loop after another, with no time limit.
  int rounds = 0;
  std::string out_dir;      // Chrome trace + ledger files (traced runs).
  std::string scratch_dir;  // WAL / snapshot directories.
};

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Exact order statistic (linear interpolation between closest ranks).
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

// Deterministic per-epoch seed: a SplitMix64 step over (seed, stream, index).
uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t index);

// Counts every checked operation. A failed op is a failed answer check, an
// answer below kFull, a persist status that is not OK, or a reading the
// collector dropped as late.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> notes;  // First few failure descriptions.

  void Check(bool ok, const std::string& what);
};

// One printed metric: value, unit, and the sample count behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Counter values and histogram (count, sum) pairs of a registry, so the
// measured part of an epoch can be isolated from its set-up.
struct RegistryTotals {
  std::map<std::string, int64_t> counters;
  std::map<std::string, std::pair<int64_t, int64_t>> histograms;

  static RegistryTotals Capture(const ipqs::obs::MetricsRegistry& registry);
  // this += (after - before).
  void AddDelta(const RegistryTotals& before, const RegistryTotals& after);
  int64_t Counter(const std::string& name) const;
  int64_t HistCount(const std::string& name) const;
  int64_t HistSum(const std::string& name) const;
  // Mean of a histogram's observations; 0 when it has none.
  double HistMean(const std::string& name) const;
};

// The query, filter and graph layer metrics of one engine, from its
// registry totals over `rounds` measured rounds. `prefix` is the engine's
// metrics prefix.
void EngineLayerMetrics(const RegistryTotals& totals, const std::string& prefix,
                        int64_t rounds, int particles, Report* report);

// Benchmark-side spans around the public calls of one loop. Rounds are the
// loop's unit of work; spans nest inside the open round. Self time (a span
// minus the time its child spans cover) is accumulated per span name as
// spans close, so memory stays bounded; calls made outside any round (world
// creation, end-of-epoch checks, recovery) are totalled apart. Raw events
// are kept only while `keep_events` is set, for the Chrome trace file. A
// null Ledger* makes every Span a no-op that never reads the clock.
class Ledger {
 public:
  struct Total {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  struct Event {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t round = 0;  // -1 outside any round.
  };

  class Span {
   public:
    Span(Ledger* ledger, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Ledger* ledger_;
  };

  void BeginRound(int64_t round);
  // Returns the round's wall time in nanoseconds.
  int64_t EndRound();

  bool keep_events = false;

  int64_t rounds() const { return rounds_; }
  int64_t round_ns() const { return round_ns_; }
  // Spans inside rounds, and spans outside any round.
  const std::map<std::string, Total>& totals() const { return totals_; }
  const std::map<std::string, Total>& outside() const { return outside_; }
  const std::vector<Event>& events() const { return events_; }
  // Self time of every span named `name`, summed.
  int64_t SelfNs(const std::string& name) const;
  // Uncovered share of all round wall time.
  double Unattributed() const;

 private:
  struct Open {
    const char* name;
    int64_t start_ns;
    int64_t child_ns;
  };
  void Push(const char* name);
  void Pop();

  std::vector<Open> stack_;
  std::map<std::string, Total> totals_;
  std::map<std::string, Total> outside_;
  std::vector<Event> events_;
  int64_t round_ = 0;
  int64_t rounds_ = 0;
  int64_t round_ns_ = 0;
  int64_t covered_ns_ = 0;
};

// Writes {"traceEvents":[...], "ledger": {...}}: the ledger's kept events,
// the program's own recorder spans when given, and `ledger_json` (the
// per-layer table).
bool WriteChromeTrace(const std::string& path, const std::string& loop_name,
                      const Ledger& ledger,
                      const ipqs::obs::TraceRecorder* program_spans,
                      const std::string& ledger_json);

// How a loop runs within one benchmark process.
struct LoopSetup {
  const Options* options = nullptr;
  bool traced = false;  // Attach registries, recorders and spans.
  // Traced primary loops alternate traced and untraced epochs on the same
  // world, so the tracing overhead is measured in the same process.
  bool twin_epochs = false;
};

// One of the three serving loops. Each owns its own worlds, runs in epochs
// (set-up, measured rounds, end-of-epoch checks), and can be advanced a
// round at a time so the harness can interleave loops in time slices. The
// base class keeps the epoch bookkeeping and the traced run's registry,
// recorder and ledger; it is declared before the derived worlds, so it
// outlives the engines that point into it.
class Loop {
 public:
  explicit Loop(const LoopSetup& setup) : setup_(setup) {}
  virtual ~Loop() = default;
  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  virtual const char* name() const = 0;
  // The loop's workload parameters as a JSON object, for the provenance
  // record.
  virtual std::string Params() const = 0;
  // Runs the next unit of work: an epoch's set-up plus first round, one
  // measured round, or an epoch's end with its checks.
  virtual void Advance() = 0;
  // Called when the harness switches to this loop: runs one untimed round
  // of the open epoch, so the first timed round does not pay for the
  // caches the other loops evicted.
  virtual void Rewarm() = 0;
  // Ends an open epoch (running its checks) so every sample is whole.
  virtual void Finish() = 0;
  // End-to-end metrics this loop measures.
  virtual void EndToEnd(Report* report) const = 0;
  // Per-layer metrics of the layers this loop exercises.
  virtual void PerLayer(Report* report) const = 0;
  // The loop's main latency (ms, p50) on traced and on untraced epochs;
  // meaningful only for the primary loop of a traced run.
  virtual double TracedLatency() const = 0;
  virtual double UntracedLatency() const = 0;

  // Fixed-length mode: true once the single epoch (two with twin epochs)
  // has ended.
  bool Done() const { return done_; }
  // Set-up time samples (seconds), one per untraced epoch.
  const std::vector<double>& setup_samples() const { return setup_s_; }
  const Ledger& ledger() const { return ledger_; }
  // The program's own spans of the first traced epoch (may be null).
  const ipqs::obs::TraceRecorder* program_spans() const {
    return kept_recorder_.get();
  }
  const Tally& tally() const { return tally_; }

 protected:
  // Starts an epoch: decides whether it is traced (creating its recorder)
  // and returns its world seed. Twin epochs share a seed.
  uint64_t OpenEpoch(uint64_t stream);
  // Set-up is done: records its time (untraced epochs) and, on traced
  // epochs, starts the ledger and the registry count.
  void EndSetup(int64_t start_ns);
  // The measured rounds are over: adds the epoch's registry delta.
  void StopMeasuring();
  // Ends the epoch once its worlds are gone: keeps the first traced
  // epoch's recorder for the trace file.
  void CloseEpoch();
  // Measured rounds per epoch: --rounds in fixed-length mode, else `usual`.
  int RoundsPerEpoch(int usual) const;
  // The ledger on traced epochs, for spans outside the rounds.
  Ledger* EpochLedger() { return epoch_traced_ ? &ledger_ : nullptr; }

  const LoopSetup setup_;
  Tally tally_;
  bool done_ = false;
  int epoch_ = 0;
  bool epoch_traced_ = false;
  std::vector<double> setup_s_;
  ipqs::obs::MetricsRegistry registry_;
  std::unique_ptr<ipqs::obs::TraceRecorder> recorder_;  // Open traced epoch.
  std::unique_ptr<ipqs::obs::TraceRecorder> kept_recorder_;
  RegistryTotals epoch_base_;
  RegistryTotals measured_;  // Over the traced epochs' measured rounds.
  Ledger ledger_;
};

std::unique_ptr<Loop> MakeAdhocPanelLoop(const LoopSetup& setup);
std::unique_ptr<Loop> MakeStandingLoop(const LoopSetup& setup);
std::unique_ptr<Loop> MakeIngestFaultyLoop(const LoopSetup& setup);

// The paper's Table 2 world: the generated office (30 rooms, 4 hallways),
// 19 readers at 2 m, 200 objects, 64 particles, pruning + cache + distance
// index on, clean stream.
ipqs::SimulationConfig TableTwoWorld(uint64_t seed);

constexpr int kWarmupSeconds = 240;  // As run_experiment.
constexpr double kWindowAreaFraction = 0.02;
constexpr int kKnnK = 3;

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
