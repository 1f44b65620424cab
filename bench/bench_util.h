#ifndef IPQS_BENCH_BENCH_UTIL_H_
#define IPQS_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "sim/experiment.h"

namespace ipqs {
namespace bench {

// The paper's evaluation protocol with the Table 2 defaults: 64 particles,
// 2% windows, 200 objects, k=3, 2 m activation range; 100 random windows
// per timestamp, 30 kNN query points, 50 timestamps.
//
// Setting the environment variable IPQS_FAST=1 shrinks the protocol
// (fewer objects/timestamps/queries) for quick iteration; the shapes stay
// the same, only the error bars grow.
ExperimentConfig PaperProtocol();

// True when IPQS_FAST=1 is set.
bool FastMode();

// One sweep point: the x value and its averaged metrics.
struct SweepRow {
  double x = 0.0;
  ExperimentResult result;
};

// Pretty-prints a figure reproduction: the header (figure id + title), one
// row per sweep point with the chosen metric columns, and the qualitative
// shape the paper reports for comparison.
//
// When the environment variable IPQS_BENCH_JSON names a directory, the
// trio additionally records the section into BENCH_<figure>.json there
// (one file per PrintHeader..PrintShapeNote section, rows with their
// printed values plus the wall-clock milliseconds the MustRun calls since
// the previous row took), with the build type and the host (CPU count and
// model) they were measured on. Machine-readable twin of the stdout tables
// for CI artifacts and regression tracking.
void PrintHeader(const std::string& figure, const std::string& title,
                 const std::string& xlabel,
                 const std::vector<std::string>& columns);
void PrintRow(double x, const std::vector<double>& values);
void PrintShapeNote(const std::string& note);

// Runs one experiment, aborting the process with a message on failure
// (benches have no error recovery story).
ExperimentResult MustRun(const ExperimentConfig& config);

}  // namespace bench
}  // namespace ipqs

#endif  // IPQS_BENCH_BENCH_UTIL_H_
