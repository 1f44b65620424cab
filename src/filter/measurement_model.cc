#include "filter/measurement_model.h"

#include <cmath>

#include "common/check.h"

namespace ipqs {

MeasurementModel::MeasurementModel(const MeasurementConfig& config)
    : config_(config) {
  IPQS_CHECK_GT(config.hit_weight, 0.0);
  IPQS_CHECK_GT(config.miss_weight, 0.0);
  IPQS_CHECK_GT(config.silent_zone_weight, 0.0);
}

size_t MeasurementModel::WeightOnDetection(const Deployment& deployment,
                                           ReaderId detected_by, size_t n,
                                           const double* x, const double* y,
                                           double* weight) const {
  const Reader& r = deployment.reader(detected_by);
  const double rx = r.pos.x;
  const double ry = r.pos.y;
  const double range = r.range;
  const double hit = config_.hit_weight;
  const double miss = config_.miss_weight;
  size_t in_range = 0;
  for (size_t i = 0; i < n; ++i) {
    // Bit-identical to Reader::InRange: sqrt(dx^2 + dy^2) <= range.
    // (Negation before squaring is exact, so the subtraction order does
    // not matter.)
    const double dx = rx - x[i];
    const double dy = ry - y[i];
    const bool inside = std::sqrt(dx * dx + dy * dy) <= range;
    weight[i] *= inside ? hit : miss;
    in_range += inside ? 1 : 0;
  }
  return in_range;
}

size_t MeasurementModel::WeightOnSilence(const Deployment& deployment,
                                         size_t n, const double* x,
                                         const double* y,
                                         double* weight) const {
  if (!config_.use_negative_information) {
    return 0;
  }
  const double zone = config_.silent_zone_weight;
  const std::vector<Reader>& readers = deployment.readers();
  size_t scaled = 0;
  for (size_t i = 0; i < n; ++i) {
    bool covered = false;
    for (const Reader& r : readers) {
      const double dx = r.pos.x - x[i];
      const double dy = r.pos.y - y[i];
      if (std::sqrt(dx * dx + dy * dy) <= r.range) {
        covered = true;
        break;
      }
    }
    const double mult = covered ? zone : 1.0;
    weight[i] *= mult;  // Multiplying by 1.0 is an exact FP identity.
    scaled += mult != 1.0 ? 1 : 0;
  }
  return scaled;
}

size_t MeasurementModel::WeightOnSilence(const Deployment& deployment,
                                         size_t n, const double* x,
                                         const double* y, double* weight,
                                         const uint8_t* reader_trusted) const {
  if (reader_trusted == nullptr) {
    // All-trusted: the unmasked kernel is the exact same arithmetic with
    // the better-vectorizing inner loop.
    return WeightOnSilence(deployment, n, x, y, weight);
  }
  if (!config_.use_negative_information) {
    return 0;
  }
  const double zone = config_.silent_zone_weight;
  const std::vector<Reader>& readers = deployment.readers();
  size_t scaled = 0;
  for (size_t i = 0; i < n; ++i) {
    bool covered = false;
    for (const Reader& r : readers) {
      if (reader_trusted[r.id] == 0) {
        continue;  // Silence from this reader carries no information.
      }
      const double dx = r.pos.x - x[i];
      const double dy = r.pos.y - y[i];
      if (std::sqrt(dx * dx + dy * dy) <= r.range) {
        covered = true;
        break;
      }
    }
    const double mult = covered ? zone : 1.0;
    weight[i] *= mult;
    scaled += mult != 1.0 ? 1 : 0;
  }
  return scaled;
}

}  // namespace ipqs
