#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/logging.h"

namespace wsc {

LogHistogram::LogHistogram() {
  std::memset(buckets_, 0, sizeof(buckets_));
  std::memset(bucket_value_sum_, 0, sizeof(bucket_value_sum_));
}

int LogHistogram::BucketFor(double value) {
  if (value < 1.0) return 0;
  // floor(log2(value)) is the unbiased exponent of a normal double; read it
  // from the bits, exactly and without a libm call.
  const int exponent =
      static_cast<int>(std::bit_cast<uint64_t>(value) >> 52) - 1023;
  return std::min(exponent, kNumBuckets - 1);
}

void LogHistogram::Add(double value, double weight) {
  WSC_DCHECK_GE(value, 0.0);
  WSC_DCHECK_GE(weight, 0.0);
  int b = BucketFor(value);
  buckets_[b] += weight;
  bucket_value_sum_[b] += weight * value;
  total_weight_ += weight;
  weighted_value_sum_ += weight * value;
  ++count_;
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (int b = 0; b < kNumBuckets; ++b) {
    buckets_[b] += other.buckets_[b];
    bucket_value_sum_[b] += other.bucket_value_sum_[b];
  }
  total_weight_ += other.total_weight_;
  weighted_value_sum_ += other.weighted_value_sum_;
  count_ += other.count_;
}

double LogHistogram::Mean() const {
  if (total_weight_ <= 0.0) return 0.0;
  return weighted_value_sum_ / total_weight_;
}

double LogHistogram::Quantile(double q) const {
  if (total_weight_ <= 0.0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double target = q * total_weight_;
  double acc = 0.0;
  for (int b = 0; b < kNumBuckets; ++b) {
    if (buckets_[b] <= 0.0) continue;
    if (acc + buckets_[b] >= target) {
      double lo = (b == 0) ? 0.0 : std::pow(2.0, b);
      double hi = std::pow(2.0, b + 1);
      double frac = (target - acc) / buckets_[b];
      return lo + frac * (hi - lo);
    }
    acc += buckets_[b];
  }
  return std::pow(2.0, kNumBuckets);
}

double LogHistogram::FractionBelow(double threshold) const {
  if (total_weight_ <= 0.0) return 0.0;
  double acc = 0.0;
  for (int b = 0; b < kNumBuckets; ++b) {
    if (buckets_[b] <= 0.0) continue;
    double lo = (b == 0) ? 0.0 : std::pow(2.0, b);
    double hi = std::pow(2.0, b + 1);
    if (hi <= threshold) {
      acc += buckets_[b];
    } else if (lo < threshold) {
      // Interpolate within the straddling bucket.
      acc += buckets_[b] * (threshold - lo) / (hi - lo);
    }
  }
  return acc / total_weight_;
}

std::vector<LogHistogram::CdfPoint> LogHistogram::Cdf() const {
  std::vector<CdfPoint> points;
  if (total_weight_ <= 0.0) return points;
  double acc = 0.0;
  for (int b = 0; b < kNumBuckets; ++b) {
    if (buckets_[b] <= 0.0) continue;
    acc += buckets_[b];
    points.push_back({std::pow(2.0, b + 1), acc / total_weight_});
  }
  return points;
}

std::string LogHistogram::ToString(const char* unit) const {
  std::ostringstream os;
  os << "count=" << count_ << " mean=" << Mean() << unit
     << " p50=" << Quantile(0.5) << unit << " p99=" << Quantile(0.99) << unit
     << "\n";
  for (int b = 0; b < kNumBuckets; ++b) {
    if (buckets_[b] <= 0.0) continue;
    double lo = (b == 0) ? 0.0 : std::pow(2.0, b);
    os << "  [" << lo << ", " << std::pow(2.0, b + 1) << ") " << unit << ": "
       << buckets_[b] << "\n";
  }
  return os.str();
}

}  // namespace wsc
