#include "workload/workload.h"

namespace wsc::workload {

Behavior MakeBehavior(double weight, std::shared_ptr<const Distribution> size,
                      std::shared_ptr<const Distribution> lifetime) {
  Behavior b;
  b.weight = weight;
  b.size_bytes = std::move(size);
  b.lifetime_ns = std::move(lifetime);
  return b;
}

std::shared_ptr<const Distribution> SizeLognormal(double median_bytes,
                                                  double spread) {
  return std::make_shared<LognormalDistribution>(
      LognormalDistribution::FromMedian(median_bytes, spread));
}

std::shared_ptr<const Distribution> SizePoint(double bytes) {
  return std::make_shared<PointDistribution>(bytes);
}

std::shared_ptr<const Distribution> SizePareto(double scale, double alpha,
                                               double cap) {
  return std::make_shared<ParetoDistribution>(scale, alpha, cap);
}

std::shared_ptr<const Distribution> LifetimeLognormal(double median_ns,
                                                      double spread) {
  return std::make_shared<LognormalDistribution>(
      LognormalDistribution::FromMedian(median_ns, spread));
}

std::shared_ptr<const Distribution> LifetimePoint(double ns) {
  return std::make_shared<PointDistribution>(ns);
}

}  // namespace wsc::workload
