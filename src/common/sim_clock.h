// Simulated time base for the discrete-event workload driver.
//
// All latencies in the simulator are expressed in nanoseconds of virtual
// time. The clock only moves when the driver advances it, which makes every
// experiment deterministic and independent of host machine speed.

#ifndef WSC_COMMON_SIM_CLOCK_H_
#define WSC_COMMON_SIM_CLOCK_H_

#include <cstdint>

#include "common/logging.h"

namespace wsc {

// Virtual nanoseconds since simulation start.
using SimTime = int64_t;

// Duration helpers (all return nanoseconds).
constexpr SimTime Nanoseconds(int64_t n) { return n; }
constexpr SimTime Microseconds(int64_t n) { return n * 1000; }
constexpr SimTime Milliseconds(int64_t n) { return n * 1000 * 1000; }
constexpr SimTime Seconds(int64_t n) { return n * 1000 * 1000 * 1000; }
constexpr SimTime Minutes(int64_t n) { return Seconds(n * 60); }
constexpr SimTime Hours(int64_t n) { return Minutes(n * 60); }
constexpr SimTime Days(int64_t n) { return Hours(n * 24); }

// A monotonically advancing virtual clock.
class SimClock {
 public:
  SimClock() = default;

  // Current virtual time.
  SimTime now() const { return now_; }

  // Advances the clock by a non-negative delta.
  void Advance(SimTime delta) {
    WSC_DCHECK_GE(delta, 0);
    now_ += delta;
  }

 private:
  SimTime now_ = 0;
};

}  // namespace wsc

#endif  // WSC_COMMON_SIM_CLOCK_H_
