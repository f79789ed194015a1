#ifndef GEOLIC_UTIL_SIM_HOOKS_H_
#define GEOLIC_UTIL_SIM_HOOKS_H_

#include <cstdint>

namespace geolic {

// Hooks the deterministic simulation harness (src/sim/) threads through
// the request path. Production code never sets them: every call site is a
// branch on a null pointer (the same zero-cost-default pattern as
// OnlineValidatorOptions::tracer), so the service pays one predictable
// branch per hook point when simulation is off.
//
// Yield points mark spots where a cooperative scheduler may suspend the
// calling task and run another — the mechanism that lets the simulator
// replay chosen interleavings of concurrent operations from a single seed.
// Contract for adding a hook point: the caller must hold NO locks at a
// Yield (a suspended lock holder would deadlock the single-token
// scheduler), which is also why the points sit at the lock-free seams of
// the request path rather than inside critical sections. The one exception
// is IssuanceService's reconfiguration lock, which the service takes
// cooperatively (try-lock, yield, retry) whenever hooks are installed, so
// a reconfiguration may yield while holding it.
//
// NowNanos is the simulation's virtual clock. When hooks are installed the
// service timestamps request latency from it instead of the wall clock, so
// metrics become a deterministic function of the seed too.
class SimHooks {
 public:
  virtual ~SimHooks() = default;

  // Possible suspension point; `point` names the seam (e.g.
  // "pre_shard_lock") for interleaving traces. Must be called lock-free.
  virtual void Yield(const char* point) = 0;

  // Virtual time in nanoseconds; monotonically non-decreasing.
  virtual uint64_t NowNanos() = 0;
};

}  // namespace geolic

#endif  // GEOLIC_UTIL_SIM_HOOKS_H_
