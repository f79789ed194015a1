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
// scheduler). IssuanceService's yield points all sit before its one
// service lock ("pre_shard_lock", "pre_reconfig", "pre_checkpoint"), so
// every service call runs as one step of the schedule; with hooks
// installed it takes the lock cooperatively (try-lock, yield, retry).
//
// NowNanos is the simulation's virtual clock. When hooks are installed the
// service timestamps request latency from it instead of the wall clock, so
// metrics become a deterministic function of the seed too.
class SimHooks {
 public:
  virtual ~SimHooks() = default;

  // Possible suspension point; `point` names the seam (e.g.
  // "pre_reconfig") for interleaving traces. Must be called lock-free.
  virtual void Yield(const char* point) = 0;

  // Virtual time in nanoseconds; monotonically non-decreasing.
  virtual uint64_t NowNanos() = 0;
};

}  // namespace geolic

#endif  // GEOLIC_UTIL_SIM_HOOKS_H_
