// Periodic gauge sampling on simulated time.
//
// A GaugeSampler rides one partition's Simulator as a typed timer target:
// every `interval` of sim time it reads each registered gauge callback and
// appends the value to that gauge's series. Samplers are strictly
// partition-confined — every registered callback must read only state owned
// by the sampler's partition (protocol frontiers, queue depths, the
// partition's own pool/CPU counters), which is what keeps the sampled series
// byte-identical at any --sim-threads value. Driver-dependent quantities
// (cross-partition lag, wall clock) stay out; the one subtle case, pending
// event counts, uses the simulator's native-pending counter (foreign-record
// insertion timing is driver-dependent, native scheduling is not).
//
// Sampling schedules real timer events, so unlike the TraceRecorder it is
// NOT schedule-neutral: runs with sampling on have their own fingerprints.
// The trace_breakdown scenario pins both: the trace-only fingerprint equals
// the untraced one, and the sampled run is byte-identical across drivers.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/rsm/metrics.h"
#include "src/sim/simulator.h"

namespace optilog {

class GaugeSampler final : public TimerTarget {
 public:
  GaugeSampler(Simulator* sim, SimTime interval) : sim_(sim) {
    report_.enabled = true;
    report_.interval = interval;
  }
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;

  // Registers a gauge. Registration order is the series order everywhere
  // (report, JSON, fingerprint), so callers register in a fixed order.
  void Add(std::string name, std::function<double()> read) {
    reads_.push_back(std::move(read));
    report_.series.push_back({std::move(name), {}});
  }

  // Schedules the first sample one interval from now.
  void Start() { sim_->ScheduleTimer(this, 0, report_.interval); }

  void OnTimer(uint64_t tag, SimTime at) override {
    (void)tag;
    (void)at;
    for (size_t i = 0; i < reads_.size(); ++i) {
      report_.series[i].values.push_back(reads_[i]());
    }
    sim_->ScheduleTimer(this, 0, report_.interval);
  }

  // The samples so far, one value per elapsed interval in time order.
  const TimeseriesReport& report() const { return report_; }

 private:
  Simulator* sim_;
  std::vector<std::function<double()>> reads_;
  TimeseriesReport report_;
};

}  // namespace optilog
