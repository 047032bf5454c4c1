#pragma once
// Resilience policy: bounded retry, checksum-verified downloads, and the
// degradation ladder that keeps mining alive when the device misbehaves.
//
// The gpusim fault layer (gpusim/fault.hpp) makes device operations fail
// the way real CUDA deployments do — OOM, transient bus faults, silent
// D2H corruption, launch timeouts, ECC events. This header is the driver
// side of the contract:
//
//   * FaultAwareDevice, every driver's one device handle, owns a
//     gpusim::Device, retries retryable() errors with (simulated)
//     exponential backoff, and verifies every download end-to-end with an
//     FNV checksum, re-transferring on mismatch.
//   * ResilienceReport records what happened: fault/retry counts,
//     detected corruption, degradation events, and time lost.
//   * GpApriori::mine() adds the degradation ladder: static bitset →
//     partitioned streaming (on device OOM) → CPU_TEST (on persistent
//     device failure). Every rung recomputes the identical (itemset,
//     support) output — support counting is additive over transaction
//     partitions, and CPU_TEST runs the same algorithm — so exactness
//     survives every fallback. The other drivers throw what retries
//     cannot absorb.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gpusim/cancel.hpp"
#include "gpusim/device_context.hpp"
#include "gpusim/error.hpp"

namespace gpapriori {

/// Bounded retry-with-backoff applied to retryable device faults. The
/// backoff is simulated (recorded as time lost, never slept) so fault
/// drills stay fast and deterministic.
struct RetryPolicy {
  std::uint32_t max_retries = 3;
  double backoff_initial_ms = 1.0;
  double backoff_multiplier = 2.0;
  /// Run-level fault budget: once the CUMULATIVE simulated backoff of a
  /// run reaches this, faults stop being retried (the pending error
  /// propagates and the degradation ladder takes over). Per-call retry
  /// caps alone cannot stop a hostile fault plan from compounding a few
  /// milliseconds of backoff across thousands of calls into an unbounded
  /// simulated stall. 0 = unlimited.
  double max_total_backoff_ms = 10'000.0;
};

/// How far down the ladder a mining run had to go.
enum class DegradationStep : std::uint8_t {
  kNone,         ///< static-bitset GPU path completed
  kPartitioned,  ///< fell back to partitioned bitset streaming
  kCpu,          ///< fell back to CPU_TEST
};

[[nodiscard]] const char* to_string(DegradationStep step);

/// What the resilience machinery did during one mine() call.
struct ResilienceReport {
  /// Device-side operation/injection counters (copied from the Device).
  gpusim::FaultStats device_faults;
  /// Individual operation retries performed after transient faults.
  std::uint64_t retries = 0;
  /// D2H transfers whose checksum mismatched (silent corruption caught).
  std::uint64_t corruption_detected = 0;
  /// Re-transfers issued to repair detected corruption.
  std::uint64_t retransfers = 0;
  DegradationStep degraded_to = DegradationStep::kNone;
  /// The run-level fault budget (RetryPolicy::max_total_backoff_ms) was
  /// exhausted: at least one retryable fault was NOT retried because the
  /// run's cumulative simulated backoff had hit the cap.
  bool fault_budget_exhausted = false;
  /// Human-readable log of faults handled and ladder steps taken.
  std::vector<std::string> events;
  /// Simulated retry backoff time.
  double backoff_ms = 0;
  /// Host wall time burned in attempts that were later discarded.
  double time_lost_ms = 0;

  [[nodiscard]] bool degraded() const {
    return degraded_to != DegradationStep::kNone;
  }
  void reset() { *this = ResilienceReport{}; }
  /// Appends an event, capping the log so probabilistic fault storms
  /// cannot grow the report without bound.
  void push_event(std::string event);
  /// One-paragraph summary for CLI / logs.
  [[nodiscard]] std::string summary() const;
};

/// A driver's device handle: a gpusim::Device of its own behind the retry +
/// verification policy, and the report of what they did. All GPApriori
/// device traffic is uint32 words, so the interface is typed accordingly.
/// Copies and launches given a stream are issued there (Device's async API).
class FaultAwareDevice {
 public:
  /// Not a stream: the call runs synchronously.
  static constexpr gpusim::StreamId kSync = ~gpusim::StreamId{0};

  /// Builds the device. The cancel token the options give its executor
  /// (null: none) is also checked before every retry, so a watchdog or
  /// deadline trip breaks out of a retry loop a hostile fault plan would
  /// otherwise keep alive.
  FaultAwareDevice(const gpusim::DeviceProperties& props,
                   const gpusim::DeviceOptions& opts, RetryPolicy policy)
      : dev_(props, opts), policy_(policy), cancel_(opts.executor.cancel) {}

  [[nodiscard]] gpusim::Device& device() { return dev_; }
  [[nodiscard]] const gpusim::Device& device() const { return dev_; }
  /// Modeled device time so far (the ledger's total).
  [[nodiscard]] double device_ms() const {
    return dev_.ledger().total_ns() / 1e6;
  }
  /// Retries, corruption and backoff so far (device_faults is not filled).
  [[nodiscard]] ResilienceReport& report() { return report_; }

  /// Allocation is not retried: OOM is never transient (the arena will
  /// not shrink) — callers degrade instead.
  [[nodiscard]] gpusim::DevicePtr<std::uint32_t> alloc(
      std::size_t count, std::size_t alignment = alignof(std::uint32_t)) {
    return dev_.alloc<std::uint32_t>(count, alignment);
  }
  void free(gpusim::DevicePtr<std::uint32_t> p) { dev_.free(p); }

  /// H2D copy with bounded retry on transient faults.
  void upload(gpusim::DevicePtr<std::uint32_t> dst,
              std::span<const std::uint32_t> src,
              gpusim::StreamId stream = kSync);

  /// D2H copy with bounded retry, then end-to-end checksum verification:
  /// on mismatch the transfer is re-issued (counted as detected
  /// corruption); persistent mismatch throws a non-transient
  /// TransferError.
  void download_verified(std::span<std::uint32_t> dst,
                         gpusim::DevicePtr<std::uint32_t> src,
                         gpusim::StreamId stream = kSync);

  /// Kernel launch with bounded retry on transient faults (timeouts,
  /// ECC events). Re-running a support kernel is idempotent: it
  /// overwrites its whole output range.
  gpusim::KernelStats launch(const gpusim::Kernel& kernel,
                             const gpusim::LaunchConfig& cfg,
                             gpusim::StreamId stream = kSync);

 private:
  template <typename F>
  auto with_retry(const char* what, F&& f) {
    double backoff = policy_.backoff_initial_ms;
    for (std::uint32_t attempt = 0;; ++attempt) {
      try {
        return f();
      } catch (const gpusim::SimError& e) {
        // A cancelled run never retries: the watchdog/deadline may have
        // tripped precisely because this loop was stuck (a sticky fault
        // plan), so the token outranks retryability.
        gpusim::throw_if_cancelled(cancel_, what);
        if (!e.retryable() || attempt >= policy_.max_retries) throw;
        if (policy_.max_total_backoff_ms > 0 &&
            report_.backoff_ms + backoff > policy_.max_total_backoff_ms) {
          if (!report_.fault_budget_exhausted) {
            report_.fault_budget_exhausted = true;
            report_.push_event(
                std::string(what) + ": run fault budget exhausted (" +
                std::to_string(policy_.max_total_backoff_ms) +
                " ms cumulative backoff) — fault not retried");
          }
          throw;
        }
        report_.retries += 1;
        report_.backoff_ms += backoff;
        obs::MetricsRegistry::global().add(obs::Counter::kRetries, 1);
        {
          auto& rec = obs::TraceRecorder::global();
          if (rec.enabled()) {
            const obs::SpanArg args[] = {
                {"attempt", static_cast<double>(attempt + 1)}};
            rec.instant(obs::SpanKind::kFault, what, args, 1);
          }
        }
        report_.push_event(std::string(what) + " retry " +
                           std::to_string(attempt + 1) + "/" +
                           std::to_string(policy_.max_retries) + " after: " +
                           e.what());
        backoff *= policy_.backoff_multiplier;
      }
    }
  }

  gpusim::Device dev_;
  RetryPolicy policy_;
  const gpusim::CancelToken* cancel_;
  ResilienceReport report_;
};

/// RAII device allocation: frees on scope exit, so a thrown fault mid-level
/// leaves the arena clean for the next rung of the ladder.
class ScopedDeviceAlloc {
 public:
  ScopedDeviceAlloc(FaultAwareDevice& fdev, std::size_t count,
                    std::size_t alignment = alignof(std::uint32_t))
      : fdev_(&fdev), ptr_(fdev.alloc(count, alignment)) {}
  ~ScopedDeviceAlloc() { reset(); }
  ScopedDeviceAlloc(const ScopedDeviceAlloc&) = delete;
  ScopedDeviceAlloc& operator=(const ScopedDeviceAlloc&) = delete;

  [[nodiscard]] gpusim::DevicePtr<std::uint32_t> get() const { return ptr_; }
  void reset() {
    if (fdev_ != nullptr && !ptr_.is_null()) {
      fdev_->free(ptr_);
      ptr_ = {};
    }
  }

 private:
  FaultAwareDevice* fdev_;
  gpusim::DevicePtr<std::uint32_t> ptr_;
};

}  // namespace gpapriori
