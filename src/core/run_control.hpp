#pragma once
// Run lifecycle control (DESIGN.md §11): deadlines, cooperative
// cancellation, a hang watchdog, and level checkpoint/resume.
//
// A mining run moves through a small state machine:
//
//   RUNNING --(deadline | device budget | watchdog | signal)--> CANCELLING
//   CANCELLING --(workers drain, level loop unwinds)--> SALVAGED
//   SALVAGED --(--checkpoint was set)--> RESUMABLE
//
// RunControl owns the gpusim::CancelToken shared by every layer: drivers
// poll it at level boundaries, the executor checks it at chunk-dispatch
// granularity, FaultAwareDevice checks it between retry attempts, and a
// CLI signal handler may trip it directly (token.request() is
// async-signal-safe). Cancellation is always cooperative — nothing is
// killed mid-block — so a cancelled run still returns every fully-counted
// level, marked with MiningOutput::truncated_at_level.
//
// The watchdog is a monitor thread (started by begin_run when a window or
// deadline is configured) that watches the token's progress heartbeat: if
// no chunk or level completes within `watchdog_ms`, or the wall deadline
// expires, it trips the token even while the driver is stuck inside a
// retry loop and never reaches a poll point. The simulated-device-time
// budget, by contrast, is only checkable at poll points (the TimeLedger is
// not concurrently readable), which is fine: device time only advances at
// exactly those points.
//
// Observability events (Counter::kCancellations / kWatchdogTrips /
// kCheckpoint*, SpanKind::kLifecycle) are recorded once per run from a
// normal thread — never from the signal handler — via a deferred
// reported_ latch.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "baselines/apriori_util.hpp"
#include "baselines/miner.hpp"
#include "fim/checkpoint.hpp"
#include "gpusim/cancel.hpp"

namespace gpapriori {

struct RunControlOptions {
  /// Wall-clock budget for one mine() call, in milliseconds. 0 = none.
  double deadline_ms = 0;
  /// Simulated device-time budget (TimeLedger total), in milliseconds.
  /// 0 = none. Checked at driver poll points.
  double device_budget_ms = 0;
  /// Hang watchdog window: cancellation trips if no progress heartbeat
  /// arrives within this many wall milliseconds. 0 = watchdog off.
  double watchdog_ms = 0;
  /// Deterministic cancellation drill for tests: trip the token (cause
  /// kUser) as soon as level `cancel_after_level` completes. 0 = off.
  std::size_t cancel_after_level = 0;
  /// When non-empty, drivers write a fim::MiningCheckpoint here after
  /// every completed level (atomic tmp+rename).
  std::string checkpoint_path;
  /// When non-empty, the level-wise drivers resume from this snapshot
  /// instead of recounting its completed levels (digest-verified,
  /// bit-exact).
  std::string resume_path;
};

/// One run's lifecycle controller. Construct per run (or reuse across runs
/// with reset()); pass via Config::run_control. Thread-compatible: the
/// token is shared freely, everything else is driven by the mining thread.
class RunControl {
 public:
  explicit RunControl(RunControlOptions opts = {});
  ~RunControl();
  RunControl(const RunControl&) = delete;
  RunControl& operator=(const RunControl&) = delete;

  [[nodiscard]] gpusim::CancelToken& token() { return token_; }
  [[nodiscard]] const RunControlOptions& options() const { return opts_; }

  /// Async-signal-safe external cancellation (SIGINT handler, API).
  void request_cancel(gpusim::CancelCause cause = gpusim::CancelCause::kUser) {
    token_.request(cause);
  }

  /// Marks the start of a run: stamps the deadline epoch and starts the
  /// watchdog thread when a watchdog window or deadline is configured.
  /// Returns false (and does nothing) when a run is already active, so a
  /// nested scope — e.g. the CPU rung of the ladder reusing the outer
  /// run's controller — neither restamps the deadline epoch nor tears the
  /// watchdog down on exit.
  bool begin_run();
  /// Stops the watchdog. Idempotent; also run by the destructor.
  void end_run();
  /// Re-arms a finished RunControl for another run (token + latch reset).
  void reset();

  /// Cooperative check point: records an externally-tripped token (e.g.
  /// signal) in obs, then trips on expired wall deadline or exhausted
  /// simulated-device budget. Cheap when nothing fires.
  void poll(double device_ms_used = 0);
  /// Level-boundary hook: heartbeat + the cancel_after_level drill + poll.
  void level_completed(std::size_t level, double device_ms_used = 0);

  [[nodiscard]] bool cancelled() const { return token_.cancelled(); }
  [[nodiscard]] gpusim::CancelCause cause() const { return token_.cause(); }

  /// Wall milliseconds since begin_run().
  [[nodiscard]] double elapsed_ms() const;

  [[nodiscard]] bool want_checkpoint() const {
    return !opts_.checkpoint_path.empty();
  }
  [[nodiscard]] bool want_resume() const { return !opts_.resume_path.empty(); }

  /// Records a written checkpoint in metrics/trace (driver calls after a
  /// successful MiningCheckpoint::write).
  void note_checkpoint(std::size_t level, std::size_t bytes);

 private:
  void report_cancelled();  ///< once-per-run obs recording (normal thread)

  RunControlOptions opts_;
  gpusim::CancelToken token_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<bool> running_{false};
  std::atomic<bool> reported_{false};
  std::jthread watchdog_;
};

/// Driver-side adapter around an optional Config::run_control. Without
/// one the scope is inert (null token, zero overhead). begin_run/end_run
/// bracket the scope's lifetime automatically.
class RunScope {
 public:
  explicit RunScope(RunControl* rc);
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  /// Null when lifecycle control is entirely off for this run.
  [[nodiscard]] RunControl* control() { return rc_; }
  /// Token to hand to ExecutorOptions::cancel / FaultAwareDevice (null
  /// when inactive).
  [[nodiscard]] gpusim::CancelToken* cancel_token() {
    return rc_ != nullptr ? &rc_->token() : nullptr;
  }
  [[nodiscard]] bool active() const { return rc_ != nullptr; }

  void poll(double device_ms_used = 0) {
    if (rc_ != nullptr) rc_->poll(device_ms_used);
  }
  void level_completed(std::size_t level, double device_ms_used = 0) {
    if (rc_ != nullptr) rc_->level_completed(level, device_ms_used);
  }
  /// poll() + throw CancelledError when the token is tripped.
  void check(const char* where, double device_ms_used = 0) {
    if (rc_ == nullptr) return;
    rc_->poll(device_ms_used);
    gpusim::throw_if_cancelled(&rc_->token(), where);
  }

 private:
  RunControl* rc_ = nullptr;
  bool began_ = false;
};

/// Fills the truncation marker on a salvaged output: the run stopped while
/// counting `level`, for `cause`. Also records the lifecycle trace event.
void mark_truncated(miners::MiningOutput& out, std::size_t level,
                    gpusim::CancelCause cause);

}  // namespace gpapriori
