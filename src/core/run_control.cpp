#include "core/run_control.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "obs/obs.hpp"

namespace gpapriori {
namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

RunControl::RunControl(RunControlOptions opts)
    : opts_(std::move(opts)), start_(std::chrono::steady_clock::now()) {}

RunControl::~RunControl() { end_run(); }

double RunControl::elapsed_ms() const {
  return ms_between(start_, std::chrono::steady_clock::now());
}

bool RunControl::begin_run() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return false;
  start_ = std::chrono::steady_clock::now();
  if (opts_.watchdog_ms <= 0 && opts_.deadline_ms <= 0) return true;

  // Monitor thread: wakes every few milliseconds, trips the token on a
  // stalled heartbeat or an expired wall deadline, then exits. It is the
  // only way a deadline fires while the mining thread is wedged inside a
  // retry loop that never reaches a poll point.
  watchdog_ = std::jthread([this](std::stop_token st) {
    double tick_ms = 5;
    if (opts_.watchdog_ms > 0) tick_ms = std::min(tick_ms, opts_.watchdog_ms / 4);
    if (tick_ms < 0.5) tick_ms = 0.5;
    const auto tick = std::chrono::duration<double, std::milli>(tick_ms);

    std::mutex m;
    std::condition_variable_any cv;
    std::uint64_t last_progress = token_.progress();
    auto last_change = std::chrono::steady_clock::now();

    std::unique_lock lk(m);
    while (!st.stop_requested()) {
      cv.wait_for(lk, st, tick, [] { return false; });
      if (st.stop_requested()) return;
      if (token_.cancelled()) {
        report_cancelled();
        return;
      }
      const auto now = std::chrono::steady_clock::now();
      if (opts_.deadline_ms > 0 &&
          ms_between(start_, now) > opts_.deadline_ms) {
        if (token_.request(gpusim::CancelCause::kDeadline)) report_cancelled();
        return;
      }
      const std::uint64_t p = token_.progress();
      if (p != last_progress) {
        last_progress = p;
        last_change = now;
      } else if (opts_.watchdog_ms > 0 &&
                 ms_between(last_change, now) > opts_.watchdog_ms) {
        if (token_.request(gpusim::CancelCause::kWatchdog)) report_cancelled();
        return;
      }
    }
  });
  return true;
}

void RunControl::end_run() {
  running_.store(false, std::memory_order_release);
  if (watchdog_.joinable()) {
    watchdog_.request_stop();
    watchdog_.join();
  }
}

void RunControl::reset() {
  end_run();
  token_.reset();
  reported_.store(false, std::memory_order_relaxed);
  start_ = std::chrono::steady_clock::now();
}

void RunControl::poll(double device_ms_used) {
  if (token_.cancelled()) {
    report_cancelled();
    return;
  }
  if (opts_.deadline_ms > 0 && elapsed_ms() > opts_.deadline_ms) {
    if (token_.request(gpusim::CancelCause::kDeadline)) report_cancelled();
    return;
  }
  if (opts_.device_budget_ms > 0 && device_ms_used > opts_.device_budget_ms) {
    if (token_.request(gpusim::CancelCause::kDeviceBudget)) report_cancelled();
  }
}

void RunControl::level_completed(std::size_t level, double device_ms_used) {
  token_.heartbeat();
  if (opts_.cancel_after_level != 0 && level >= opts_.cancel_after_level)
    token_.request(gpusim::CancelCause::kUser);
  poll(device_ms_used);
}

void RunControl::note_checkpoint(std::size_t level, std::size_t bytes) {
  auto& metrics = obs::MetricsRegistry::global();
  metrics.add(obs::Counter::kCheckpointsWritten, 1);
  metrics.add(obs::Counter::kCheckpointBytes, bytes);
  auto& rec = obs::TraceRecorder::global();
  if (rec.enabled()) {
    const obs::SpanArg args[] = {{"level", static_cast<double>(level)},
                                 {"bytes", static_cast<double>(bytes)}};
    rec.instant(obs::SpanKind::kLifecycle, "checkpoint", args, 2);
  }
}

void RunControl::report_cancelled() {
  if (reported_.exchange(true, std::memory_order_acq_rel)) return;
  const gpusim::CancelCause c = token_.cause();
  auto& metrics = obs::MetricsRegistry::global();
  metrics.add(obs::Counter::kCancellations, 1);
  if (c == gpusim::CancelCause::kWatchdog)
    metrics.add(obs::Counter::kWatchdogTrips, 1);
  auto& rec = obs::TraceRecorder::global();
  if (rec.enabled())
    rec.instant(obs::SpanKind::kLifecycle,
                std::string("cancel:") + gpusim::to_string(c));
}

RunScope::RunScope(RunControl* rc) : rc_(rc) {
  if (rc_ != nullptr) began_ = rc_->begin_run();
}

RunScope::~RunScope() {
  if (began_) rc_->end_run();
}

void mark_truncated(miners::MiningOutput& out, std::size_t level,
                    gpusim::CancelCause cause) {
  out.truncated_at_level = level;
  out.stop_reason = gpusim::to_string(cause);
  auto& rec = obs::TraceRecorder::global();
  if (rec.enabled()) {
    const obs::SpanArg args[] = {{"level", static_cast<double>(level)}};
    rec.instant(obs::SpanKind::kLifecycle,
                std::string("salvaged:") + gpusim::to_string(cause), args, 1);
  }
}

}  // namespace gpapriori
