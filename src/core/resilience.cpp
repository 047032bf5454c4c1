#include "core/resilience.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

namespace gpapriori {

namespace {
// Event-log cap: enough to read a whole degradation story, small enough
// that a probabilistic fault storm cannot bloat the report.
constexpr std::size_t kMaxEvents = 64;
}  // namespace

const char* to_string(DegradationStep step) {
  switch (step) {
    case DegradationStep::kNone: return "none";
    case DegradationStep::kPartitioned: return "partitioned-streaming";
    case DegradationStep::kCpu: return "cpu-test";
  }
  return "?";
}

void ResilienceReport::push_event(std::string event) {
  if (events.size() == kMaxEvents) {
    events.push_back("... (further events suppressed)");
    return;
  }
  if (events.size() > kMaxEvents) return;
  events.push_back(std::move(event));
}

std::string ResilienceReport::summary() const {
  std::ostringstream os;
  os << "resilience: degraded_to=" << to_string(degraded_to)
     << " retries=" << retries
     << " corruption_detected=" << corruption_detected
     << " retransfers=" << retransfers
     << " fault_budget_exhausted=" << (fault_budget_exhausted ? "yes" : "no")
     << " backoff_ms=" << backoff_ms
     << " time_lost_ms=" << time_lost_ms << " faults_injected(oom="
     << device_faults.injected_oom
     << ", transfer=" << device_faults.injected_transfer_fail
     << ", corrupt=" << device_faults.injected_corruption
     << ", timeout=" << device_faults.injected_timeout
     << ", ecc=" << device_faults.injected_ecc << ")";
  for (const auto& e : events) os << "\n  - " << e;
  return os.str();
}

const char* to_string(CircuitBreaker::State s) {
  switch (s) {
    case CircuitBreaker::State::kClosed: return "closed";
    case CircuitBreaker::State::kOpen: return "open";
    case CircuitBreaker::State::kHalfOpen: return "half-open";
  }
  return "?";
}

CircuitBreaker::CircuitBreaker() : CircuitBreaker(Options{}) {}

CircuitBreaker::CircuitBreaker(Options opts) : opts_(opts) {
  opts_.window = std::clamp<std::size_t>(opts_.window, 1, 1024);
  opts_.min_samples = std::clamp<std::size_t>(opts_.min_samples, 1,
                                              opts_.window);
  opts_.failure_threshold = std::clamp(opts_.failure_threshold, 0.0, 1.0);
  ring_.assign(opts_.window, 0);
}

double CircuitBreaker::now_ms() const {
  if (opts_.clock_ms != nullptr) return opts_.clock_ms();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CircuitBreaker::push_outcome_locked(bool ok) {
  if (ring_count_ == opts_.window)
    ring_failures_ -= ring_[ring_pos_];
  else
    ++ring_count_;
  ring_[ring_pos_] = ok ? 0 : 1;
  ring_failures_ += ring_[ring_pos_];
  ring_pos_ = (ring_pos_ + 1) % opts_.window;
}

void CircuitBreaker::trip_locked() {
  state_ = State::kOpen;
  opened_at_ms_ = now_ms();
  probe_inflight_ = false;
  ++counters_.trips;
  // The window restarts from scratch: outcomes that tripped the breaker
  // must not re-trip it the moment the half-open probe closes it again.
  std::fill(ring_.begin(), ring_.end(), std::uint8_t{0});
  ring_pos_ = ring_count_ = ring_failures_ = 0;
}

bool CircuitBreaker::allow() {
  std::lock_guard lk(m_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now_ms() - opened_at_ms_ < opts_.open_cooldown_ms) {
        ++counters_.short_circuited;
        return false;
      }
      state_ = State::kHalfOpen;
      [[fallthrough]];
    case State::kHalfOpen:
      if (probe_inflight_) {
        ++counters_.short_circuited;
        return false;
      }
      probe_inflight_ = true;
      ++counters_.probes;
      return true;
  }
  return true;
}

void CircuitBreaker::record_success() {
  std::lock_guard lk(m_);
  ++counters_.successes;
  if (state_ == State::kHalfOpen) {
    state_ = State::kClosed;
    probe_inflight_ = false;
    return;  // window is already clean (cleared at trip time)
  }
  if (state_ == State::kClosed) push_outcome_locked(true);
  // kOpen: a request admitted before the trip finishing late carries no
  // new information — the breaker already knows the tier is unhealthy.
}

void CircuitBreaker::record_failure() {
  std::lock_guard lk(m_);
  ++counters_.failures;
  if (state_ == State::kHalfOpen) {
    trip_locked();  // probe failed: back to open, cooldown restarts
    return;
  }
  if (state_ != State::kClosed) return;
  push_outcome_locked(false);
  if (ring_count_ >= opts_.min_samples &&
      static_cast<double>(ring_failures_) >=
          opts_.failure_threshold * static_cast<double>(ring_count_))
    trip_locked();
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard lk(m_);
  return state_;
}

CircuitBreaker::Snapshot CircuitBreaker::snapshot() const {
  std::lock_guard lk(m_);
  Snapshot s = counters_;
  s.state = state_;
  return s;
}

void CircuitBreaker::reset() {
  std::lock_guard lk(m_);
  state_ = State::kClosed;
  probe_inflight_ = false;
  std::fill(ring_.begin(), ring_.end(), std::uint8_t{0});
  ring_pos_ = ring_count_ = ring_failures_ = 0;
}

void FaultAwareDevice::upload(gpusim::DevicePtr<std::uint32_t> dst,
                              std::span<const std::uint32_t> src) {
  with_retry("h2d copy", [&] { dev_.copy_to_device(dst, src); });
}

void FaultAwareDevice::download_verified(std::span<std::uint32_t> dst,
                                         gpusim::DevicePtr<std::uint32_t> src) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    with_retry("d2h copy", [&] { dev_.copy_to_host(dst, src); });
    std::uint64_t expect = 0, got = 0;
    {
      obs::ScopedSpan span(obs::SpanKind::kOther, "d2h-verify");
      expect = dev_.checksum(src, dst.size());
      got = gpusim::Device::checksum_host_bytes(dst.data(), dst.size_bytes());
    }
    if (expect == got) return;
    report_.corruption_detected += 1;
    obs::MetricsRegistry::global().add(obs::Counter::kCorruptionDetected, 1);
    if (attempt >= policy_.max_retries)
      throw gpusim::TransferError(
          "D2H corruption persisted through " +
              std::to_string(policy_.max_retries) + " re-transfers",
          /*transient=*/false);
    report_.retransfers += 1;
    obs::MetricsRegistry::global().add(obs::Counter::kRetransfers, 1);
    obs::TraceRecorder::global().instant(obs::SpanKind::kFault,
                                         "d2h-checksum-mismatch");
    report_.push_event("d2h checksum mismatch (" + std::to_string(dst.size()) +
                       " words); re-transferring");
  }
}

gpusim::KernelStats FaultAwareDevice::launch(const gpusim::Kernel& kernel,
                                             const gpusim::LaunchConfig& cfg) {
  return with_retry("kernel launch", [&] { return dev_.launch(kernel, cfg); });
}

}  // namespace gpapriori
