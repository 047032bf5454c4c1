#include "core/resilience.hpp"

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

void FaultAwareDevice::upload(gpusim::DevicePtr<std::uint32_t> dst,
                              std::span<const std::uint32_t> src,
                              gpusim::StreamId stream) {
  with_retry("h2d copy", [&] {
    if (stream == kSync) return dev_.copy_to_device(dst, src);
    dev_.copy_to_device_async(dst, src, stream);
  });
}

void FaultAwareDevice::download_verified(std::span<std::uint32_t> dst,
                                         gpusim::DevicePtr<std::uint32_t> src,
                                         gpusim::StreamId stream) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    // An async copy lands at once too; only its timing is deferred.
    with_retry("d2h copy", [&] {
      if (stream == kSync) return dev_.copy_to_host(dst, src);
      dev_.copy_to_host_async(dst, src, stream);
    });
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
                                             const gpusim::LaunchConfig& cfg,
                                             gpusim::StreamId stream) {
  return with_retry("kernel launch", [&] {
    return stream == kSync ? dev_.launch(kernel, cfg)
                           : dev_.launch_async(kernel, cfg, stream);
  });
}

}  // namespace gpapriori
