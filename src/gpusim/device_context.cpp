#include "gpusim/device_context.hpp"

#include <sstream>

#include "gpusim/checksum.hpp"

namespace gpusim {

Device::Device(DeviceProperties props, DeviceOptions opts)
    : props_(std::move(props)),
      opts_(opts),
      mem_(std::min(opts.arena_bytes, props_.global_mem_bytes),
           opts.strict_memory),
      injector_(opts.fault_plan) {}

KernelStats Device::launch_async(const Kernel& kernel,
                                 const LaunchConfig& cfg, StreamId stream) {
  obs::ScopedSpan span(obs::SpanKind::kKernel, kernel.name());
  injector_.on_launch(std::string(kernel.name()));
  KernelStats stats = run_kernel(kernel, cfg, mem_, props_, opts_.executor);
  stats.timing = estimate_kernel_time(stats, props_);
  timeline_.schedule_kernel(stream, stats.timing.total_ns);
  ledger_.launches += 1;
  if (span.active()) {
    span.add_arg("blocks", static_cast<double>(cfg.num_blocks()));
    span.add_arg("tpb", static_cast<double>(cfg.threads_per_block()));
    span.add_arg("sim_ns", stats.timing.total_ns);
    span.add_arg("stream", static_cast<double>(stream));
  }
  if (opts_.record_launches) history_.push_back(stats);
  return stats;
}

double Device::synchronize() {
  const double horizon = timeline_.sync();
  const double delta = horizon - last_sync_horizon_;
  last_sync_horizon_ = horizon;
  ledger_.async_ns += delta;
  return delta;
}

KernelStats Device::launch(const Kernel& kernel, const LaunchConfig& cfg) {
  obs::ScopedSpan span(obs::SpanKind::kKernel, kernel.name());
  injector_.on_launch(std::string(kernel.name()));
  KernelStats stats = run_kernel(kernel, cfg, mem_, props_, opts_.executor);
  stats.timing = estimate_kernel_time(stats, props_);
  ledger_.kernel_ns += stats.timing.total_ns;
  ledger_.launches += 1;
  if (span.active()) {
    span.add_arg("blocks", static_cast<double>(cfg.num_blocks()));
    span.add_arg("tpb", static_cast<double>(cfg.threads_per_block()));
    span.add_arg("sim_ns", stats.timing.total_ns);
  }
  if (opts_.record_launches) history_.push_back(stats);
  return stats;
}

std::uint64_t Device::checksum_device_bytes(std::uint64_t addr,
                                            std::size_t n) const {
  return word_checksum(mem_.view<unsigned char>(addr, n).data(), n);
}

std::uint64_t Device::checksum_host_bytes(const void* data, std::size_t n) {
  return word_checksum(data, n);
}

std::string Device::profile_report() const {
  std::ostringstream os;
  os << "=== " << props_.name << " profile: " << history_.size()
     << " launches, " << ledger_.launches << " total ===\n";
  for (const auto& s : history_) os << s.summary() << "\n";
  os << "ledger: kernels " << ledger_.kernel_ns / 1e6 << " ms, h2d "
     << ledger_.h2d_ns / 1e6 << " ms (" << ledger_.h2d_transfers
     << " copies), d2h " << ledger_.d2h_ns / 1e6 << " ms ("
     << ledger_.d2h_transfers << " copies)\n";
  if (injector_.enabled()) {
    const FaultStats& f = injector_.stats();
    os << "faults injected: " << f.total_injected() << " (oom " << f.injected_oom
       << ", transfer " << f.injected_transfer_fail << ", corruption "
       << f.injected_corruption << ", timeout " << f.injected_timeout
       << ", ecc " << f.injected_ecc << ") over " << f.allocs << " allocs / "
       << f.h2d << " h2d / " << f.d2h << " d2h / " << f.launches
       << " launches\n";
  }
  return os.str();
}

}  // namespace gpusim
