#pragma once
// Device: the user-facing simulator handle.
//
// Owns the device description, the global-memory arena, and a time ledger.
// All host<->device traffic and kernel launches go through this object so
// that the simulated wall-clock of a whole application phase (e.g. one
// Apriori level) can be read off afterwards — the simulator's equivalent of
// bracketing CUDA calls with events.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/stats.hpp"
#include "gpusim/stream.hpp"
#include "gpusim/timing.hpp"
#include "obs/obs.hpp"

namespace gpusim {

/// Accumulated simulated time, in nanoseconds.
struct TimeLedger {
  double h2d_ns = 0;
  double d2h_ns = 0;
  double kernel_ns = 0;
  /// Elapsed time of stream-based (overlapped) work, charged at
  /// synchronize(); the synchronous columns above are not double-counted.
  double async_ns = 0;
  std::uint64_t h2d_transfers = 0;
  std::uint64_t d2h_transfers = 0;
  std::uint64_t launches = 0;

  [[nodiscard]] double total_ns() const {
    return h2d_ns + d2h_ns + kernel_ns + async_ns;
  }
  void reset() { *this = TimeLedger{}; }
};

struct DeviceOptions {
  /// Size of the simulated DRAM arena actually backed by host memory.
  /// Defaults well below the T10's 4 GiB so simulations stay laptop-sized;
  /// allocation failures still behave like real cudaMalloc exhaustion.
  std::size_t arena_bytes = 256ull << 20;
  bool strict_memory = false;
  ExecutorOptions executor;
  /// Keep per-launch KernelStats for profiling reports.
  bool record_launches = true;
  /// Deterministic fault injection applied to alloc/copy/launch (see
  /// gpusim/fault.hpp). Default: no faults.
  FaultPlan fault_plan;
};

class Device {
 public:
  explicit Device(DeviceProperties props = DeviceProperties::tesla_t10(),
                  DeviceOptions opts = {});

  [[nodiscard]] const DeviceProperties& properties() const { return props_; }
  [[nodiscard]] GlobalMemory& memory() { return mem_; }
  [[nodiscard]] const GlobalMemory& memory() const { return mem_; }

  template <typename T>
  DevicePtr<T> alloc(std::size_t count, std::size_t alignment = alignof(T)) {
    injector_.on_alloc(count * sizeof(T));
    auto p = mem_.alloc<T>(count, alignment);
    obs::MetricsRegistry::global().add(obs::Counter::kDeviceAllocs, 1);
    return p;
  }
  template <typename T>
  void free(DevicePtr<T> p) {
    mem_.free(p);
  }

  /// Synchronous host->device copy; charges PCIe time to the ledger.
  /// May throw a (transient) TransferError under fault injection; the
  /// destination is untouched in that case.
  template <typename T>
  void copy_to_device(DevicePtr<T> dst, std::span<const T> src) {
    obs::ScopedSpan span(obs::SpanKind::kH2D, "h2d");
    injector_.on_h2d(src.size_bytes());
    mem_.write_bytes(dst.addr, src.data(), src.size_bytes());
    const double sim_ns = estimate_transfer_ns(src.size_bytes(), props_);
    ledger_.h2d_ns += sim_ns;
    ledger_.h2d_transfers += 1;
    record_transfer_obs(span, obs::Counter::kH2DTransfers,
                        obs::Counter::kH2DBytes, src.size_bytes(), sim_ns);
  }

  /// Synchronous device->host copy; charges PCIe time to the ledger.
  /// Under fault injection the transfer may throw a transient
  /// TransferError, or complete with a bit of `dst` silently flipped —
  /// detectable against checksum() of the source range.
  template <typename T>
  void copy_to_host(std::span<T> dst, DevicePtr<T> src) {
    obs::ScopedSpan span(obs::SpanKind::kD2H, "d2h");
    injector_.on_d2h(dst.size_bytes());
    mem_.read_bytes(src.addr, dst.data(), dst.size_bytes());
    injector_.corrupt_d2h(dst.data(), dst.size_bytes());
    const double sim_ns = estimate_transfer_ns(dst.size_bytes(), props_);
    ledger_.d2h_ns += sim_ns;
    ledger_.d2h_transfers += 1;
    record_transfer_obs(span, obs::Counter::kD2HTransfers,
                        obs::Counter::kD2HBytes, dst.size_bytes(), sim_ns);
  }

  /// word_checksum() of a device range, computed device-side (exempt from
  /// transfer fault injection — the real system would run a tiny reduction
  /// kernel). Lets callers verify a D2H copy arrived intact.
  template <typename T>
  [[nodiscard]] std::uint64_t checksum(DevicePtr<T> p,
                                       std::size_t count) const {
    return checksum_device_bytes(p.addr, count * sizeof(T));
  }
  /// The same checksum over host bytes, for the comparison side.
  [[nodiscard]] static std::uint64_t checksum_host_bytes(const void* data,
                                                         std::size_t n);

  /// Runs a kernel, applies the timing model, updates the ledger, and
  /// returns the full launch statistics.
  KernelStats launch(const Kernel& kernel, const LaunchConfig& cfg);

  /// Charges device-to-device DRAM traffic (e.g. a cudaMemcpyDeviceToDevice
  /// gather) against the kernel-time ledger: read + write at peak bandwidth.
  void charge_device_traffic(std::size_t bytes) {
    ledger_.kernel_ns +=
        2.0 * static_cast<double>(bytes) / props_.mem_bandwidth_gbps;
  }

  // --- asynchronous API: streams with GT200 copy/compute overlap ---
  // Functional effects happen immediately (the simulator is sequential);
  // the TIMING is scheduled on the stream timeline and charged to the
  // ledger at synchronize(). Issue order must respect data dependencies,
  // exactly as a correct CUDA program's would.

  template <typename T>
  void copy_to_device_async(DevicePtr<T> dst, std::span<const T> src,
                            StreamId stream) {
    obs::ScopedSpan span(obs::SpanKind::kH2D, "h2d-async");
    injector_.on_h2d(src.size_bytes());
    mem_.write_bytes(dst.addr, src.data(), src.size_bytes());
    const double sim_ns = estimate_transfer_ns(src.size_bytes(), props_);
    timeline_.schedule_copy(stream, sim_ns);
    ledger_.h2d_transfers += 1;
    record_transfer_obs(span, obs::Counter::kH2DTransfers,
                        obs::Counter::kH2DBytes, src.size_bytes(), sim_ns,
                        stream);
  }

  template <typename T>
  void copy_to_host_async(std::span<T> dst, DevicePtr<T> src,
                          StreamId stream) {
    obs::ScopedSpan span(obs::SpanKind::kD2H, "d2h-async");
    injector_.on_d2h(dst.size_bytes());
    mem_.read_bytes(src.addr, dst.data(), dst.size_bytes());
    injector_.corrupt_d2h(dst.data(), dst.size_bytes());
    const double sim_ns = estimate_transfer_ns(dst.size_bytes(), props_);
    timeline_.schedule_copy(stream, sim_ns);
    ledger_.d2h_transfers += 1;
    record_transfer_obs(span, obs::Counter::kD2HTransfers,
                        obs::Counter::kD2HBytes, dst.size_bytes(), sim_ns,
                        stream);
  }

  /// Executes the kernel now, schedules its modeled duration on `stream`.
  KernelStats launch_async(const Kernel& kernel, const LaunchConfig& cfg,
                           StreamId stream);

  /// Completes all outstanding async work; returns the overlapped elapsed
  /// time since the previous synchronize(), which is also what gets added
  /// to the ledger's async_ns.
  double synchronize();

  [[nodiscard]] Timeline& timeline() { return timeline_; }

  [[nodiscard]] const TimeLedger& ledger() const { return ledger_; }
  void reset_ledger() { ledger_.reset(); }

  [[nodiscard]] const std::vector<KernelStats>& launch_history() const {
    return history_;
  }
  void clear_launch_history() { history_.clear(); }

  /// nvprof-style textual profile of every recorded launch.
  [[nodiscard]] std::string profile_report() const;

  /// Operation/fault counters of the active fault plan (all zero faults
  /// when no plan was configured).
  [[nodiscard]] const FaultStats& fault_stats() const {
    return injector_.stats();
  }
  [[nodiscard]] bool fault_injection_enabled() const {
    return injector_.enabled();
  }

 private:
  /// Observability tail shared by the four copy paths: attach bytes/sim_ns
  /// to the (already-open) transfer span and bump the transfer counters.
  /// Near-no-op when tracing and metrics are both disabled.
  static void record_transfer_obs(obs::ScopedSpan& span,
                                  obs::Counter transfers, obs::Counter bytes,
                                  std::size_t nbytes, double sim_ns,
                                  StreamId stream = ~StreamId{0}) {
    if (span.active()) {
      span.add_arg("bytes", static_cast<double>(nbytes));
      span.add_arg("sim_ns", sim_ns);
      if (stream != ~StreamId{0})
        span.add_arg("stream", static_cast<double>(stream));
    }
    auto& metrics = obs::MetricsRegistry::global();
    if (metrics.enabled()) {
      metrics.add(transfers, 1);
      metrics.add(bytes, nbytes);
    }
  }

  [[nodiscard]] std::uint64_t checksum_device_bytes(std::uint64_t addr,
                                                    std::size_t n) const;

  DeviceProperties props_;
  DeviceOptions opts_;
  GlobalMemory mem_;
  FaultInjector injector_;
  TimeLedger ledger_;
  std::vector<KernelStats> history_;
  Timeline timeline_{8};
  double last_sync_horizon_ = 0;
};

}  // namespace gpusim
