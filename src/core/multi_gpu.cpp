#include "core/multi_gpu.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/level_loop.hpp"

namespace gpapriori {
namespace {

/// Shards each level's candidates contiguously across the devices; the
/// level costs the slowest device.
class MultiGpuCounter final : public SupportCounter {
 public:
  MultiGpuCounter(const Config& cfg, RunScope& scope, int num_devices,
                  std::vector<MultiGpuLevelReport>& reports)
      : cfg_(cfg),
        scope_(scope),
        num_devices_(static_cast<std::size_t>(num_devices)),
        reports_(reports) {}

  /// One simulated T10 per slot, each behind its own FaultAwareDevice; the
  /// static bitsets are replicated. The replication copies happen once and
  /// concurrently (one PCIe link per device on the S1070 host), so setup
  /// costs one transfer, not N.
  void attach(std::span<const fim::BitsetStore> slices) override {
    {
      obs::ScopedSpan span(obs::SpanKind::kOther, "device-init");
      const gpusim::DeviceOptions dopts = make_device_options(cfg_, scope_);
      for (std::size_t d = 0; d < num_devices_; ++d)
        devices_.push_back(std::make_unique<FaultAwareDevice>(
            cfg_.device, dopts, cfg_.retry));
    }
    for (auto& fdev : devices_) {
      d_bitsets_.push_back(upload_store(*fdev, slices[0]));
      setup_ns_ = std::max(setup_ns_, fdev->device().ledger().total_ns());
      fdev->device().reset_ledger();
    }
    device_ms_ = setup_ns_ / 1e6;
  }

  double count(const LevelCandidates& lv,
               std::span<fim::Support> supports) override;

  [[nodiscard]] double device_ms() const override { return device_ms_; }
  void annotate(obs::ScopedSpan& span) const override {
    span.add_arg("devices", static_cast<double>(num_devices_));
  }

 private:
  const Config& cfg_;
  RunScope& scope_;
  std::size_t num_devices_;
  std::vector<MultiGpuLevelReport>& reports_;
  std::vector<std::unique_ptr<FaultAwareDevice>> devices_;
  std::vector<gpusim::DevicePtr<std::uint32_t>> d_bitsets_;
  double setup_ns_ = 0;
  double device_ms_ = 0;
};

double MultiGpuCounter::count(const LevelCandidates& lv,
                              std::span<fim::Support> supports) {
  const fim::BitsetStore& store = lv.slices[0];
  const std::size_t ncand = lv.count;
  const std::size_t k = lv.k;
  MultiGpuLevelReport report;
  report.level = k;
  report.candidates = ncand;

  const std::size_t per_dev = (ncand + num_devices_ - 1) / num_devices_;
  for (std::size_t d = 0; d < num_devices_; ++d) {
    const std::size_t lo = d * per_dev;
    if (lo >= ncand) {
      report.per_device_ms.push_back(0);
      continue;
    }
    const std::size_t slice = std::min(ncand, lo + per_dev) - lo;
    report.per_device_ms.push_back(count_complete(
        *devices_[d], cfg_, store, d_bitsets_[d],
        lv.paths.subspan(lo * k, slice * k), k, supports.subspan(lo, slice)));
  }
  report.level_ms = *std::max_element(report.per_device_ms.begin(),
                                      report.per_device_ms.end());
  reports_.push_back(report);
  device_ms_ += report.level_ms;
  return report.level_ms;
}

}  // namespace

MultiGpuApriori::MultiGpuApriori(Config cfg, int num_devices)
    : cfg_(cfg),
      num_devices_(num_devices),
      name_("GPApriori x" + std::to_string(num_devices)) {
  validate_config(cfg_, "MultiGpuApriori");
  if (num_devices < 1 || num_devices > 16)
    throw std::invalid_argument("MultiGpuApriori: 1..16 devices");
}

miners::MiningOutput MultiGpuApriori::mine(const fim::TransactionDb& db,
                                           const miners::MiningParams& params) {
  reports_.clear();
  LevelLoop loop(cfg_, db, params, "multi-gpu-level");
  if (loop.num_items() == 0) return loop.level1();
  MultiGpuCounter counter(cfg_, loop.scope(), num_devices_, reports_);
  return loop.run(counter);
}

}  // namespace gpapriori
