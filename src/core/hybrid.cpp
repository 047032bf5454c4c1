#include "core/hybrid.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/level_loop.hpp"

namespace gpapriori {
namespace {

/// Splits each level's candidates between the device (a prefix, counted by
/// SupportKernel) and the host (the rest, complete intersection over the
/// same store). Both shares run concurrently, so a level costs the slower
/// side — recorded as the level's device_ms.
class HybridCounter final : public SupportCounter {
 public:
  HybridCounter(FaultAwareDevice& fdev, const Config& cfg, RunScope& scope,
                double gpu_fraction, std::vector<HybridLevelReport>& reports)
      : fdev_(fdev),
        cfg_(cfg),
        scope_(scope),
        gpu_fraction_(std::clamp(gpu_fraction, 0.0, 1.0)),
        reports_(reports) {}

  void attach(std::span<const fim::BitsetStore> slices) override {
    d_bitsets_ = upload_store(fdev_, slices[0]);
  }

  double count(const LevelCandidates& lv,
               std::span<fim::Support> supports) override;

  [[nodiscard]] double device_ms() const override { return counted_ms_; }
  void annotate(obs::ScopedSpan& span) const override {
    span.add_arg("gpu_fraction", reports_.back().gpu_fraction);
  }

 private:
  FaultAwareDevice& fdev_;
  const Config& cfg_;
  RunScope& scope_;
  double gpu_fraction_;
  std::vector<HybridLevelReport>& reports_;
  gpusim::DevicePtr<std::uint32_t> d_bitsets_;
  // Observed per-candidate costs (ms), updated every level.
  double cpu_ms_per_cand_ = 0, gpu_ms_per_cand_ = 0;
  double counted_ms_ = 0;
};

double HybridCounter::count(const LevelCandidates& lv,
                            std::span<fim::Support> supports) {
  const fim::BitsetStore& store = lv.slices[0];
  const std::size_t ncand = lv.count;
  const std::size_t k = lv.k;

  // Balance: choose f so f*g == (1-f)*c given per-candidate costs g, c.
  if (cpu_ms_per_cand_ > 0 && gpu_ms_per_cand_ > 0)
    gpu_fraction_ = cpu_ms_per_cand_ / (cpu_ms_per_cand_ + gpu_ms_per_cand_);
  const std::size_t gpu_cands =
      std::min(ncand, static_cast<std::size_t>(
                          static_cast<double>(ncand) * gpu_fraction_ + 0.5));
  const std::size_t cpu_cands = ncand - gpu_cands;

  // --- device share: candidates [0, gpu_cands) ---
  double gpu_ms = 0;
  if (gpu_cands > 0)
    gpu_ms = count_complete(fdev_, cfg_, store, d_bitsets_,
                            lv.paths.first(gpu_cands * k), k,
                            supports.first(gpu_cands));

  // --- host share: candidates [gpu_cands, ncand), measured ---
  double cpu_ms = 0;
  if (cpu_cands > 0) {
    const miners::StopWatch cpu_watch;
    for (std::size_t c = gpu_cands; c < ncand; ++c) {
      // The host share can be the level's long pole; honour cancellation
      // at the same granularity as the device's chunk dispatch.
      if ((c & 0x3ff) == 0)
        scope_.check("hybrid-cpu-share", fdev_.device_ms());
      supports[c] = store.and_popcount(lv.paths.subspan(c * k, k));
    }
    cpu_ms = cpu_watch.elapsed_ms();
  }

  // Throughput feedback for the next level's split.
  if (gpu_cands > 0) gpu_ms_per_cand_ = gpu_ms / static_cast<double>(gpu_cands);
  if (cpu_cands > 0) cpu_ms_per_cand_ = cpu_ms / static_cast<double>(cpu_cands);

  const double counted = std::max(cpu_ms, gpu_ms);
  counted_ms_ += counted;
  reports_.push_back(
      {k, ncand, static_cast<double>(gpu_cands) / static_cast<double>(ncand),
       cpu_ms, gpu_ms});
  return counted;
}

}  // namespace

HybridApriori::HybridApriori(Config cfg, double initial_gpu_fraction)
    : cfg_(cfg), initial_gpu_fraction_(initial_gpu_fraction) {
  validate_config(cfg_, "HybridApriori");
  if (initial_gpu_fraction_ < 0.0 || initial_gpu_fraction_ > 1.0)
    throw std::invalid_argument(
        "HybridApriori: initial_gpu_fraction must be in [0, 1]");
}

miners::MiningOutput HybridApriori::mine(const fim::TransactionDb& db,
                                         const miners::MiningParams& params) {
  reports_.clear();
  LevelLoop loop(cfg_, db, params, "hybrid-level");
  if (loop.num_items() == 0) return loop.level1();
  FaultAwareDevice fdev = make_device(cfg_, loop.scope());
  HybridCounter counter(fdev, cfg_, loop.scope(), initial_gpu_fraction_,
                        reports_);
  return loop.run(counter);
}

}  // namespace gpapriori
