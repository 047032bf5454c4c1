#include "core/pipelined.hpp"

#include <optional>
#include <stdexcept>

#include "core/level_loop.hpp"
#include "core/support_kernel.hpp"
#include "core/tiled_support_kernel.hpp"

namespace gpapriori {
namespace {

/// Counts each level as a double-buffered chunk pipeline: chunk c on stream
/// c % 2. All the device buffers live for the whole level; the pipeline
/// only reorders WHEN transfers/kernels run, not what they touch. The tiled
/// path chunks over sibling GROUPS (each group's supports are a contiguous
/// candidate range, so downloads stay contiguous).
class PipelinedCounter final : public SupportCounter {
 public:
  PipelinedCounter(FaultAwareDevice& fdev, const Config& cfg,
                   std::uint32_t chunks)
      : fdev_(fdev), cfg_(cfg), chunks_(chunks) {}

  [[nodiscard]] bool grouped() const override { return cfg_.tiled; }

  void attach(std::span<const fim::BitsetStore> slices) override {
    d_bitsets_ = upload_store(fdev_, slices[0]);
  }

  double count(const LevelCandidates& lv,
               std::span<fim::Support> supports) override;

  [[nodiscard]] double device_ms() const override {
    return fdev_.device_ms();
  }
  void annotate(obs::ScopedSpan& span) const override {
    span.add_arg("chunks", static_cast<double>(num_chunks_));
  }

 private:
  FaultAwareDevice& fdev_;
  const Config& cfg_;
  std::uint32_t chunks_;
  std::size_t num_chunks_ = 0;
  gpusim::DevicePtr<std::uint32_t> d_bitsets_;
};

double PipelinedCounter::count(const LevelCandidates& lv,
                               std::span<fim::Support> supports) {
  const double dev_before = fdev_.device().ledger().total_ns();
  const fim::BitsetStore& store = lv.slices[0];
  const CandidateTrie::GroupedLevel& grouped = lv.grouped;
  const auto offsets = grouped.group_offsets();
  const std::size_t k = lv.k;
  const std::size_t num_units = cfg_.tiled ? grouped.groups : lv.count;
  const std::size_t chunk_units = (num_units + chunks_ - 1) / chunks_;
  num_chunks_ = (num_units + chunk_units - 1) / chunk_units;
  ScopedDeviceAlloc d_sup(fdev_, lv.count);

  std::optional<ScopedDeviceAlloc> d_prefix, d_sib, d_off, d_cand;
  const std::size_t p = k - 1;
  if (cfg_.tiled) {
    d_prefix.emplace(fdev_, grouped.prefix_rows().size());
    d_sib.emplace(fdev_, grouped.sibling_rows().size());
    d_off.emplace(fdev_, offsets.size());
    // The offsets table is tiny and every chunk's kernels read it, so it
    // goes up front on the synchronous queue.
    fdev_.upload(d_off->get(), offsets);
  } else {
    d_cand.emplace(fdev_, lv.paths.size());
  }

  auto chunk_bounds = [&](std::size_t c) {
    const std::size_t lo = c * chunk_units;
    return std::pair{lo, std::min(num_units, lo + chunk_units)};
  };
  auto stream_of = [](std::size_t c) {
    return static_cast<gpusim::StreamId>(c % 2);
  };
  // Candidate range [clo, chi) of a chunk: the contiguous run the chunk's
  // kernels write and its download pulls back.
  auto cand_bounds = [&](std::size_t lo, std::size_t hi) {
    using Range = std::pair<std::size_t, std::size_t>;
    return cfg_.tiled ? Range{offsets[lo], offsets[hi]} : Range{lo, hi};
  };
  // Issue order matters on the single DMA engine: chunk c+1's UPLOAD must
  // be issued before chunk c's kernel/download or it queues behind that
  // download and the overlap is lost (the classic CUDA 2.x pipeline
  // pitfall — see Timeline tests).
  auto upload_chunk = [&](std::size_t c) {
    const auto [lo, hi] = chunk_bounds(c);
    if (cfg_.tiled) {
      const auto [clo, chi] = cand_bounds(lo, hi);
      fdev_.upload(d_prefix->get() + lo * p,
                   grouped.prefix_rows().subspan(lo * p, (hi - lo) * p),
                   stream_of(c));
      fdev_.upload(d_sib->get() + clo,
                   grouped.sibling_rows().subspan(clo, chi - clo),
                   stream_of(c));
    } else {
      fdev_.upload(d_cand->get() + lo * k,
                   lv.paths.subspan(lo * k, (hi - lo) * k), stream_of(c));
    }
  };

  const auto stride = static_cast<std::uint32_t>(store.row_stride_words());
  const auto words = static_cast<std::uint32_t>(store.words_per_row());
  const gpusim::Dim3 block{cfg_.resolve_block_size(words)};
  upload_chunk(0);
  for (std::size_t c = 0; c < num_chunks_; ++c) {
    if (c + 1 < num_chunks_) upload_chunk(c + 1);
    const auto [lo, hi] = chunk_bounds(c);
    launch_batched(hi - lo, [&](std::uint32_t first, gpusim::Dim3 grid) {
      if (cfg_.tiled) {
        TiledSupportKernel::Args args;
        args.bitsets = d_bitsets_;
        args.stride_words = stride;
        args.words_per_row = words;
        args.prefix_rows = d_prefix->get();
        args.sibling_rows = d_sib->get();
        args.group_offsets = d_off->get();
        args.k = static_cast<std::uint32_t>(k);
        args.first_group = static_cast<std::uint32_t>(lo) + first;
        args.max_group_size = grouped.max_group_size();
        args.supports = d_sup.get();
        fdev_.launch(TiledSupportKernel(args, cfg_.unroll), {grid, block},
                     stream_of(c));
      } else {
        SupportKernel::Args args;
        args.bitsets = d_bitsets_;
        args.stride_words = stride;
        args.words_per_row = words;
        args.candidates = d_cand->get();
        args.k = static_cast<std::uint32_t>(k);
        args.supports = d_sup.get();
        args.first_candidate = static_cast<std::uint32_t>(lo) + first;
        fdev_.launch(SupportKernel(args, cfg_.candidate_preload, cfg_.unroll),
                     {grid, block}, stream_of(c));
      }
    });
    const auto [clo, chi] = cand_bounds(lo, hi);
    fdev_.download_verified(supports.subspan(clo, chi - clo),
                            d_sup.get() + clo, stream_of(c));
  }
  fdev_.device().synchronize();
  return (fdev_.device().ledger().total_ns() - dev_before) / 1e6;
}

}  // namespace

PipelinedGpApriori::PipelinedGpApriori(Config cfg,
                                       std::uint32_t chunks_per_level)
    : cfg_(cfg), chunks_(chunks_per_level) {
  validate_config(cfg_, "PipelinedGpApriori");
  if (chunks_ == 0 || chunks_ > 64)
    throw std::invalid_argument("PipelinedGpApriori: 1..64 chunks per level");
}

miners::MiningOutput PipelinedGpApriori::mine(
    const fim::TransactionDb& db, const miners::MiningParams& params) {
  ledger_.reset();
  LevelLoop loop(cfg_, db, params, "pipelined-level");
  if (loop.num_items() == 0) return loop.level1();
  FaultAwareDevice fdev = make_device(cfg_, loop.scope());
  PipelinedCounter counter(fdev, cfg_, chunks_);
  miners::MiningOutput out = loop.run(counter);
  ledger_ = fdev.device().ledger();
  return out;
}

}  // namespace gpapriori
