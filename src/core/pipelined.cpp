#include "core/pipelined.hpp"

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
  PipelinedCounter(gpusim::Device& device, const Config& cfg,
                   std::uint32_t chunks)
      : device_(device), cfg_(cfg), chunks_(chunks) {}

  [[nodiscard]] bool grouped() const override { return cfg_.tiled; }

  void attach(std::span<const fim::BitsetStore> slices) override {
    d_bitsets_ = upload_store(device_, slices[0]);
  }

  double count(const LevelCandidates& lv,
               std::span<fim::Support> supports) override;

  [[nodiscard]] double device_ms() const override {
    return device_.ledger().total_ns() / 1e6;
  }
  void annotate(obs::ScopedSpan& span) const override {
    span.add_arg("chunks", static_cast<double>(num_chunks_));
  }

 private:
  gpusim::Device& device_;
  const Config& cfg_;
  std::uint32_t chunks_;
  std::size_t num_chunks_ = 0;
  gpusim::DevicePtr<std::uint32_t> d_bitsets_;
};

double PipelinedCounter::count(const LevelCandidates& lv,
                               std::span<fim::Support> supports) {
  const double dev_before = device_.ledger().total_ns();
  const fim::BitsetStore& store = lv.slices[0];
  const CandidateTrie::GroupedLevel& grouped = lv.grouped;
  const auto offsets = grouped.group_offsets();
  const std::size_t k = lv.k;
  const std::size_t num_units = cfg_.tiled ? grouped.groups : lv.count;
  const std::size_t chunk_units = (num_units + chunks_ - 1) / chunks_;
  num_chunks_ = (num_units + chunk_units - 1) / chunk_units;
  auto d_sup = device_.alloc<std::uint32_t>(lv.count);

  gpusim::DevicePtr<std::uint32_t> d_cand, d_prefix, d_sib, d_off;
  const std::size_t p = k - 1;
  if (cfg_.tiled) {
    d_prefix = device_.alloc<std::uint32_t>(grouped.prefix_rows().size());
    d_sib = device_.alloc<std::uint32_t>(grouped.sibling_rows().size());
    d_off = device_.alloc<std::uint32_t>(offsets.size());
    // The offsets table is tiny and every chunk's kernels read it, so it
    // goes up front on the synchronous queue.
    device_.copy_to_device(d_off, offsets);
  } else {
    d_cand = device_.alloc<std::uint32_t>(lv.paths.size());
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
      device_.copy_to_device_async(
          d_prefix + lo * p,
          grouped.prefix_rows().subspan(lo * p, (hi - lo) * p), stream_of(c));
      device_.copy_to_device_async(
          d_sib + clo, grouped.sibling_rows().subspan(clo, chi - clo),
          stream_of(c));
    } else {
      device_.copy_to_device_async(
          d_cand + lo * k, lv.paths.subspan(lo * k, (hi - lo) * k),
          stream_of(c));
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
        args.prefix_rows = d_prefix;
        args.sibling_rows = d_sib;
        args.group_offsets = d_off;
        args.k = static_cast<std::uint32_t>(k);
        args.first_group = static_cast<std::uint32_t>(lo) + first;
        args.max_group_size = grouped.max_group_size();
        args.supports = d_sup;
        device_.launch_async(TiledSupportKernel(args, cfg_.unroll),
                             {grid, block}, stream_of(c));
      } else {
        SupportKernel::Args args;
        args.bitsets = d_bitsets_;
        args.stride_words = stride;
        args.words_per_row = words;
        args.candidates = d_cand;
        args.k = static_cast<std::uint32_t>(k);
        args.supports = d_sup;
        args.first_candidate = static_cast<std::uint32_t>(lo) + first;
        device_.launch_async(
            SupportKernel(args, cfg_.candidate_preload, cfg_.unroll),
            {grid, block}, stream_of(c));
      }
    });
    const auto [clo, chi] = cand_bounds(lo, hi);
    device_.copy_to_host_async(supports.subspan(clo, chi - clo), d_sup + clo,
                               stream_of(c));
  }
  device_.synchronize();
  if (cfg_.tiled) {
    device_.free(d_prefix);
    device_.free(d_sib);
    device_.free(d_off);
  } else {
    device_.free(d_cand);
  }
  device_.free(d_sup);
  return (device_.ledger().total_ns() - dev_before) / 1e6;
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
  gpusim::Device device = make_device(cfg_, loop.scope());
  PipelinedCounter counter(device, cfg_, chunks_);
  miners::MiningOutput out = loop.run(counter);
  ledger_ = device.ledger();
  return out;
}

}  // namespace gpapriori
