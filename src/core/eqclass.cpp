#include "core/eqclass.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "core/level_loop.hpp"
#include "gpusim/error.hpp"

namespace gpapriori {

gpusim::KernelInfo EqClassKernel::info(const gpusim::LaunchConfig& cfg) const {
  // Threads and partials are indexed by x alone, and the tree reduction
  // halves blockDim.x every phase: reject the shapes it would miscount, as
  // SupportKernel::info does.
  if (cfg.block.y != 1 || cfg.block.z != 1)
    throw gpusim::LaunchError("gpapriori_eqclass: block must be 1-D");
  if (!std::has_single_bit(cfg.block.x))
    throw gpusim::LaunchError(
        "gpapriori_eqclass: block.x must be a power of two (got " +
        std::to_string(cfg.block.x) + ")");
  gpusim::KernelInfo i;
  i.num_phases = 1 /*accumulate+write*/ +
                 static_cast<std::uint32_t>(std::countr_zero(cfg.block.x)) +
                 1 /*support writeback*/;
  i.static_shared_bytes = static_cast<std::size_t>(cfg.block.x) * 4;
  i.regs_per_thread = 14;
  return i;
}

void EqClassKernel::run_phase(std::uint32_t phase,
                              gpusim::ThreadCtx& t) const {
  const std::uint32_t tid = t.flat_tid();
  const std::uint32_t block = t.block_dim().x;
  const std::uint64_t cand = args_.first_candidate + t.flat_block_idx();
  const auto log2b = static_cast<std::uint32_t>(std::countr_zero(block));

  if (phase == 0) {
    const std::uint32_t parent_row =
        t.ld_global(args_.pair_table, cand * 2 + 0);
    const std::uint32_t gen1_row = t.ld_global(args_.pair_table, cand * 2 + 1);
    std::uint32_t count = 0;
    for (std::uint64_t w = tid; w < args_.words_per_row; w += block) {
      const std::uint32_t a = t.ld_global(
          args_.parents,
          static_cast<std::uint64_t>(parent_row) * args_.stride_words + w);
      const std::uint32_t b = t.ld_global(
          args_.gen1,
          static_cast<std::uint64_t>(gen1_row) * args_.stride_words + w);
      const std::uint32_t v = a & b;
      t.alu(2);
      count += t.popc(v);
      // The cached strategy's extra memory operation: the result row goes
      // back to DRAM so the next level can reuse it.
      t.st_global(args_.out_rows, cand * args_.stride_words + w, v);
    }
    t.st_shared<std::uint32_t>(static_cast<std::size_t>(tid) * 4, count);
    return;
  }

  const std::uint32_t last = 1 + log2b;
  if (phase < last) {
    const std::uint32_t stride = block >> phase;
    if (tid < stride) {
      const auto a =
          t.ld_shared<std::uint32_t>(static_cast<std::size_t>(tid) * 4);
      const auto b = t.ld_shared<std::uint32_t>(
          static_cast<std::size_t>(tid + stride) * 4);
      t.alu(1);
      t.st_shared<std::uint32_t>(static_cast<std::size_t>(tid) * 4, a + b);
    }
    return;
  }

  if (tid == 0)
    t.st_global(args_.supports, cand, t.ld_shared<std::uint32_t>(0));
}

namespace {

/// Counts level k from the device-resident rows of level k-1's frequent
/// itemsets (level 1's cache IS the generation-1 arena), then keeps the
/// surviving candidates' rows as the next level's cache.
class EqClassCounter final : public SupportCounter {
 public:
  EqClassCounter(FaultAwareDevice& fdev, const Config& cfg,
                 std::size_t& peak_bytes)
      : fdev_(fdev), cfg_(cfg), peak_bytes_(peak_bytes) {}

  void attach(std::span<const fim::BitsetStore> slices) override {
    const fim::BitsetStore& store = slices[0];
    stride_ = static_cast<std::uint32_t>(store.row_stride_words());
    d_gen1_ = upload_store(fdev_, store);
    d_parents_ = d_gen1_;
  }

  double count(const LevelCandidates& lv,
               std::span<fim::Support> supports) override {
    const std::size_t ncand = lv.count;
    // Candidate c's parent is its (k-1)-prefix — by equivalence-class
    // construction a frequent node of the previous level. The trie's
    // parent_index() IS that previous-level row (parents keep their
    // post-compaction position; root position == row id), so the pair
    // table is a straight per-candidate read — no prefix search.
    std::vector<std::uint32_t> pair_table(ncand * 2);
    for (std::size_t c = 0; c < ncand; ++c) {
      pair_table[c * 2] = lv.trie->parent_index(lv.k, c);
      pair_table[c * 2 + 1] = lv.paths[c * lv.k + lv.k - 1];
    }
    d_pairs_ = fdev_.alloc(pair_table.size());
    fdev_.upload(d_pairs_, pair_table);
    d_out_rows_ = fdev_.alloc(ncand * static_cast<std::size_t>(stride_),
                              fim::BitsetStore::kAlignBytes);
    d_sup_ = fdev_.alloc(ncand);

    const fim::BitsetStore& store = lv.slices[0];
    EqClassKernel::Args args;
    args.parents = d_parents_;
    args.gen1 = d_gen1_;
    args.stride_words = stride_;
    args.words_per_row = static_cast<std::uint32_t>(store.words_per_row());
    args.pair_table = d_pairs_;
    args.out_rows = d_out_rows_;
    args.supports = d_sup_;
    const double dev_before = fdev_.device().ledger().total_ns();
    const gpusim::Dim3 block{cfg_.resolve_block_size(store.words_per_row())};
    launch_batched(ncand, [&](std::uint32_t first, gpusim::Dim3 grid) {
      args.first_candidate = first;
      fdev_.launch(EqClassKernel(args), {grid, block});
    });
    fdev_.download_verified(supports, d_sup_);
    note_peak();
    return (fdev_.device().ledger().total_ns() - dev_before) / 1e6;
  }

  /// Compacts the surviving rows into the next parent arena. Real CUDA
  /// would do this with a device-side gather; the equivalent DRAM traffic
  /// is charged to the ledger (device->device, no PCIe).
  void level_done(const CandidateTrie& trie, std::size_t k,
                  std::span<const fim::Support> supports,
                  fim::Support min_count) override {
    const std::size_t row_bytes = static_cast<std::size_t>(stride_) * 4;
    auto d_next = alloc_rows(trie.level_size(k));
    gpusim::GlobalMemory& mem = fdev_.device().memory();
    std::vector<std::uint32_t> row(stride_);
    std::size_t w = 0;
    for (std::size_t c = 0; c < supports.size(); ++c) {
      if (supports[c] < min_count) continue;
      mem.read_bytes((d_out_rows_ + c * stride_).addr, row.data(), row_bytes);
      mem.write_bytes((d_next + w * stride_).addr, row.data(), row_bytes);
      ++w;
    }
    fdev_.device().charge_device_traffic(w * row_bytes);
    replace_parents(d_next);
    fdev_.free(d_out_rows_);
    fdev_.free(d_pairs_);
    fdev_.free(d_sup_);
    note_peak();
  }

  /// A resume rebuilds the trie and counts nothing, so the cache of level
  /// k's rows is rebuilt on the host (AND of each survivor's generation-1
  /// rows) and uploaded once.
  void resumed(const CandidateTrie& trie, std::size_t k,
               std::span<const fim::BitsetStore> slices) override {
    if (k < 2) return;
    const std::size_t survivors = trie.level_size(k);
    std::vector<std::uint32_t> rows(std::max<std::size_t>(1, survivors) *
                                    stride_);
    for (std::size_t i = 0; i < survivors; ++i)
      slices[0].and_rows(trie.candidate_row_span(k, i),
                         std::span(rows).subspan(i * stride_, stride_));
    auto d_rows = alloc_rows(survivors);
    fdev_.upload(d_rows, rows);
    replace_parents(d_rows);
  }

  [[nodiscard]] double device_ms() const override {
    return fdev_.device_ms();
  }
  /// Each candidate ANDs its cached parent row with one generation-1 row.
  void add_metrics(const LevelCandidates& lv,
                   obs::LevelMetrics& lm) const override {
    const std::uint64_t W = lv.slices[0].words_per_row();
    lm.words_anded += lv.count * 2 * W;
    lm.popc_ops += lv.count * W;
  }

 private:
  gpusim::DevicePtr<std::uint32_t> alloc_rows(std::size_t n) {
    return fdev_.alloc(
        std::max<std::size_t>(1, n * static_cast<std::size_t>(stride_)),
        fim::BitsetStore::kAlignBytes);
  }
  void replace_parents(gpusim::DevicePtr<std::uint32_t> rows) {
    if (parents_owned_) fdev_.free(d_parents_);
    d_parents_ = rows;
    parents_owned_ = true;
  }
  void note_peak() {
    peak_bytes_ = std::max(peak_bytes_, fdev_.device().memory().bytes_in_use());
  }

  FaultAwareDevice& fdev_;
  const Config& cfg_;
  std::size_t& peak_bytes_;
  std::uint32_t stride_ = 0;
  gpusim::DevicePtr<std::uint32_t> d_gen1_, d_parents_, d_pairs_,
      d_out_rows_, d_sup_;
  bool parents_owned_ = false;
};

}  // namespace

EqClassApriori::EqClassApriori(Config cfg) : cfg_(cfg) {
  validate_config(cfg_, "EqClassApriori");
}

miners::MiningOutput EqClassApriori::mine(const fim::TransactionDb& db,
                                          const miners::MiningParams& params) {
  ledger_.reset();
  peak_device_bytes_ = 0;
  LevelLoop loop(cfg_, db, params, "eqclass-level");
  if (loop.num_items() == 0) return loop.level1();
  FaultAwareDevice fdev = make_device(cfg_, loop.scope());
  EqClassCounter counter(fdev, cfg_, peak_device_bytes_);
  miners::MiningOutput out = loop.run(counter);
  ledger_ = fdev.device().ledger();
  return out;
}

}  // namespace gpapriori

