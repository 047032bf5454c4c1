#include "core/gpu_eclat.hpp"

#include <algorithm>
#include <optional>

#include "baselines/apriori_util.hpp"
#include "core/eqclass.hpp"
#include "core/level_loop.hpp"
#include "fim/bitset_ops.hpp"
#include "obs/obs.hpp"

namespace gpapriori {
namespace {

/// One member of a device-resident equivalence class.
struct Entry {
  fim::Item item = 0;        ///< dense (new-id) item, for itemset building
  std::uint32_t row = 0;     ///< row index within the class arena
  fim::Support support = 0;
};

struct Ctx {
  FaultAwareDevice* fdev;
  std::uint32_t stride = 0;
  std::uint32_t words_per_row = 0;
  std::uint32_t block_size = 0;
  fim::Support min_count = 0;
  std::size_t max_size = 0;
  const std::vector<fim::Item>* original_item;
  fim::ItemsetCollection* out;
  std::size_t* peak_bytes;
  RunScope* scope;
  std::size_t* cur_depth;  ///< size of the itemsets the current class emits
};

void note_peak(const Ctx& ctx) {
  *ctx.peak_bytes = std::max(*ctx.peak_bytes,
                             ctx.fdev->device().memory().bytes_in_use());
}

// Extends every member of the class rooted at `prefix`, device-side.
// `arena` holds the class's bitset rows (owned by the caller).
void dfs(const fim::Itemset& prefix,
         gpusim::DevicePtr<std::uint32_t> arena,
         const std::vector<Entry>& entries, const Ctx& ctx) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const fim::Itemset found = prefix.with(entries[i].item);
    ctx.out->add(miners::to_original(found, *ctx.original_item),
                 entries[i].support);
    if (ctx.max_size && found.size() >= ctx.max_size) continue;
    const std::size_t width = entries.size() - i - 1;
    if (width == 0) continue;

    // Cancellation granularity for the DFS: once per class extension,
    // mirroring the level-synchronous miners' once-per-level check. The
    // depth is recorded first so a throw reports the class being extended.
    *ctx.cur_depth = found.size() + 1;
    ctx.scope->check("eclat-class", ctx.fdev->device_ms());

    obs::ScopedSpan class_span(obs::SpanKind::kMineLevel, "eclat-class");

    // Batch: candidate c joins member i with member i+1+c.
    std::vector<std::uint32_t> pair_table(width * 2);
    for (std::size_t c = 0; c < width; ++c) {
      pair_table[c * 2] = entries[i].row;
      pair_table[c * 2 + 1] = entries[i + 1 + c].row;
    }
    ScopedDeviceAlloc d_pairs(*ctx.fdev, pair_table.size());
    ctx.fdev->upload(d_pairs.get(), pair_table);
    ScopedDeviceAlloc d_out(*ctx.fdev,
                            width * static_cast<std::size_t>(ctx.stride),
                            fim::BitsetStore::kAlignBytes);
    ScopedDeviceAlloc d_sup(*ctx.fdev, width);

    EqClassKernel::Args args;
    args.parents = arena;
    args.gen1 = arena;  // both operands live in the class arena
    args.stride_words = ctx.stride;
    args.words_per_row = ctx.words_per_row;
    args.pair_table = d_pairs.get();
    args.out_rows = d_out.get();
    args.supports = d_sup.get();
    EqClassKernel kernel(args);
    ctx.fdev->launch(kernel,
                     {gpusim::Dim3{static_cast<std::uint32_t>(width)},
                      gpusim::Dim3{ctx.block_size}});

    std::vector<std::uint32_t> supports(width);
    ctx.fdev->download_verified(supports, d_sup.get());
    d_pairs.reset();
    note_peak(ctx);

    std::vector<Entry> next;
    for (std::size_t c = 0; c < width; ++c) {
      if (supports[c] >= ctx.min_count)
        next.push_back({entries[i + 1 + c].item,
                        static_cast<std::uint32_t>(c), supports[c]});
    }

    if (class_span.active()) {
      class_span.add_arg("k", static_cast<double>(found.size() + 1));
      class_span.add_arg("candidates", static_cast<double>(width));
      class_span.add_arg("survivors", static_cast<double>(next.size()));
    }
    auto& metrics = obs::MetricsRegistry::global();
    if (metrics.enabled()) {
      obs::LevelMetrics lm;
      lm.candidates = width;
      lm.survivors = next.size();
      // Eclat joins are pairwise: each candidate ANDs 2 rows and
      // popcounts each intersection word.
      lm.words_anded = static_cast<std::uint64_t>(width) * 2 *
                       ctx.words_per_row;
      lm.popc_ops = static_cast<std::uint64_t>(width) * ctx.words_per_row;
      metrics.record_level(found.size() + 1, lm);
    }

    if (!next.empty()) dfs(found, d_out.get(), next, ctx);
  }
}

}  // namespace

GpuEclat::GpuEclat(Config cfg) : cfg_(cfg) {
  validate_config(cfg_, "GpuEclat");
}

miners::MiningOutput GpuEclat::mine(const fim::TransactionDb& db,
                                    const miners::MiningParams& params) {
  miners::MiningOutput out;
  const fim::Support min_count = params.resolve_min_count(db.num_transactions());
  ledger_.reset();
  peak_device_bytes_ = 0;

  // DFS is not level-synchronous, so there is no checkpoint support here:
  // cancellation salvages every itemset emitted so far and reports the
  // depth of the class that was being extended when the token tripped.
  RunScope scope(cfg_.run_control);

  miners::StopWatch host;
  std::optional<miners::Preprocessed> pre_local;
  const miners::Preprocessed& pre =
      resolve_preprocess(cfg_.shared_layout, db, min_count, pre_local);
  const std::size_t n = pre.original_item.size();

  std::vector<fim::Item> rows(n);
  for (fim::Item i = 0; i < n; ++i) rows[i] = i;
  const miners::StopWatch build_watch;
  const fim::BitsetStore store =
      fim::BitsetStore::from_db(pre.db, rows, cfg_.resolve_workers());
  out.host_phases.build_ms += build_watch.elapsed_ms();
  out.host_ms += host.elapsed_ms();
  if (n == 0) {
    out.itemsets.canonicalize();
    return out;
  }

  FaultAwareDevice fdev = make_device(cfg_, scope);
  const auto d_gen1 = upload_store(fdev, store);

  std::vector<Entry> root;
  root.reserve(n);
  for (fim::Item x = 0; x < n; ++x)
    root.push_back({x, x, pre.support[x]});

  std::size_t cur_depth = 2;
  Ctx ctx{&fdev,
          static_cast<std::uint32_t>(store.row_stride_words()),
          static_cast<std::uint32_t>(store.words_per_row()),
          cfg_.resolve_block_size(store.words_per_row()),
          min_count,
          params.max_itemset_size,
          &pre.original_item,
          &out.itemsets,
          &peak_device_bytes_,
          &scope,
          &cur_depth};

  try {
    dfs(fim::Itemset{}, d_gen1, root, ctx);
  } catch (const gpusim::CancelledError& e) {
    // Every itemset already emitted survives.
    mark_truncated(out, cur_depth, e.cause());
  }
  // host_ms covers preprocessing only: the DFS wall time is dominated by
  // SIMULATING the kernels (which real hardware would execute), and the
  // driver bookkeeping itself is a few table fills per class.

  ledger_ = fdev.device().ledger();
  out.device_ms = ledger_.total_ns() / 1e6;
  out.itemsets.canonicalize();
  return out;
}

}  // namespace gpapriori
