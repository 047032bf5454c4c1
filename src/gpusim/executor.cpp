#include "gpusim/executor.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/error.hpp"
#include "gpusim/host_pool.hpp"
#include "gpusim/occupancy.hpp"
#include "obs/obs.hpp"

namespace gpusim {

namespace detail {

void BlockRecorder::analyze_phase(MemoryAccessStats& loads,
                                  MemoryAccessStats& stores,
                                  std::uint64_t& shared_requests,
                                  std::uint64_t& shared_serialization) const {
  for (std::uint32_t w = 0; w < num_warps_; ++w) {
    const WarpRows& warp = warps_[w];
    for (std::size_t n = 0; n < warp.loads.used; ++n)
      loads.add(coalesce_cc13(warp.loads.rows[n]));
    for (std::size_t n = 0; n < warp.stores.used; ++n)
      stores.add(coalesce_cc13(warp.stores.rows[n]));
    shared_requests += warp.shared.used;
    for (std::size_t n = 0; n < warp.shared.used; ++n)
      shared_serialization += shared_bank_serialization(warp.shared.rows[n].req);
  }
}

std::uint64_t BlockRecorder::count_shared_races() {
  // New phase: every stamp from earlier phases goes stale at once. On the
  // (2^32-phase) wrap the stamps are cleared so none can alias.
  if (++epoch_ == 0) {
    std::fill(first_writer_.begin(), first_writer_.end(), WriterStamp{});
    epoch_ = 1;
  }
  // Visited in tid order, a byte's first writer is its lowest-tid writer,
  // and every later access by another thread is a hazard. Stamping the
  // lowest writer first makes that count independent of visiting order,
  // so both passes walk the rows as stored. When every access is an
  // aligned word, each of its bytes has the same writers and readers:
  // stamp words and count each hazard four times.
  const bool words =
      std::all_of(warps_.begin(), warps_.begin() + num_warps_,
                  [](const WarpRows& w) { return w.all_words; });
  // Calls fn(tid, lo, hi) for every lane of `mask_of(row)` in every shared
  // row, with the access's [lo, hi) in stamp units (words or bytes).
  const auto for_each_access = [&](auto mask_of, auto&& fn) {
    for (std::uint32_t w = 0; w < num_warps_; ++w) {
      const RowTable<SharedRow>& table = warps_[w].shared;
      for (std::size_t n = 0; n < table.used; ++n) {
        const SharedRow& row = table.rows[n];
        for (std::uint32_t m = mask_of(row); m != 0; m &= m - 1) {
          const auto lane = static_cast<std::uint32_t>(std::countr_zero(m));
          const std::uint64_t addr = row.req.addr[lane];
          const std::uint64_t lo = words ? addr / 4 : addr;
          fn(w * 32 + lane, lo, words ? lo + 1 : addr + row.bytes[lane]);
        }
      }
    }
  };

  bool any_write = false;
  for_each_access(
      [](const SharedRow& row) { return row.write_mask; },
      [&](std::uint32_t tid, std::uint64_t lo, std::uint64_t hi) {
        if (hi > first_writer_.size())
          first_writer_.resize(
              std::max<std::uint64_t>(hi, 2 * first_writer_.size()));
        for (std::uint64_t a = lo; a < hi; ++a) {
          WriterStamp& s = first_writer_[a];
          if (s.epoch != epoch_)
            s = {epoch_, tid};
          else if (tid < s.tid)
            s.tid = tid;
        }
        any_write = true;
      });
  if (!any_write) return 0;

  std::uint64_t hazards = 0;
  for_each_access(
      [](const SharedRow& row) { return row.req.active_mask; },
      [&](std::uint32_t tid, std::uint64_t lo, std::uint64_t hi) {
        const std::uint64_t end =
            std::min<std::uint64_t>(hi, first_writer_.size());
        for (std::uint64_t a = lo; a < end; ++a) {
          const WriterStamp& s = first_writer_[a];
          if (s.epoch == epoch_ && s.tid != tid) ++hazards;
        }
      });
  return words ? 4 * hazards : hazards;
}

}  // namespace detail

namespace {

constexpr std::uint32_t kMaxHostThreads = 256;

/// Launches below this many thread-phases run on the calling thread: pool
/// dispatch costs a few microseconds, which tiny grids cannot amortize.
/// Deterministic in the launch shape only, so the sequential/parallel
/// decision never depends on the host machine.
constexpr std::uint64_t kMinParallelThreadPhases = 16 * 1024;

/// Private accumulator for one contiguous chunk of the flat block range.
/// Every field is a plain sum over the chunk's blocks, so merging chunks in
/// block order reproduces the sequential executor's stats exactly.
struct ChunkStats {
  KernelCounters counters;
  MemoryAccessStats load_coalescing;
  MemoryAccessStats store_coalescing;
  std::uint64_t native_blocks = 0;
  std::uint64_t sampled_blocks = 0;
  std::uint64_t shared_requests = 0;
  std::uint64_t shared_serialization = 0;
  std::uint64_t shared_race_hazards = 0;
  /// Wall time of the sampled blocks, native or interpreted, and the part
  /// of it spent in the coalescing, bank and race models; measured only
  /// when the chunk's trace span is recorded.
  std::uint64_t sampled_ns = 0;
  std::uint64_t sampled_analysis_ns = 0;
};

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Runs each recorded phase of a sampled block, native or interpreted,
/// through the coalescing and bank models and, when enabled, the race
/// check, into the chunk's stats.
class AnalyzingSink final : public detail::PhaseSink {
 public:
  AnalyzingSink(ChunkStats& out, bool races, bool timed)
      : out_(&out), races_(races), timed_(timed) {}

  void phase_recorded(detail::BlockRecorder& rec) override {
    const Clock::time_point start =
        timed_ ? Clock::now() : Clock::time_point{};
    rec.analyze_phase(out_->load_coalescing, out_->store_coalescing,
                      out_->shared_requests, out_->shared_serialization);
    if (races_) out_->shared_race_hazards += rec.count_shared_races();
    if (timed_) out_->sampled_analysis_ns += ns_since(start);
  }

 private:
  ChunkStats* out_;
  bool races_;
  bool timed_;
};

/// Per-worker scratch reused across the chunks a worker claims.
struct WorkerScratch {
  SharedMemory smem;
  detail::BlockRecorder recorder;
  std::vector<std::uint64_t> lane_ops;

  WorkerScratch(std::size_t shared_bytes, std::uint32_t tpb)
      : smem(shared_bytes), lane_ops(tpb) {}
};

/// Everything shared (immutably) by the workers of one launch.
struct LaunchJob {
  const Kernel* kernel;
  const LaunchConfig* cfg;
  const KernelInfo* info;
  GlobalMemory* gmem;
  const ExecutorOptions* opts;
  std::size_t shared_bytes;
  std::uint32_t tpb;
  std::uint32_t num_warps;
};

/// Executes blocks [lo, hi) into `out`. This is the single block-execution
/// path for both the sequential and the pooled executor — determinism
/// across host_threads values follows from every chunk running this exact
/// code and the merge happening in chunk (= block) order. `time_sampled`
/// adds each sampled block's wall time to out.sampled_ns and its analysis
/// time to out.sampled_analysis_ns.
void run_block_range(const LaunchJob& job, std::uint64_t lo, std::uint64_t hi,
                     ChunkStats& out, WorkerScratch& scratch,
                     bool time_sampled) {
  const LaunchConfig& cfg = *job.cfg;
  const ExecutorOptions& opts = *job.opts;
  const std::uint32_t tpb = job.tpb;
  // Nearly every launch is 1-D; skip the per-thread div/mod chain then
  // (it is pure fixed overhead repeated tpb * num_phases times per block).
  const bool block_1d = cfg.block.y == 1 && cfg.block.z == 1;
  AnalyzingSink sink(out, opts.detect_shared_races, time_sampled);

  for (std::uint64_t flat_block = lo; flat_block < hi; ++flat_block) {
    const bool sampled =
        opts.sample_stride != 0 && (flat_block % opts.sample_stride == 0);
    if (sampled) out.sampled_blocks += 1;

    const Dim3 block_idx{
        static_cast<std::uint32_t>(flat_block % cfg.grid.x),
        static_cast<std::uint32_t>((flat_block / cfg.grid.x) % cfg.grid.y),
        static_cast<std::uint32_t>(flat_block / (static_cast<std::uint64_t>(cfg.grid.x) * cfg.grid.y))};

    out.counters.blocks += 1;
    out.counters.threads += tpb;

    // Native path (DESIGN.md §9): with `native` on, every block is offered
    // to the kernel's whole-block call. On a sampled block the context
    // carries the recorder, and the kernel fills each phase's rows for the
    // coalescing, bank and race models, so they still see every address.
    // The checks enforce that native code settled SIMT accounting for, and
    // recorded, exactly the phases the interpreter would have run; the
    // barrier charge is identical by construction (one per phase
    // boundary). A declined block, or any block with native off, runs the
    // interpreter below, recording if sampled.
    const bool timed = sampled && time_sampled;
    const Clock::time_point start = timed ? Clock::now() : Clock::time_point{};
    if (opts.native) {
      BlockCtx bctx(cfg.grid, cfg.block, block_idx, *job.gmem, out.counters,
                    sampled ? &scratch.recorder : nullptr, &sink);
      if (job.kernel->run_block_native(bctx)) {
        const auto mismatch = [&](const char* what, std::uint32_t n) {
          return SimError("run_block_native(" +
                          std::string(job.kernel->name()) + "): " + what +
                          " " + std::to_string(n) +
                          " phases, kernel declares " +
                          std::to_string(job.info->num_phases));
        };
        if (bctx.phases_charged() != job.info->num_phases)
          throw mismatch("charged", bctx.phases_charged());
        if (sampled && bctx.phases_recorded() != job.info->num_phases)
          throw mismatch("recorded", bctx.phases_recorded());
        out.counters.barriers += job.info->num_phases - 1;
        out.native_blocks += 1;
        if (timed) out.sampled_ns += ns_since(start);
        continue;
      }
    }

    scratch.smem.reset(job.shared_bytes);

    for (std::uint32_t phase = 0; phase < job.info->num_phases; ++phase) {
      if (sampled) scratch.recorder.begin_phase(job.num_warps);

      for (std::uint32_t tid = 0; tid < tpb; ++tid) {
        const Dim3 thread_idx =
            block_1d ? Dim3{tid, 0, 0}
                     : Dim3{tid % cfg.block.x, (tid / cfg.block.x) % cfg.block.y,
                            tid / (cfg.block.x * cfg.block.y)};
        ThreadCtx ctx(cfg.grid, cfg.block, block_idx, thread_idx, *job.gmem,
                      scratch.smem, out.counters,
                      sampled ? &scratch.recorder : nullptr);
        job.kernel->run_phase(phase, ctx);
        scratch.lane_ops[tid] = ctx.lane_ops();
      }

      // SIMT issue accounting: a warp issues max-over-lanes instructions.
      for (std::uint32_t w = 0; w < job.num_warps; ++w) {
        const std::uint32_t wlo = w * 32, whi = std::min(wlo + 32, tpb);
        std::uint64_t mx = 0, mn = ~std::uint64_t{0}, sum = 0;
        for (std::uint32_t t = wlo; t < whi; ++t) {
          mx = std::max(mx, scratch.lane_ops[t]);
          mn = std::min(mn, scratch.lane_ops[t]);
          sum += scratch.lane_ops[t];
        }
        out.counters.warp_instructions += mx;
        out.counters.thread_instructions += sum;
        out.counters.warp_phases += 1;
        if (mx != mn) out.counters.divergent_warp_phases += 1;
      }
      if (phase + 1 < job.info->num_phases) out.counters.barriers += 1;

      if (sampled) sink.phase_recorded(scratch.recorder);
    }
    if (timed) out.sampled_ns += ns_since(start);
  }
}

}  // namespace

std::uint32_t resolve_host_threads(const ExecutorOptions& opts) {
  if (opts.host_threads != 0)
    return std::min(opts.host_threads, kMaxHostThreads);
  if (const char* env = std::getenv("GPAPRIORI_HOST_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= kMaxHostThreads)
      return static_cast<std::uint32_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : std::min(hw, kMaxHostThreads);
}

KernelStats run_kernel(const Kernel& kernel, const LaunchConfig& cfg,
                       GlobalMemory& gmem, const DeviceProperties& props,
                       const ExecutorOptions& opts) {
  const std::uint32_t tpb = cfg.threads_per_block();
  const std::uint64_t num_blocks = cfg.num_blocks();
  if (num_blocks == 0 || tpb == 0)
    throw LaunchError("launch: empty grid or block");
  if (tpb > static_cast<std::uint32_t>(props.max_threads_per_block))
    throw LaunchError("launch: " + std::to_string(tpb) +
                   " threads/block exceeds device limit " +
                   std::to_string(props.max_threads_per_block));

  const KernelInfo info = kernel.info(cfg);
  if (info.num_phases == 0)
    throw LaunchError("launch: kernel declares 0 phases");
  const std::size_t shared_bytes =
      info.static_shared_bytes + cfg.dynamic_shared_bytes;
  if (shared_bytes > props.shared_mem_per_sm)
    throw LaunchError("launch: block shared memory (" +
                   std::to_string(shared_bytes) + " B) exceeds SM capacity (" +
                   std::to_string(props.shared_mem_per_sm) + " B)");

  KernelStats stats;
  stats.kernel_name = std::string(kernel.name());
  stats.config = cfg;
  stats.occupancy =
      compute_occupancy(props, tpb, shared_bytes, info.regs_per_thread);

  const std::uint32_t num_warps =
      (tpb + static_cast<std::uint32_t>(props.warp_size) - 1) /
      static_cast<std::uint32_t>(props.warp_size);

  const LaunchJob job{&kernel, &cfg,         &info, &gmem,
                      &opts,   shared_bytes, tpb,   num_warps};

  // Shape-deterministic scheduling decision: tiny grids stay sequential.
  std::uint32_t workers = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(resolve_host_threads(opts), num_blocks));
  if (num_blocks * tpb * info.num_phases < kMinParallelThreadPhases)
    workers = 1;

  // More chunks than workers so stragglers rebalance; chunk boundaries are
  // irrelevant to the result because chunk stats are exact integer sums
  // merged in block order below.
  const std::uint64_t num_chunks =
      workers <= 1 ? 1 : std::min<std::uint64_t>(num_blocks, workers * 8ull);
  std::vector<ChunkStats> chunks(num_chunks);
  std::vector<std::exception_ptr> errors(num_chunks);
  std::atomic<std::uint64_t> next_chunk{0};
  std::atomic<bool> failed{false};

  auto chunk_range = [&](std::uint64_t c) {
    return std::pair<std::uint64_t, std::uint64_t>{
        num_blocks * c / num_chunks, num_blocks * (c + 1) / num_chunks};
  };

  CancelToken* const cancel = opts.cancel;
  const auto work = [&](std::uint32_t) {
    WorkerScratch scratch(shared_bytes, tpb);
    for (;;) {
      // Cancellation is observed here, at chunk-dispatch granularity: a
      // worker never abandons a block mid-flight, so every block either ran
      // completely or not at all and the pool drains deterministically.
      if (cancel != nullptr && cancel->cancelled()) break;
      const std::uint64_t c =
          next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks || failed.load(std::memory_order_relaxed)) break;
      try {
        const auto [lo, hi] = chunk_range(c);
        obs::ScopedSpan span(obs::SpanKind::kDispatch, "block-chunk");
        run_block_range(job, lo, hi, chunks[c], scratch, span.active());
        if (cancel != nullptr) cancel->heartbeat();
        if (span.active()) {
          span.add_arg("first_block", static_cast<double>(lo));
          span.add_arg("num_blocks", static_cast<double>(hi - lo));
          span.add_arg("native_blocks",
                       static_cast<double>(chunks[c].native_blocks));
          span.add_arg("sampled_blocks",
                       static_cast<double>(chunks[c].sampled_blocks));
          span.add_arg("sampled_ms",
                       static_cast<double>(chunks[c].sampled_ns) / 1e6);
          span.add_arg("sampled_analysis_ms",
                       static_cast<double>(chunks[c].sampled_analysis_ns) /
                           1e6);
        }
      } catch (...) {
        errors[c] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  HostPool::instance().run(workers, work);

  // Cancellation wins over chunk errors: the run is being torn down for an
  // external reason (deadline, watchdog, signal) and must abort cleanly
  // instead of entering the resilience ladder. Device memory touched by
  // completed chunks is unspecified — the driver discards the level.
  throw_if_cancelled(cancel, std::string("run_kernel(") +
                                 std::string(kernel.name()) + ")");

  // Fail deterministically: the error of the lowest failing block range
  // wins, matching what strictly sequential execution would have thrown
  // first. (Device memory past the failing block is unspecified either
  // way; callers unwind via the resilience ladder.)
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);

  // Deterministic merge, in block order. All fields are integer sums, so
  // the result is byte-identical to sequential execution regardless of
  // which worker ran which chunk.
  std::uint64_t native_blocks = 0;
  for (const ChunkStats& c : chunks) {
    stats.counters.merge(c.counters);
    stats.gmem_load_coalescing.merge(c.load_coalescing);
    stats.gmem_store_coalescing.merge(c.store_coalescing);
    stats.sampled_blocks += c.sampled_blocks;
    stats.shared_requests_sampled += c.shared_requests;
    stats.shared_serialization_sampled += c.shared_serialization;
    stats.shared_race_hazards += c.shared_race_hazards;
    native_blocks += c.native_blocks;
  }
  stats.native_blocks = native_blocks;

  auto& metrics = obs::MetricsRegistry::global();
  if (metrics.enabled()) {
    using obs::Counter;
    metrics.add(Counter::kKernelLaunches, 1);
    metrics.add(Counter::kNativeBlocks, native_blocks);
    metrics.add(Counter::kInterpretedBlocks,
                stats.counters.blocks - native_blocks);
    metrics.add(Counter::kSampledBlocks, stats.sampled_blocks);
    metrics.add(Counter::kWarpInstructions, stats.counters.warp_instructions);
    metrics.add(Counter::kThreadInstructions,
                stats.counters.thread_instructions);
    metrics.add(Counter::kGlobalLoadBytes, stats.counters.global_load_bytes);
    metrics.add(Counter::kGlobalStoreBytes, stats.counters.global_store_bytes);
  }
  return stats;
}

}  // namespace gpusim
