#include "obs/metrics.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace obs {

const char* to_string(Counter c) {
  switch (c) {
    case Counter::kKernelLaunches: return "kernel_launches";
    case Counter::kNativeBlocks: return "native_blocks";
    case Counter::kInterpretedBlocks: return "interpreted_blocks";
    case Counter::kWarpInstructions: return "warp_instructions";
    case Counter::kThreadInstructions: return "thread_instructions";
    case Counter::kGlobalLoadBytes: return "global_load_bytes";
    case Counter::kGlobalStoreBytes: return "global_store_bytes";
    case Counter::kH2DTransfers: return "h2d_transfers";
    case Counter::kH2DBytes: return "h2d_bytes";
    case Counter::kD2HTransfers: return "d2h_transfers";
    case Counter::kD2HBytes: return "d2h_bytes";
    case Counter::kCandidates: return "candidates";
    case Counter::kSurvivors: return "survivors";
    case Counter::kWordsAnded: return "words_anded";
    case Counter::kPopcOps: return "popc_ops";
    case Counter::kRetries: return "retries";
    case Counter::kRetransfers: return "retransfers";
    case Counter::kCorruptionDetected: return "corruption_detected";
    case Counter::kLadderHops: return "ladder_hops";
    case Counter::kFaultsInjected: return "faults_injected";
    case Counter::kDeviceAllocs: return "device_allocs";
    case Counter::kDeviceMemPeakBytes: return "device_mem_peak_bytes";
    case Counter::kCancellations: return "cancellations";
    case Counter::kWatchdogTrips: return "watchdog_trips";
    case Counter::kCheckpointsWritten: return "checkpoints_written";
    case Counter::kCheckpointBytes: return "checkpoint_bytes";
    case Counter::kSampledBlocks: return "sampled_blocks";
    case Counter::kTiledGroups: return "tiled_groups";
    case Counter::kTiledTiles: return "tiled_tiles";
    case Counter::kTiledWordsSaved: return "tiled_words_saved";
    case Counter::kCompactColumnsDropped: return "compact_columns_dropped";
    case Counter::kCandgenShards: return "candgen_shards";
    case Counter::kHostCandgenUs: return "host_candgen_us";
    case Counter::kHostFlattenUs: return "host_flatten_us";
    case Counter::kHostBuildUs: return "host_build_us";
    case Counter::kHostEmitUs: return "host_emit_us";
    case Counter::kCount: break;
  }
  return "?";
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* reg = [] {
    auto* r = new MetricsRegistry();  // leaked: outlives static destructors
    if (const char* env = std::getenv("GPAPRIORI_METRICS");
        env != nullptr && *env != '\0') {
      r->enable();
      std::atexit([] {
        std::fputs(MetricsRegistry::global().summary().c_str(), stderr);
      });
    }
    return r;
  }();
  return *reg;
}

void MetricsRegistry::reset() {
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(m_);
  levels_.clear();
}

void MetricsRegistry::record_max(Counter c, std::uint64_t v) {
  if (!enabled()) return;
  auto& slot = counters_[static_cast<std::size_t>(c)];
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cur < v &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void MetricsRegistry::record_level(std::size_t k, const LevelMetrics& m) {
  if (!enabled()) return;
  add(Counter::kCandidates, m.candidates);
  add(Counter::kSurvivors, m.survivors);
  add(Counter::kWordsAnded, m.words_anded);
  add(Counter::kPopcOps, m.popc_ops);
  std::lock_guard<std::mutex> lock(m_);
  levels_[k].merge(m);
}

std::vector<std::pair<std::size_t, LevelMetrics>> MetricsRegistry::levels()
    const {
  std::lock_guard<std::mutex> lock(m_);
  return {levels_.begin(), levels_.end()};
}

std::string MetricsRegistry::summary() const {
  std::string out = "== gpapriori metrics ==\n";
  char line[160];
  for (std::size_t i = 0; i < static_cast<std::size_t>(Counter::kCount); ++i) {
    const std::uint64_t v = counters_[i].load(std::memory_order_relaxed);
    if (v == 0) continue;
    std::snprintf(line, sizeof(line), "  %-22s %20" PRIu64 "\n",
                  to_string(static_cast<Counter>(i)), v);
    out += line;
  }
  const auto lvls = levels();
  if (!lvls.empty()) {
    out += "  level   candidates    survivors   words_anded      popc_ops\n";
    for (const auto& [k, m] : lvls) {
      std::snprintf(line, sizeof(line),
                    "  %5zu %12" PRIu64 " %12" PRIu64 " %13" PRIu64
                    " %13" PRIu64 "\n",
                    k, m.candidates, m.survivors, m.words_anded, m.popc_ops);
      out += line;
    }
  }
  return out;
}

std::string MetricsRegistry::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent), ' ');
  std::string out = "{\n" + pad + "  \"counters\": {";
  char buf[224];  // level rows peak near 150 chars with 20-digit counters
  bool first = true;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Counter::kCount); ++i) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf), "\n%s    \"%s\": %" PRIu64, pad.c_str(),
                  to_string(static_cast<Counter>(i)),
                  counters_[i].load(std::memory_order_relaxed));
    out += buf;
  }
  out += "\n" + pad + "  },\n" + pad + "  \"levels\": [";
  first = true;
  for (const auto& [k, m] : levels()) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\n%s    {\"k\": %zu, \"candidates\": %" PRIu64
                  ", \"survivors\": %" PRIu64 ", \"words_anded\": %" PRIu64
                  ", \"popc_ops\": %" PRIu64 "}",
                  pad.c_str(), k, m.candidates, m.survivors, m.words_anded,
                  m.popc_ops);
    out += buf;
  }
  out += "\n" + pad + "  ]\n" + pad + "}";
  return out;
}

}  // namespace obs
