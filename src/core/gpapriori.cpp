#include "core/gpapriori.hpp"

#include <string>
#include <utility>

#include "core/eqclass.hpp"
#include "core/gpu_eclat.hpp"
#include "core/hybrid.hpp"
#include "core/level_loop.hpp"
#include "core/partitioned.hpp"
#include "core/pipelined.hpp"
#include "obs/obs.hpp"

namespace gpapriori {
namespace {

/// CPU_TEST's counter: the kernel's arithmetic executed by the host over
/// the same 64-byte-aligned store (a single resident slice). A level can be
/// the run's long pole, so it honours cancellation every 1,024 candidates,
/// the hybrid host share's cadence.
class HostCounter final : public SupportCounter {
 public:
  HostCounter(bool tiled, RunScope& scope) : tiled_(tiled), scope_(scope) {}

  [[nodiscard]] bool grouped() const override { return tiled_; }
  [[nodiscard]] bool counts_on_host() const override { return true; }

  double count(const LevelCandidates& lv,
               std::span<fim::Support> supports) override {
    const fim::BitsetStore& store = lv.slices[0];
    if (!tiled_) {
      // Complete intersection: the same k-way AND + popcount the kernel
      // performs.
      for (std::size_t c = 0; c < lv.count; ++c) {
        if ((c & 0x3ff) == 0) scope_.check("cpu-count");
        supports[c] = store.and_popcount(lv.paths.subspan(c * lv.k, lv.k));
      }
      return 0;
    }
    // The tiled kernel's structure: materialize each sibling group's k-1
    // prefix AND once, then popcount every sibling's last row against it.
    // Identical supports (AND is associative/commutative).
    const CandidateTrie::GroupedLevel& g = lv.grouped;
    const auto prefixes = g.prefix_rows();
    const auto offsets = g.group_offsets();
    const auto siblings = g.sibling_rows();
    std::vector<fim::BitsetStore::Word> mask(store.row_stride_words());
    std::uint32_t next_check = 0;
    for (std::size_t i = 0; i < g.groups; ++i) {
      if (offsets[i] >= next_check) {
        scope_.check("cpu-count");
        next_check = offsets[i] + 0x400;
      }
      store.and_rows(prefixes.subspan(i * g.prefix_len, g.prefix_len), mask);
      for (std::uint32_t c = offsets[i]; c < offsets[i + 1]; ++c)
        supports[c] = store.masked_popcount(mask, siblings[c]);
    }
    return 0;
  }

 private:
  bool tiled_;
  RunScope& scope_;
};

template <typename M>
std::unique_ptr<miners::Miner> make_variant(const Config& cfg) {
  return std::make_unique<M>(cfg);
}

/// The Config-driven variants beyond make_all_miners, by registry name.
constexpr std::pair<std::string_view,
                    std::unique_ptr<miners::Miner> (*)(const Config&)>
    kVariants[] = {
        {"GPApriori (eq-class)", &make_variant<EqClassApriori>},
        {"GPApriori (pipelined)", &make_variant<PipelinedGpApriori>},
        {"GPApriori (partitioned)", &make_variant<PartitionedGpApriori>},
        {"GPU Eclat", &make_variant<GpuEclat>},
        {"Hybrid CPU+GPU Apriori", &make_variant<HybridApriori>},
};

}  // namespace

GpApriori::GpApriori(Config cfg) : cfg_(cfg) {
  validate_config(cfg_, "GpApriori");
}

miners::MiningOutput GpApriori::mine(const fim::TransactionDb& db,
                                     const miners::MiningParams& params) {
  history_.clear();
  ledger_.reset();
  report_.reset();
  LevelLoop loop(cfg_, db, params, "mine-level");
  if (loop.num_items() == 0) return loop.level1();

  FaultAwareDevice fdev = make_device(cfg_, loop.scope());
  auto finish = [&](miners::MiningOutput out) {
    ledger_ = fdev.device().ledger();
    report_ = fdev.report();
    report_.device_faults = fdev.device().fault_stats();
    return out;
  };
  // A cancellation that lands between rungs salvages the guaranteed-valid
  // prefix (level 1 came straight out of preprocessing) instead of hopping
  // the ladder: the deadline is the reason to stop, not a fault to survive.
  auto salvaged = [&]() -> std::optional<miners::MiningOutput> {
    RunControl* rc = loop.scope().control();
    if (rc == nullptr) return std::nullopt;
    loop.scope().poll(fdev.device_ms());
    if (!rc->cancelled()) return std::nullopt;
    miners::MiningOutput out = loop.salvage_level1();
    out.device_ms = fdev.device_ms();
    return finish(std::move(out));
  };
  miners::StopWatch lost;
  auto failed = [&](const char* rung, const gpusim::SimError& e) {
    history_.clear();
    fdev.report().time_lost_ms += lost.elapsed_ms();
    fdev.report().push_event(std::string(rung) + " attempt failed: " +
                             e.what());
  };
  auto degrade = [&](DegradationStep step, const char* hop,
                     const std::string& event) {
    fdev.report().degraded_to = step;
    obs::MetricsRegistry::global().add(obs::Counter::kLadderHops, 1);
    obs::TraceRecorder::global().instant(obs::SpanKind::kLadderHop, hop);
    fdev.report().push_event(event);
  };

  // ---- Rung 1: the paper's static-bitset design. ----
  bool oom = false;
  try {
    DeviceCounter counter(fdev, cfg_, &history_);
    return finish(loop.run(counter));
  } catch (const gpusim::SimError& e) {
    oom = dynamic_cast<const gpusim::DeviceOomError*>(&e) != nullptr;
    failed("static-bitset", e);
  }
  if (auto out = salvaged()) return std::move(*out);

  // ---- Rung 2: partitioned streaming, on device OOM only (persistent
  // launch/transfer failure means the device itself is gone — skip to the
  // CPU). The same Device (and fault-plan op counters) carries over. ----
  if (oom) {
    lost.restart();
    try {
      const std::size_t num_trans = loop.num_transactions();
      const std::size_t chunk = partition_chunk_trans(
          cfg_, fdev.device(), num_trans, loop.num_items());
      degrade(DegradationStep::kPartitioned, "degrade:static->partitioned",
              "degraded static -> partitioned streaming (" +
                  std::to_string((num_trans + chunk - 1) / chunk) +
                  " partitions of " + std::to_string(chunk) +
                  " transactions)");
      DeviceCounter counter(fdev, cfg_, &history_);
      return finish(loop.run(counter, chunk));
    } catch (const gpusim::SimError& e) {
      failed("partitioned", e);
    }
    if (auto out = salvaged()) return std::move(*out);
  }

  // ---- Rung 3: CPU_TEST — same algorithm, no device. Always succeeds,
  // and produces the identical (itemset, support) set. ----
  degrade(DegradationStep::kCpu, "degrade:->cpu-test",
          "degraded to CPU_TEST (device abandoned)");
  HostCounter counter(cfg_.tiled, loop.scope());
  return finish(loop.run(counter));
}

miners::MiningOutput CpuBitsetApriori::mine(const fim::TransactionDb& db,
                                            const miners::MiningParams& params) {
  // The device path's host-pipeline knobs, resolved and validated through
  // a Config so they behave identically (GPAPRIORI_HOST_THREADS included).
  Config knobs;
  knobs.run_control = run_control_;
  knobs.compact_level = compact_level_;
  knobs.max_group_size = max_group_size_;
  knobs.host_threads = host_threads_;
  validate_config(knobs, "CpuBitsetApriori");
  LevelLoop loop(knobs, db, params, "cpu-level");
  HostCounter counter(tiled_, loop.scope());
  return loop.run(counter);
}

std::vector<std::unique_ptr<miners::Miner>> make_all_miners(
    const Config& gpapriori_config) {
  std::vector<std::unique_ptr<miners::Miner>> v;
  v.push_back(std::make_unique<GpApriori>(gpapriori_config));
  v.push_back(std::make_unique<CpuBitsetApriori>(
      gpapriori_config.run_control, gpapriori_config.tiled,
      gpapriori_config.compact_level, gpapriori_config.max_group_size,
      gpapriori_config.host_threads));
  for (auto& m : miners::make_cpu_miners()) v.push_back(std::move(m));
  return v;
}

const std::vector<std::string>& miner_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& m : make_all_miners()) v.emplace_back(m->name());
    for (const auto& [name, make] : kVariants) v.emplace_back(name);
    return v;
  }();
  return names;
}

std::unique_ptr<miners::Miner> make_miner(std::string_view name,
                                          const Config& cfg) {
  for (auto& m : make_all_miners(cfg))
    if (name == m->name()) return std::move(m);
  for (const auto& [variant, make] : kVariants)
    if (name == variant) return make(cfg);
  return nullptr;
}

}  // namespace gpapriori
