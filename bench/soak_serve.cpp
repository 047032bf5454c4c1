// Chaos soak for the mining service (DESIGN.md §15, EXPERIMENTS.md
// "serving under overload").
//
// One MiningService takes three waves of requests over three registered
// datasets: a clean wave, a storm wave (sticky launch faults injected
// service-wide, plus random cancellation), and a recovery wave (transient
// fault window that the retry ladder heals, submitted fast enough to trip
// admission shedding). Requests mix threshold sweeps, top-K, rule
// generation, deadlines, pinned and planner-chosen drivers, duplicates
// (dedup fodder) and deliberately malformed entries. Shed requests are
// retried after their retry_after_ms hint, the way a well-behaved client
// would.
//
// Invariants asserted (process exits 1 on any violation):
//   * no hangs — every future resolves within a generous per-wave guard;
//   * every request reaches a terminal status, and only the deliberately
//     malformed ones are kInvalid;
//   * every kOk result is byte-identical to a fault-free serial reference
//     mine (CPU_TEST / native top-K) of the same request — faults,
//     hedging, dedup and cache sharing may change the route, never the
//     answer.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/topk_miner.hpp"
#include "gpusim/fault.hpp"
#include "serve/mining_service.hpp"
#include "serve/request_io.hpp"

#include "../tests/test_util.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * (static_cast<double>(v.size()) - 1.0);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

/// Serial fault-free references, memoized per distinct request shape. All
/// drivers are byte-identical by contract, so CPU_TEST (which never
/// touches the device and cannot be perturbed by a fault plan) is the
/// reference for every threshold request regardless of how the service
/// actually routed it.
class ReferenceOracle {
 public:
  void add_dataset(const std::string& name, const fim::TransactionDb* db) {
    dbs_[name] = db;
  }

  const std::string& threshold(const std::string& dataset, double ratio,
                               std::size_t max_size) {
    char key[128];
    std::snprintf(key, sizeof(key), "t|%s|%.6f|%zu", dataset.c_str(), ratio,
                  max_size);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    miners::MiningParams p;
    p.min_support_ratio = ratio;
    p.max_itemset_size = max_size;
    return memo_[key] = cpu_miner()->mine(*dbs_.at(dataset), p)
                            .itemsets.to_string();
  }

  const std::string& topk(const std::string& dataset, std::size_t k) {
    char key[128];
    std::snprintf(key, sizeof(key), "k|%s|%zu", dataset.c_str(), k);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    return memo_[key] =
               gpapriori::mine_top_k_native(*dbs_.at(dataset), k)
                   .itemsets.to_string();
  }

  [[nodiscard]] std::size_t distinct() const { return memo_.size(); }

 private:
  miners::Miner* cpu_miner() {
    if (!cpu_) {
      gpapriori::Config cfg;
      for (auto& m : gpapriori::make_all_miners(cfg))
        if (m->name() == std::string_view("CPU_TEST")) cpu_ = std::move(m);
      if (!cpu_) {
        std::fprintf(stderr, "soak: no CPU_TEST miner in the registry\n");
        std::exit(2);
      }
    }
    return cpu_.get();
  }

  std::map<std::string, const fim::TransactionDb*> dbs_;
  std::map<std::string, std::string> memo_;
  std::unique_ptr<miners::Miner> cpu_;
};

struct Spec {
  serve::MiningRequest req;
  bool invalid = false;  ///< deliberately malformed: must come back kInvalid
};

struct Tally {
  std::uint64_t ok = 0, truncated = 0, rejected = 0, shed = 0, invalid = 0,
                error = 0;
  void count(serve::RequestStatus s) {
    switch (s) {
      case serve::RequestStatus::kOk: ++ok; break;
      case serve::RequestStatus::kTruncated: ++truncated; break;
      case serve::RequestStatus::kRejected: ++rejected; break;
      case serve::RequestStatus::kRejectedOverload: ++shed; break;
      case serve::RequestStatus::kInvalid: ++invalid; break;
      case serve::RequestStatus::kError: ++error; break;
    }
  }
  [[nodiscard]] std::uint64_t total() const {
    return ok + truncated + rejected + shed + invalid + error;
  }
};

std::uint64_t parse_u64_flag(int argc, char** argv, const char* flag,
                             std::uint64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(argv[i + 1], &end, 10);
      if (end != argv[i + 1] && *end == '\0' && v > 0) return v;
      std::fprintf(stderr, "soak: ignoring %s '%s' (want a positive integer)\n",
                   flag, argv[i + 1]);
    }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::parse_smoke(argc, argv);
  const std::uint64_t seed = parse_u64_flag(argc, argv, "--seed", 20260810);
  const std::size_t total = parse_u64_flag(
      argc, argv, "--requests", smoke ? 72 : 240);

  std::printf("=== serve chaos soak: %zu requests, seed %llu%s ===\n", total,
              static_cast<unsigned long long>(seed), smoke ? " (smoke)" : "");

  // Three dataset shapes: dense-and-deep, moderate, sparse-and-wide.
  const auto dense = testutil::random_db(400, 12, 0.40, 1);
  const auto mid = testutil::random_db(1200, 24, 0.25, 2);
  const auto sparse = testutil::random_db(900, 60, 0.08, 3);
  struct Shape {
    const char* name;
    const fim::TransactionDb* db;
    std::vector<double> supports;
  };
  const Shape shapes[] = {
      {"dense", &dense, {0.30, 0.35, 0.40, 0.45}},
      {"mid", &mid, {0.20, 0.25, 0.30}},
      {"sparse", &sparse, {0.04, 0.05, 0.06}},
  };
  // Deadline-carrying requests mine this shape: about 10^5 frequent
  // itemsets, ~150 ms even on CPU_TEST in a release build, so an 8 or
  // 40 ms deadline fires mid-run and the service must salvage levels.
  const auto deep = testutil::random_db(3000, 30, 0.55, 4);
  const Shape deep_shape{"deep", &deep, {0.05}};

  ReferenceOracle oracle;
  for (const auto& s : shapes) oracle.add_dataset(s.name, s.db);
  oracle.add_dataset(deep_shape.name, deep_shape.db);

  // -- Deterministic mixed workload ----------------------------------------
  std::mt19937_64 rng(seed);
  auto pct = [&rng]() { return static_cast<int>(rng() % 100); };
  // GPApriori's ladder absorbs the storm's device faults; the drivers
  // without a CPU rung surface them, and the service hedges those.
  const char* pinnable[] = {"GPApriori",
                            "GPApriori (partitioned)",
                            "GPApriori (pipelined)",
                            "GPApriori (eq-class)",
                            "Hybrid CPU+GPU Apriori",
                            "GPU Eclat",
                            "CPU_TEST"};
  const std::size_t topks[] = {5, 10, 25};

  std::vector<Spec> specs;
  specs.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    if (i > 0 && pct() < 10) {  // duplicate payload, fresh id: dedup fodder
      Spec dup = specs[rng() % i];
      dup.req.id = "soak-" + std::to_string(i);
      specs.push_back(std::move(dup));
      continue;
    }
    Spec s;
    s.req.id = "soak-" + std::to_string(i);
    const int shape_roll = pct();
    const Shape& sh =
        shapes[shape_roll < 45 ? 0 : shape_roll < 80 ? 1 : 2];
    s.req.dataset = sh.name;
    const int roll = pct();
    if (roll < 3) {  // malformed: unknown algo must come back kInvalid
      s.req.algo = "NO_SUCH_ALGO";
      s.req.min_support_ratio = sh.supports[0];
      s.invalid = true;
    } else if (roll < 13) {
      s.req.top_k = topks[rng() % 3];
    } else {
      s.req.min_support_ratio = sh.supports[rng() % sh.supports.size()];
      if (pct() < 10) s.req.max_itemset_size = 2;
      if (pct() < 40) s.req.algo = pinnable[rng() % std::size(pinnable)];
      if (pct() < 10) s.req.rules_confidence = 0.6;
      if (pct() < 8) {
        s.req.dataset = deep_shape.name;
        s.req.min_support_ratio = deep_shape.supports[0];
        s.req.rules_confidence = 0;
        s.req.deadline_ms = (rng() % 2) ? 8 : 40;
      }
    }
    specs.push_back(std::move(s));
  }

  // Precompute every reference before any chaos starts.
  for (const auto& s : specs) {
    if (s.invalid) continue;
    if (s.req.top_k > 0)
      (void)oracle.topk(s.req.dataset, s.req.top_k);
    else
      (void)oracle.threshold(s.req.dataset, s.req.min_support_ratio,
                             s.req.max_itemset_size);
  }
  std::printf("references: %zu distinct serial mines precomputed\n",
              oracle.distinct());

  // -- The service under test ----------------------------------------------
  serve::ServiceOptions so;
  so.workers = 4;
  so.max_queue = 512;
  so.hedge_budget = 0;  // unlimited for the drill
  so.admission.max_inflight = 12;  // force shedding when a wave lands at once

  serve::MiningService svc(so);
  for (const auto& sh : shapes) svc.register_dataset(sh.name, *sh.db);
  svc.register_dataset(deep_shape.name, deep);

  const std::size_t wave1_begin = total * 2 / 5;
  const std::size_t wave2_begin = total * 7 / 10;
  auto wave_of = [&](std::size_t i) {
    return i < wave1_begin ? 0 : i < wave2_begin ? 1 : 2;
  };

  std::vector<serve::MiningResult> finals(specs.size());
  std::vector<int> shed_retries(specs.size(), 0);
  std::uint64_t total_shed_retries = 0, cancel_hits = 0;

  struct Pending {
    std::size_t spec;
    std::future<serve::MiningResult> fut;
  };

  auto drain_wave = [&](int wave, bool do_cancel) {
    std::vector<Pending> pending;
    for (std::size_t i = 0; i < specs.size(); ++i)
      if (wave_of(i) == wave) pending.push_back({i, svc.submit(specs[i].req)});
    if (do_cancel) {
      // Cancel at once, among requests still queued or running: a request
      // takes a few ms, so after any pause they would all be done. Shed
      // requests are already resolved and are never picked.
      std::vector<std::size_t> open;
      for (std::size_t k = 0; k < pending.size(); ++k)
        if (pending[k].fut.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
          open.push_back(k);
      for (int c = 0; c < 4 && !open.empty(); ++c) {
        const std::size_t pick = rng() % open.size();
        cancel_hits += svc.cancel(specs[pending[open[pick]].spec].req.id);
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    while (!pending.empty()) {
      std::vector<Pending> next;
      for (auto& p : pending) {
        if (p.fut.wait_for(std::chrono::seconds(120)) !=
            std::future_status::ready) {
          std::fprintf(stderr, "soak: HANG — request '%s' never resolved\n",
                       specs[p.spec].req.id.c_str());
          std::fflush(nullptr);
          std::_Exit(1);
        }
        auto r = p.fut.get();
        if (r.status == serve::RequestStatus::kRejectedOverload &&
            r.retry_after_ms > 0 && shed_retries[p.spec] < 6) {
          ++shed_retries[p.spec];
          ++total_shed_retries;
          next.push_back({p.spec, {}});  // resubmitted below, after the nap
        } else {
          finals[p.spec] = std::move(r);
        }
      }
      if (!next.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        for (auto& p : next) p.fut = svc.submit(specs[p.spec].req);
      }
      pending = std::move(next);
    }
  };

  const auto soak_t0 = Clock::now();
  std::printf("wave 0 (clean): requests [0, %zu)\n", wave1_begin);
  drain_wave(0, false);

  std::printf("wave 1 (storm): sticky launch faults + cancellation, "
              "requests [%zu, %zu)\n", wave1_begin, wave2_begin);
  svc.set_fault_plan(gpusim::FaultPlan::parse("launch#1+=timeout"));
  drain_wave(1, true);

  std::printf("wave 2 (recovery): transient fault window, requests "
              "[%zu, %zu)\n", wave2_begin, specs.size());
  svc.set_fault_plan(gpusim::FaultPlan::parse("launch#2-4=timeout"));
  drain_wave(2, false);
  svc.set_fault_plan(gpusim::FaultPlan{});
  const double soak_wall_ms = ms_since(soak_t0);

  // -- Invariants ----------------------------------------------------------
  Tally tally;
  std::uint64_t violations = 0, compared = 0, mismatches = 0;
  std::vector<double> exec_ms, turnaround_ms;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& r = finals[i];
    tally.count(r.status);
    exec_ms.push_back(r.exec_ms);
    turnaround_ms.push_back(r.queue_ms + r.exec_ms);
    if (specs[i].invalid != (r.status == serve::RequestStatus::kInvalid)) {
      std::fprintf(stderr,
                   "soak: FAIL request '%s' status %s (%s); expected %s\n",
                   r.id.c_str(), serve::to_string(r.status), r.error.c_str(),
                   specs[i].invalid ? "invalid" : "a non-invalid terminal");
      ++violations;
    }
    if (specs[i].invalid || r.status != serve::RequestStatus::kOk) continue;
    ++compared;
    const std::string& want =
        specs[i].req.top_k > 0
            ? oracle.topk(specs[i].req.dataset, specs[i].req.top_k)
            : oracle.threshold(specs[i].req.dataset,
                               specs[i].req.min_support_ratio,
                               specs[i].req.max_itemset_size);
    if (r.itemsets.to_string() != want) {
      std::fprintf(stderr,
                   "soak: FAIL request '%s' (algo %s, hedges %u) differs "
                   "from the serial reference — determinism contract broken\n",
                   r.id.c_str(), r.algo.c_str(), r.hedges);
      ++mismatches;
      ++violations;
    }
  }
  if (tally.total() != specs.size()) {
    std::fprintf(stderr, "soak: FAIL %llu terminal results for %zu requests\n",
                 static_cast<unsigned long long>(tally.total()), specs.size());
    ++violations;
  }
  if (tally.ok == 0) {
    std::fprintf(stderr, "soak: FAIL no request completed kOk\n");
    ++violations;
  }
  const auto st = svc.stats();

  std::printf("soak: %zu requests in %.0f ms — ok %llu, truncated %llu, "
              "shed %llu (+%llu client retries), rejected %llu, invalid "
              "%llu, error %llu; %llu cancel hits, %llu hedges; %llu/%llu "
              "kOk results byte-identical\n",
              specs.size(), soak_wall_ms,
              static_cast<unsigned long long>(tally.ok),
              static_cast<unsigned long long>(tally.truncated),
              static_cast<unsigned long long>(tally.shed),
              static_cast<unsigned long long>(total_shed_retries),
              static_cast<unsigned long long>(tally.rejected),
              static_cast<unsigned long long>(tally.invalid),
              static_cast<unsigned long long>(tally.error),
              static_cast<unsigned long long>(cancel_hits),
              static_cast<unsigned long long>(st.hedges),
              static_cast<unsigned long long>(compared - mismatches),
              static_cast<unsigned long long>(compared));

  // -- BENCH json ----------------------------------------------------------
  if (std::ofstream json = bench::open_json("soak_serve")) {
    json << "{\n"
         << "  \"figure\": \"soak\",\n"
         << "  \"bench\": \"soak_serve\",\n"
         << "  \"git_sha\": \"" << bench::json_escape(bench::git_sha())
         << "\",\n"
         << bench::provenance_json_fields()
         << "  \"seed\": " << seed << ",\n"
         << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
         << "  \"requests\": " << specs.size() << ",\n"
         << "  \"soak_wall_ms\": " << bench::json_number(soak_wall_ms)
         << ",\n"
         << "  \"status_counts\": {\"ok\": " << tally.ok
         << ", \"truncated\": " << tally.truncated
         << ", \"rejected\": " << tally.rejected
         << ", \"shed\": " << tally.shed
         << ", \"invalid\": " << tally.invalid
         << ", \"error\": " << tally.error << "},\n"
         << "  \"shed_retries\": " << total_shed_retries << ",\n"
         << "  \"cancel_hits\": " << cancel_hits << ",\n"
         << "  \"hangs\": 0,\n"
         << "  \"compared\": " << compared << ",\n"
         << "  \"mismatches\": " << mismatches << ",\n"
         << "  \"turnaround_p50_ms\": "
         << bench::json_number(percentile(turnaround_ms, 0.50)) << ",\n"
         << "  \"turnaround_p95_ms\": "
         << bench::json_number(percentile(turnaround_ms, 0.95)) << ",\n"
         << "  \"exec_p50_ms\": "
         << bench::json_number(percentile(exec_ms, 0.50)) << ",\n"
         << "  \"exec_p95_ms\": "
         << bench::json_number(percentile(exec_ms, 0.95)) << ",\n"
         << "  \"service_stats\": " << serve::to_json(st) << ",\n"
         << "  \"pass\": " << (violations == 0 ? "true" : "false") << "\n"
         << "}\n";
  }

  if (violations > 0) {
    std::fprintf(stderr, "soak: FAIL (%llu violations)\n",
                 static_cast<unsigned long long>(violations));
    return 1;
  }
  std::printf("soak: PASS\n");
  return 0;
}
