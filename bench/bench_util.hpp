#pragma once
// Shared harness for the paper-reproduction benches.
//
// Each fig6* binary sweeps one dataset over its minimum-support range and
// prints, per support value, every miner's total runtime plus the two
// numbers the paper's §V discusses: speedup relative to Borgelt Apriori
// (the normalization used in Fig. 6) and GPApriori's speedup over CPU_TEST
// (the offload gain).
//
// Scale: by default each dataset is generated at a reduced transaction
// count so the whole suite runs in minutes on one host core. Set
// GPAPRIORI_BENCH_SCALE=full (or a float in (0,1]) to override; shapes —
// who wins, by roughly what factor, where the curves cross — hold at both
// scales. EXPERIMENTS.md records the scale used for the committed numbers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/gpapriori_all.hpp"
#include "core/run_control.hpp"
#include "datagen/datagen.hpp"
#include "fim/bit_kernels.hpp"
#include "fim/fim.hpp"
#include "gpusim/executor.hpp"
#include "obs/obs.hpp"
#include "gpapriori_provenance.hpp"  // generated at build time

namespace bench {

/// Exit code a cancelled sweep reports, matching gpapriori_cli's mapping.
inline constexpr int kExitCancelled = 6;

/// The sweep's active run controller, for the signal handler (atomic load
/// + CancelToken CAS only — async-signal-safe). The sweep loop notices the
/// tripped token cooperatively, stops, and still writes the CSV/JSON tail.
inline std::atomic<gpapriori::RunControl*> g_active_run{nullptr};

extern "C" inline void bench_handle_cancel_signal(int /*sig*/) {
  if (auto* rc = g_active_run.load(std::memory_order_acquire))
    rc->request_cancel(gpusim::CancelCause::kUser);
}

inline void install_signal_handlers() {
  std::signal(SIGINT, bench_handle_cancel_signal);
  std::signal(SIGTERM, bench_handle_cancel_signal);
}

/// Parses the run-lifecycle flags shared with gpapriori_cli:
/// --deadline-ms MS, --device-budget-ms MS, --watchdog-ms MS (each a
/// positive float; bad values warned and ignored).
inline gpapriori::RunControlOptions parse_run_control(int argc, char** argv) {
  gpapriori::RunControlOptions rco;
  auto grab = [&](const char* flag, const char* arg, double& out) {
    char* end = nullptr;
    const double v = std::strtod(arg, &end);
    if (end != arg && *end == '\0' && std::isfinite(v) && v > 0) {
      out = v;
      return;
    }
    std::fprintf(stderr,
                 "bench: ignoring %s '%s' (want a positive float, ms)\n", flag,
                 arg);
  };
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--deadline-ms") == 0)
      grab("--deadline-ms", argv[i + 1], rco.deadline_ms);
    else if (std::strcmp(argv[i], "--device-budget-ms") == 0)
      grab("--device-budget-ms", argv[i + 1], rco.device_budget_ms);
    else if (std::strcmp(argv[i], "--watchdog-ms") == 0)
      grab("--watchdog-ms", argv[i + 1], rco.watchdog_ms);
  }
  return rco;
}

/// Strict parse of GPAPRIORI_BENCH_SCALE (same discipline as
/// resolve_host_threads in gpusim/executor.cpp): the whole value must be a
/// float in (0, 1] or the literal "full". Trailing garbage ("0.5x") is
/// rejected with a warning instead of silently truncating.
inline double resolve_scale(double default_scale) {
  const char* env = std::getenv("GPAPRIORI_BENCH_SCALE");
  if (!env || *env == '\0') return default_scale;
  if (std::strcmp(env, "full") == 0) return 1.0;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end != env && *end == '\0' && std::isfinite(v) && v > 0.0 && v <= 1.0)
    return v;
  std::fprintf(stderr,
               "bench: ignoring GPAPRIORI_BENCH_SCALE='%s' (want a float in "
               "(0, 1] or 'full'); using %g\n",
               env, default_scale);
  return default_scale;
}

/// Miners a given figure includes. The paper shows Goethals Apriori only in
/// Fig. 6(a) "because it performs very slowly on the other three datasets";
/// we reproduce that choice (and additionally cap it at moderate supports).
struct FigureOptions {
  bool include_goethals = false;
  double goethals_min_support = 0.0;  ///< skip Goethals below this
  bool include_extensions = true;     ///< Eclat / FP-Growth (beyond Table 1)
  gpapriori::Config gpu_config;
  /// Timed passes per miner per support point; wall_ms reports the median.
  /// With repeat > 1 an extra untimed warmup pass runs first. Fig6 mains
  /// set this from --repeat N.
  int repeat = 1;
  /// Run lifecycle limits (deadline, device budget, watchdog), applied per
  /// miner run. Fig6 mains fill this from parse_run_control.
  gpapriori::RunControlOptions run_control;
  /// --smoke: quick regression probe. Only the first support point, only
  /// GPApriori + CPU_TEST, one timed pass — a few seconds instead of the
  /// full sweep. scripts/smoke_check.py diffs the resulting BENCH json
  /// against the committed one.
  bool smoke = false;
};

/// Parses --smoke from a bench binary's argv.
inline bool parse_smoke(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  return false;
}

/// Parses --repeat N from a bench binary's argv (ignores everything else).
/// N must be a whole decimal integer >= 1; values with trailing garbage
/// ("3abc") or out of range are rejected with a warning.
inline int parse_repeat(int argc, char** argv, int fallback = 1) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--repeat") == 0) {
      const char* arg = argv[i + 1];
      char* end = nullptr;
      const unsigned long n = std::strtoul(arg, &end, 10);
      if (end != arg && *end == '\0' && n >= 1 && n <= 1000)
        return static_cast<int>(n);
      std::fprintf(stderr,
                   "bench: ignoring --repeat '%s' (want an integer in "
                   "[1, 1000]); using %d\n",
                   arg, fallback);
    }
  return fallback;
}

/// Parses --trace-out FILE from a bench binary's argv and, when present,
/// enables the global TraceRecorder with that output path (run_figure
/// flushes it when the sweep finishes; the atexit handler is the backstop).
inline void setup_trace(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--trace-out") == 0) {
      obs::TraceRecorder::global().enable(argv[i + 1]);
      return;
    }
}

/// Escapes a string for embedding in a JSON string literal.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Renders a double as a JSON number; NaN/inf (Borgelt skipped, zero-time
/// runs) become null so the file always stays valid JSON.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

inline void print_dataset_header(const datagen::DatasetProfile& prof,
                                 const fim::TransactionDb& db, double scale) {
  const auto stats = fim::compute_stats(db);
  std::printf("dataset %s: scale %.3g -> %zu transactions, %zu items, "
              "avg length %.1f (paper: %zu trans, %zu items, %.0f)\n",
              prof.name.c_str(), scale, stats.num_transactions,
              stats.distinct_items, stats.avg_transaction_length,
              prof.paper_trans, prof.paper_items, prof.paper_avg_len);
  std::printf("device: %s\n\n",
              gpusim::DeviceProperties::tesla_t10().name.c_str());
}

/// Plot-ready series file written next to the console output. Directory
/// taken from GPAPRIORI_BENCH_CSV_DIR (default: current directory); set it
/// to an empty string to disable.
inline std::ofstream open_csv(const std::string& stem) {
  const char* dir = std::getenv("GPAPRIORI_BENCH_CSV_DIR");
  if (dir && *dir == '\0') return {};
  const std::string path = std::string(dir ? dir : ".") + "/" + stem + ".csv";
  std::ofstream csv(path);
  if (csv)
    csv << "minsup,miner,host_ms,device_ms,total_ms,itemsets,"
           "candgen_ms,flatten_ms,build_ms,emit_ms\n";
  return csv;
}

/// Commit the numbers were produced at: GPAPRIORI_GIT_SHA env var when set
/// (CI), else the commit the binary was built from ("unknown" outside a
/// git checkout).
inline std::string git_sha() {
  if (const char* env = std::getenv("GPAPRIORI_GIT_SHA"); env && *env)
    return env;
  return GPAPRIORI_GIT_SHA;
}

/// Provenance fields every BENCH json carries after "git_sha": whether
/// tracked files differed from that commit at build time (null outside a
/// git checkout), the host's core count, and the AND + popcount path CPUID
/// chose (fim/bit_kernels.hpp).
inline std::string provenance_json_fields() {
  return std::string("  \"dirty\": ") + GPAPRIORI_GIT_DIRTY + ",\n" +
         "  \"cores\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n" +
         "  \"popcount_path\": \"" + fim::bits::active().name + "\",\n";
}

/// Machine-readable result file: results/BENCH_<stem>.json (directory from
/// GPAPRIORI_BENCH_JSON_DIR, default "results"; empty string disables).
/// Unlike the CSV it also records provenance — git SHA, scale, resolved
/// host thread count — and real wall-clock per miner run, which is where
/// the block-parallel executor shows up (simulated device_ms is invariant).
inline std::ofstream open_json(const std::string& stem) {
  const char* dir = std::getenv("GPAPRIORI_BENCH_JSON_DIR");
  if (dir && *dir == '\0') return {};
  const std::string d = dir ? dir : "results";
  std::error_code ec;
  std::filesystem::create_directories(d, ec);
  return std::ofstream(d + "/BENCH_" + stem + ".json");
}

/// Runs the full Fig. 6-style sweep for one dataset profile. `stem` names
/// the machine-readable output (results/BENCH_<stem>.json). Returns the
/// process exit code: 0, or kExitCancelled when a deadline / watchdog /
/// signal stopped the sweep early (the CSV/JSON tail is still written).
inline int run_figure(const char* figure_id, const char* stem,
                      datagen::DatasetId id, double default_scale,
                      const FigureOptions& opts) {
  const auto& prof = datagen::profile(id);
  const double scale = resolve_scale(default_scale);
  const auto db = prof.generate(scale);
  std::ofstream csv = open_csv("fig6_" + prof.name);
  std::ofstream json = open_json(stem);

  gpapriori::RunControl run(opts.run_control);
  gpapriori::Config gcfg = opts.gpu_config;
  gcfg.run_control = &run;
  g_active_run.store(&run, std::memory_order_release);
  install_signal_handlers();
  bool cancelled = false;

  // Aggregate counters for the whole sweep; the BENCH json carries them in
  // a "metrics" block so regressions in work volume (words ANDed, bytes
  // moved) are visible next to the timing numbers they explain.
  auto& metrics = obs::MetricsRegistry::global();
  metrics.reset();
  metrics.enable();

  gpusim::ExecutorOptions eo;
  eo.host_threads = opts.gpu_config.host_threads;
  const std::uint32_t host_threads = gpusim::resolve_host_threads(eo);
  const bool native = opts.gpu_config.native;
  const int repeat = opts.smoke ? 1 : opts.repeat;

  if (json) {
    json << "{\n"
         << "  \"figure\": \"" << json_escape(figure_id) << "\",\n"
         << "  \"dataset\": \"" << json_escape(prof.name) << "\",\n"
         << "  \"scale\": " << json_number(scale) << ",\n"
         << "  \"git_sha\": \"" << json_escape(git_sha()) << "\",\n"
         << provenance_json_fields()
         << "  \"host_threads\": " << host_threads << ",\n"
         << "  \"exec_path\": \"" << (native ? "native" : "interpreted")
         << "\",\n"
         << "  \"tiled\": " << (opts.gpu_config.tiled ? "true" : "false")
         << ",\n"
         << "  \"compact_level\": " << opts.gpu_config.compact_level << ",\n"
         << "  \"max_group_size\": "
         << opts.gpu_config.resolve_max_group_size() << ",\n"
         << "  \"smoke\": " << (opts.smoke ? "true" : "false") << ",\n"
         << "  \"repeat\": " << repeat << ",\n"
         << "  \"device\": \""
         << json_escape(gpusim::DeviceProperties::tesla_t10().name)
         << "\",\n"
         << "  \"rows\": [";
  }
  bool first_row = true;

  std::printf("=== %s: runtime vs minimum support, %s ===\n", figure_id,
              prof.name.c_str());
  print_dataset_header(prof, db, scale);

  // Table 1 inventory, printed once per figure.
  std::printf("%-20s %s\n", "Algorithm", "Platform");
  for (auto& m : gpapriori::make_all_miners(opts.gpu_config))
    std::printf("%-20s %s\n", std::string(m->name()).c_str(),
                std::string(m->platform()).c_str());
  std::printf("\n");

  std::printf("%-8s %-18s %12s %12s %12s %10s %10s %10s\n", "minsup", "miner",
              "host_ms", "device_ms", "total_ms", "wall_ms", "vs_borgelt",
              "#itemsets");
  for (double sup : prof.support_sweep) {
    miners::MiningParams params;
    params.min_support_ratio = sup;

    double borgelt_ms = 0;
    struct Row {
      std::string name;
      miners::MiningOutput out;
      double wall_ms, wall_ms_min, wall_ms_max;
    };
    std::vector<Row> rows;
    for (auto& miner : gpapriori::make_all_miners(gcfg)) {
      const std::string name{miner->name()};
      if (opts.smoke && name != "GPApriori" && name != "CPU_TEST") continue;
      if (name == "Goethals Apriori" &&
          (!opts.include_goethals || sup < opts.goethals_min_support))
        continue;
      if (!opts.include_extensions &&
          (name.starts_with("Eclat") || name == "FP-Growth"))
        continue;
      // repeat > 1: one untimed warmup, then median-of-N wall clock (the
      // mining output is deterministic, so every pass returns identical
      // itemsets and the warmup result can be discarded).
      if (repeat > 1) (void)miner->mine(db, params);
      std::vector<double> walls;
      miners::MiningOutput out;
      for (int rep = 0; rep < repeat; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        out = miner->mine(db, params);
        walls.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
      }
      std::sort(walls.begin(), walls.end());
      const double wall_ms =
          walls.size() % 2 == 1
              ? walls[walls.size() / 2]
              : 0.5 * (walls[walls.size() / 2 - 1] + walls[walls.size() / 2]);
      if (out.truncated()) {
        // Deadline/watchdog/signal: the partial row is not comparable, so
        // drop it and stop the sweep; finished rows still go out below.
        std::fprintf(stderr,
                     "bench: sweep cancelled (%s) during %s at minsup %g "
                     "(level %zu); writing completed results\n",
                     out.stop_reason.c_str(), name.c_str(), sup,
                     out.truncated_at_level);
        cancelled = true;
        break;
      }
      if (name == "Borgelt Apriori") borgelt_ms = out.total_ms();
      rows.push_back(
          {name, std::move(out), wall_ms, walls.front(), walls.back()});
    }
    for (const auto& [name, out, wall_ms, wall_min, wall_max] : rows) {
      const double speedup =
          borgelt_ms > 0 ? borgelt_ms / out.total_ms() : 0.0;
      std::printf("%-8.4g %-18s %12.2f %12.3f %12.2f %12.1f %9.2fx %10zu\n",
                  sup, name.c_str(), out.host_ms, out.device_ms,
                  out.total_ms(), wall_ms, speedup, out.itemsets.size());
      const miners::HostPhases& hp = out.host_phases;
      if (csv)
        csv << sup << ',' << name << ',' << out.host_ms << ','
            << out.device_ms << ',' << out.total_ms() << ','
            << out.itemsets.size() << ',' << hp.candgen_ms << ','
            << hp.flatten_ms << ',' << hp.build_ms << ',' << hp.emit_ms
            << '\n';
      if (json) {
        json << (first_row ? "\n" : ",\n")
             << "    {\"minsup\": " << json_number(sup) << ", \"miner\": \""
             << json_escape(name)
             << "\", \"host_ms\": " << json_number(out.host_ms)
             << ", \"device_ms\": " << json_number(out.device_ms)
             << ", \"total_ms\": " << json_number(out.total_ms())
             << ", \"wall_ms\": " << json_number(wall_ms)
             << ", \"wall_ms_min\": " << json_number(wall_min)
             << ", \"wall_ms_max\": " << json_number(wall_max)
             << ", \"itemsets\": " << out.itemsets.size()
             << ", \"candgen_ms\": " << json_number(hp.candgen_ms)
             << ", \"flatten_ms\": " << json_number(hp.flatten_ms)
             << ", \"build_ms\": " << json_number(hp.build_ms)
             << ", \"emit_ms\": " << json_number(hp.emit_ms)
             << ", \"candgen_shards\": " << hp.candgen_shards
             << ", \"speedup_vs_borgelt\": " << json_number(speedup) << "}";
        first_row = false;
      }
    }
    // The §V headline comparison for this support point.
    double gpu = -1, cpu = -1;
    for (const auto& row : rows) {
      if (row.name == "GPApriori") gpu = row.out.total_ms();
      if (row.name == "CPU_TEST") cpu = row.out.total_ms();
    }
    if (gpu > 0 && cpu > 0)
      std::printf("         -> GPApriori vs CPU_TEST: %.2fx\n", cpu / gpu);
    std::printf("\n");
    if (cancelled) break;
    if (opts.smoke) break;  // first support point only
  }
  if (json)
    json << "\n  ],\n  \"cancelled\": " << (cancelled ? "true" : "false")
         << ",\n  \"metrics\": " << metrics.to_json(2) << "\n}\n";
  // Persist any trace the sweep produced now, while the output path is
  // still known-good (the atexit flush would also catch it).
  obs::TraceRecorder::global().flush();
  g_active_run.store(nullptr, std::memory_order_release);
  return cancelled ? kExitCancelled : 0;
}

}  // namespace bench
