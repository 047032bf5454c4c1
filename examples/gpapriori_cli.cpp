// gpapriori_cli — command-line frequent-itemset mining over FIMI files,
// the tool a downstream user actually runs. Any algorithm in the library,
// relative or absolute support, optional rule generation and closed/maximal
// condensation, top-K mode, FIMI-style output.
//
//   gpapriori_cli mine <file.dat> [--algo NAME] [--support 0.5 | --count 20]
//                 [--max-size K] [--rules CONF] [--closed | --maximal]
//                 [--out result.txt] [--fault-plan SPEC]
//   gpapriori_cli topk <file.dat> <K>
//   gpapriori_cli serve --requests <file> [--workers N] [--queue-depth N]
//   gpapriori_cli list-algos
//
// Typed device/I-O failures map to distinct exit codes (see usage()):
// 0 ok, 1 other error, 2 device OOM, 3 I/O error, 4 launch failure,
// 5 transfer failure, 64 usage. A degraded run (--fault-plan or real
// device pressure) still exits 0 — results are bit-exact down the whole
// static -> partitioned -> CPU ladder — and prints the ResilienceReport
// to stderr.

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/gpapriori_all.hpp"
#include "core/run_control.hpp"
#include "fim/fim.hpp"
#include "obs/obs.hpp"
#include "serve/mining_service.hpp"
#include "serve/request_io.hpp"

namespace {

// Exit codes, also printed by --help. Usage errors use 64 (sysexits
// EX_USAGE) so they can never be confused with a device OOM.
enum ExitCode {
  kExitOk = 0,
  kExitError = 1,
  kExitDeviceOom = 2,
  kExitIo = 3,
  kExitLaunch = 4,
  kExitTransfer = 5,
  kExitCancelled = 6,
  kExitUsage = 64,
  kExitTempfail = 75,  // sysexits EX_TEMPFAIL: shed by admission, retry later
};

// The active run's controller, for the signal handler. The handler only
// performs an atomic load and an atomic CAS (CancelToken::request), both
// async-signal-safe; everything else — salvage, trace/metrics flush, the
// typed exit code — happens on the normal path because cancellation is
// cooperative.
std::atomic<gpapriori::RunControl*> g_active_run{nullptr};

extern "C" void handle_cancel_signal(int /*sig*/) {
  if (auto* rc = g_active_run.load(std::memory_order_acquire))
    rc->request_cancel(gpusim::CancelCause::kUser);
}

void install_signal_handlers() {
  std::signal(SIGINT, handle_cancel_signal);
  std::signal(SIGTERM, handle_cancel_signal);
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  gpapriori_cli mine <file.dat> [--algo NAME] [--support R | --count "
      "N]\n"
      "                [--max-size K] [--rules CONF] [--closed | --maximal]\n"
      "                [--out FILE] [--fault-plan SPEC] [--host-threads N]\n"
      "                [--no-native] [--no-tiled] [--compact-level 0|1]\n"
      "                [--max-group-size N]\n"
      "                [--trace-out FILE] [--metrics]\n"
      "                [--deadline-ms MS] [--device-budget-ms MS]\n"
      "                [--watchdog-ms MS] [--checkpoint FILE] [--resume "
      "FILE]\n"
      "  gpapriori_cli topk <file.dat> <K>\n"
      "  gpapriori_cli serve --requests FILE [--workers N] [--queue-depth "
      "N]\n"
      "                [--cache-mb N] [--threads-per-request N] [--metrics]\n"
      "                [--trace-out FILE] [--out FILE]\n"
      "                [--default-deadline-ms MS] [--fault-plan SPEC]\n"
      "                [--admission-bytes-mb N] [--max-request-ms MS]\n"
      "                [--max-inflight N] [--hedge-budget N]\n"
      "                [--no-admission] [--no-hedging]\n"
      "  gpapriori_cli list-algos\n"
      "\n"
      "serve executes a batch of mining requests concurrently through the\n"
      "MiningService (shared dataset cache, in-flight dedup, driver\n"
      "planner, cost-based admission, hedged retries) and prints one JSON\n"
      "object per request, in input order; at most --queue-depth requests\n"
      "are outstanding at once, so none is rejected for a full queue. The\n"
      "request file holds one request per line as key=value tokens ('#'\n"
      "comments); a malformed line is answered as status=invalid and the\n"
      "rest of the file still runs:\n"
      "  dataset=PATH [id=NAME] [algo=NAME] support=R|count=N|topk=K\n"
      "  [max-size=K] [rules=CONF] [deadline-ms=MS] [out=PATH]\n"
      "serve exits 0 when every request succeeded, 6 when some were\n"
      "truncated by a deadline but none failed, 75 when some were shed by\n"
      "admission control but none failed outright, 1 otherwise; each JSON\n"
      "line carries the per-request status and exit code. --fault-plan\n"
      "injects a device fault storm into every request (chaos drills);\n"
      "--metrics also prints the service stats as one JSON object.\n"
      "\n"
      "--trace-out FILE writes a Chrome trace_event JSON timeline of the run\n"
      "(load in chrome://tracing or https://ui.perfetto.dev; the\n"
      "GPAPRIORI_TRACE env var has the same effect). --metrics prints the\n"
      "aggregated counter summary (kernel launches, bytes moved, words\n"
      "ANDed, ...) to stderr after mining (env: GPAPRIORI_METRICS).\n"
      "\n"
      "--host-threads N runs independent simulated blocks on N host worker\n"
      "threads (0 = auto: GPAPRIORI_HOST_THREADS env var, else hardware\n"
      "concurrency; 1 = sequential). Output and device statistics are\n"
      "byte-identical for every value; only wall-clock time changes.\n"
      "\n"
      "--no-native interprets every simulated block with the per-thread\n"
      "interpreter, the reference the vectorized whole-block path and its\n"
      "recorded sample are held to. Results and statistics are\n"
      "bit-identical either way; only wall time grows (a 4,605-transaction\n"
      "T40 slice at --support 0.01 and --host-threads 1 on a 4-vCPU x86-64\n"
      "VM: 1.6 s against 0.18 s).\n"
      "\n"
      "--no-tiled disables the equivalence-class tiled support kernel and\n"
      "counts every candidate by complete k-way intersection (identical\n"
      "itemsets either way). --compact-level 0|1 controls vertical bitset\n"
      "compaction: 1 (default) drops the transaction columns with fewer\n"
      "than two frequent items once, after level 1; 0 keeps every column.\n"
      "Compaction is support-invariant, so results never change.\n"
      "--max-group-size N caps the tiled kernel's sibling-group size in\n"
      "[1, 64] (default 64). Oversized equivalence classes are split;\n"
      "supports never change.\n"
      "\n"
      "--fault-plan injects deterministic device faults (GPApriori and the\n"
      "partitioned variant), e.g. --fault-plan \'seed=42;h2d#3=fail;\n"
      "launch#2+=timeout;p_corrupt=0.01\'. Tokens: seed=N,\n"
      "<op>#<n>[+]=<kind> with op in {alloc,h2d,d2h,launch} and kind in\n"
      "{oom,fail,corrupt,timeout,ecc} (\'+\' = that op and all later ones),\n"
      "p_transfer/p_corrupt/p_timeout/p_ecc=X. GPApriori degrades\n"
      "static -> partitioned -> CPU_TEST instead of failing; the\n"
      "ResilienceReport is printed to stderr on degraded runs.\n"
      "\n"
      "Run lifecycle control: --deadline-ms caps wall time,\n"
      "--device-budget-ms caps simulated device time, --watchdog-ms trips\n"
      "cancellation when no progress is made for that long, and Ctrl-C /\n"
      "SIGTERM cancel cooperatively. A cancelled run still prints every\n"
      "fully-counted level (stderr notes the level it stopped at) and\n"
      "exits 6. --checkpoint FILE snapshots the frequent itemsets after\n"
      "every completed level; --resume FILE restarts bit-exactly from such\n"
      "a snapshot (every level-wise algorithm: the GPApriori variants and\n"
      "CPU_TEST; digest-verified against the input dataset).\n"
      "\n"
      "exit codes: 0 ok, 1 error, 2 device out-of-memory, 3 I/O error,\n"
      "            4 kernel-launch failure, 5 transfer failure,\n"
      "            6 cancelled (deadline/watchdog/signal), 64 usage\n");
  return kExitUsage;
}

void list_algos() {
  for (const std::string& name : gpapriori::miner_names())
    std::printf("%s\n", name.c_str());
}

struct Options {
  std::string algo = "GPApriori";
  double support = 0.0;
  fim::Support count = 0;
  std::size_t max_size = 0;
  double rules_conf = -1;
  bool closed = false, maximal = false;
  std::string out_path;
  std::string fault_plan;
  std::string trace_out;
  bool metrics = false;
  std::uint32_t host_threads = 0;
  bool native = true;
  bool tiled = true;
  std::uint32_t compact_level = 1;
  std::uint32_t max_group_size = 0;
  double deadline_ms = 0;
  double device_budget_ms = 0;
  double watchdog_ms = 0;
  std::string checkpoint_path;
  std::string resume_path;
};

bool parse_ms(const char* flag, const char* v, double& out) {
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || !(x > 0)) {
    std::fprintf(stderr, "%s needs a positive number of milliseconds\n", flag);
    return false;
  }
  out = x;
  return true;
}

bool parse_flags(int argc, char** argv, int start, Options& o) {
  for (int i = start; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--algo") {
      const char* v = next("--algo");
      if (!v) return false;
      o.algo = v;
    } else if (a == "--support") {
      const char* v = next("--support");
      if (!v) return false;
      if (!fim::parse_support_ratio(v, o.support)) {
        std::fprintf(stderr,
                     "--support needs a finite value in (0, 1], got '%s'\n", v);
        return false;
      }
    } else if (a == "--count") {
      const char* v = next("--count");
      if (!v) return false;
      std::uint64_t n = 0;
      if (!fim::parse_u64_strict(v, n) || n == 0 || n > 0xffffffffull) {
        std::fprintf(stderr,
                     "--count needs an integer in [1, 2^32), got '%s'\n", v);
        return false;
      }
      o.count = static_cast<fim::Support>(n);
    } else if (a == "--max-size") {
      const char* v = next("--max-size");
      if (!v) return false;
      std::uint64_t n = 0;
      if (!fim::parse_u64_strict(v, n)) {
        std::fprintf(stderr,
                     "--max-size needs an unsigned integer, got '%s'\n", v);
        return false;
      }
      o.max_size = static_cast<std::size_t>(n);
    } else if (a == "--rules") {
      const char* v = next("--rules");
      if (!v) return false;
      if (!fim::parse_confidence(v, o.rules_conf)) {
        std::fprintf(stderr,
                     "--rules needs a confidence in [0, 1], got '%s'\n", v);
        return false;
      }
    } else if (a == "--closed") {
      o.closed = true;
    } else if (a == "--maximal") {
      o.maximal = true;
    } else if (a == "--out") {
      const char* v = next("--out");
      if (!v) return false;
      o.out_path = v;
    } else if (a == "--host-threads") {
      const char* v = next("--host-threads");
      if (!v) return false;
      char* end = nullptr;
      const unsigned long n = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || n > 256) {
        std::fprintf(stderr, "--host-threads needs an integer in [0, 256]\n");
        return false;
      }
      o.host_threads = static_cast<std::uint32_t>(n);
    } else if (a == "--no-native") {
      o.native = false;
    } else if (a == "--no-tiled") {
      o.tiled = false;
    } else if (a == "--compact-level") {
      const char* v = next("--compact-level");
      if (!v) return false;
      char* end = nullptr;
      const unsigned long n = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || n > 1) {
        std::fprintf(stderr, "--compact-level needs 0 or 1\n");
        return false;
      }
      o.compact_level = static_cast<std::uint32_t>(n);
    } else if (a == "--max-group-size") {
      const char* v = next("--max-group-size");
      if (!v) return false;
      char* end = nullptr;
      const unsigned long n = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || n < 1 ||
          n > gpapriori::Config::kGroupSizeCap) {
        std::fprintf(stderr, "--max-group-size needs an integer in [1, %u]\n",
                     gpapriori::Config::kGroupSizeCap);
        return false;
      }
      o.max_group_size = static_cast<std::uint32_t>(n);
    } else if (a == "--trace-out") {
      const char* v = next("--trace-out");
      if (!v) return false;
      o.trace_out = v;
    } else if (a == "--deadline-ms") {
      const char* v = next("--deadline-ms");
      if (!v || !parse_ms("--deadline-ms", v, o.deadline_ms)) return false;
    } else if (a == "--device-budget-ms") {
      const char* v = next("--device-budget-ms");
      if (!v || !parse_ms("--device-budget-ms", v, o.device_budget_ms))
        return false;
    } else if (a == "--watchdog-ms") {
      const char* v = next("--watchdog-ms");
      if (!v || !parse_ms("--watchdog-ms", v, o.watchdog_ms)) return false;
    } else if (a == "--checkpoint") {
      const char* v = next("--checkpoint");
      if (!v) return false;
      o.checkpoint_path = v;
    } else if (a == "--resume") {
      const char* v = next("--resume");
      if (!v) return false;
      o.resume_path = v;
    } else if (a == "--metrics") {
      o.metrics = true;
    } else if (a == "--fault-plan") {
      const char* v = next("--fault-plan");
      if (!v) return false;
      o.fault_plan = v;
    } else if (a.rfind("--fault-plan=", 0) == 0) {
      o.fault_plan = a.substr(std::strlen("--fault-plan="));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

// Turns the observability flags into recorder state. The atexit handlers
// installed by the env-var path are the flush backstop; CLI runs flush
// explicitly after mining so a crash in output formatting cannot lose the
// trace.
void setup_observability(const Options& o) {
  if (!o.trace_out.empty())
    obs::TraceRecorder::global().enable(o.trace_out);
  if (o.metrics) obs::MetricsRegistry::global().enable();
}

void finish_observability(const Options& o) {
  if (!o.trace_out.empty()) {
    if (obs::TraceRecorder::global().flush())
      std::fprintf(stderr, "trace written to %s (%zu spans)\n",
                   o.trace_out.c_str(),
                   obs::TraceRecorder::global().span_count());
    else
      std::fprintf(stderr, "failed to write trace to %s\n",
                   o.trace_out.c_str());
  }
  if (o.metrics)
    std::fputs(obs::MetricsRegistry::global().summary().c_str(), stderr);
}

int cmd_mine(int argc, char** argv) {
  Options o;
  if (!parse_flags(argc, argv, 3, o)) return kExitUsage;
  if (o.support <= 0 && o.count == 0) {
    std::fprintf(stderr, "need --support R (relative) or --count N\n");
    return kExitUsage;
  }
  setup_observability(o);
  gpapriori::RunControlOptions rco;
  rco.deadline_ms = o.deadline_ms;
  rco.device_budget_ms = o.device_budget_ms;
  rco.watchdog_ms = o.watchdog_ms;
  rco.checkpoint_path = o.checkpoint_path;
  rco.resume_path = o.resume_path;
  gpapriori::RunControl run(rco);

  gpapriori::Config cfg;
  cfg.host_threads = o.host_threads;
  cfg.native = o.native;
  cfg.tiled = o.tiled;
  cfg.compact_level = o.compact_level;
  cfg.max_group_size = o.max_group_size;
  cfg.run_control = &run;
  if (!o.fault_plan.empty()) {
    try {
      cfg.fault_plan = gpusim::FaultPlan::parse(o.fault_plan);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bad --fault-plan: %s\n", e.what());
      return kExitUsage;
    }
  }
  auto miner = gpapriori::make_miner(o.algo, cfg);
  if (!miner) {
    std::fprintf(stderr, "unknown algorithm '%s' (see list-algos)\n",
                 o.algo.c_str());
    return kExitUsage;
  }
  const auto db = fim::read_fimi_file(argv[2]);
  miners::MiningParams p;
  p.min_support_ratio = o.support;
  p.min_support_abs = o.count;
  p.max_itemset_size = o.max_size;

  g_active_run.store(&run, std::memory_order_release);
  install_signal_handlers();
  miners::MiningOutput result;
  {
    // Root span of the run: the library's spans nest under it.
    obs::ScopedSpan span(obs::SpanKind::kOther, "mine");
    result = miner->mine(db, p);
  }
  g_active_run.store(nullptr, std::memory_order_release);
  finish_observability(o);

  if (result.truncated()) {
    std::fprintf(stderr,
                 "cancelled (%s) while counting level %zu; %zu completed "
                 "levels salvaged%s\n",
                 result.stop_reason.c_str(), result.truncated_at_level,
                 result.levels.size(),
                 o.checkpoint_path.empty()
                     ? ""
                     : " (checkpoint is resumable with --resume)");
  }

  fim::ItemsetCollection sets = result.itemsets;
  const char* kind = "frequent";
  if (o.closed) {
    sets = fim::filter_closed(sets);
    kind = "closed frequent";
  } else if (o.maximal) {
    sets = fim::filter_maximal(sets);
    kind = "maximal frequent";
  }

  std::fprintf(stderr,
               "%s: %zu transactions, %zu %s itemsets, host %.1f ms, "
               "device %.3f ms\n",
               std::string(miner->name()).c_str(), db.num_transactions(),
               sets.size(), kind, result.host_ms, result.device_ms);

  // Surface the resilience story whenever anything nontrivial happened.
  if (const auto* gp = dynamic_cast<const gpapriori::GpApriori*>(miner.get())) {
    const auto& rep = gp->resilience_report();
    if (rep.degraded() || rep.retries > 0 || rep.corruption_detected > 0 ||
        rep.device_faults.total_injected() > 0)
      std::fprintf(stderr, "%s\n", rep.summary().c_str());
  }

  std::ofstream file;
  std::ostream* out = &std::cout;
  if (!o.out_path.empty()) {
    file.open(o.out_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", o.out_path.c_str());
      return kExitIo;
    }
    out = &file;
  }
  (*out) << sets.to_string();

  if (o.rules_conf >= 0) {
    fim::RuleParams rp;
    rp.min_confidence = o.rules_conf;
    rp.num_transactions = db.num_transactions();
    const auto rules = fim::generate_rules(result.itemsets, rp);
    std::fprintf(stderr, "%zu rules at confidence >= %.2f\n", rules.size(),
                 o.rules_conf);
    for (const auto& r : rules)
      (*out) << r.antecedent.to_string() << " => "
             << r.consequent.to_string() << " (sup " << r.support << ", conf "
             << r.confidence << ", lift " << r.lift << ")\n";
  }
  return result.truncated() ? kExitCancelled : kExitOk;
}

int cmd_topk(int argc, char** argv) {
  if (argc < 4) return usage();
  Options o;
  if (!parse_flags(argc, argv, 4, o)) return kExitUsage;
  // Top-K uses the native rising-threshold algorithm (one level-wise pass,
  // safe on dense data); --algo is not consulted here.
  setup_observability(o);
  std::uint64_t k = 0;
  if (!fim::parse_u64_strict(argv[3], k) || k == 0) {
    std::fprintf(stderr, "topk needs a positive integer K, got '%s'\n",
                 argv[3]);
    return kExitUsage;
  }
  const auto db = fim::read_fimi_file(argv[2]);
  const auto r =
      gpapriori::mine_top_k_native(db, static_cast<std::size_t>(k), o.max_size);
  finish_observability(o);
  std::fprintf(stderr,
               "top-%lu: %zu itemsets (effective min support %u, %zu levels)\n",
               k, r.itemsets.size(), r.effective_min_support,
               r.levels_mined);
  std::printf("%s", r.itemsets.to_string().c_str());
  return kExitOk;
}

int cmd_serve(int argc, char** argv) {
  std::string requests_path, out_path, trace_out, fault_plan;
  serve::ServiceOptions so;
  bool metrics = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    auto next_uint = [&](const char* flag, std::uint64_t max,
                         std::uint64_t& out) {
      const char* v = next(flag);
      if (!v) return false;
      std::uint64_t n = 0;
      if (!fim::parse_u64_strict(v, n) || n > max) {
        std::fprintf(stderr, "%s needs an integer in [0, %llu], got '%s'\n",
                     flag, static_cast<unsigned long long>(max), v);
        return false;
      }
      out = n;
      return true;
    };
    auto next_ms = [&](const char* flag, double& out) {
      const char* v = next(flag);
      if (!v) return false;
      if (!fim::parse_positive(v, out)) {
        std::fprintf(stderr, "%s needs a positive number, got '%s'\n", flag,
                     v);
        return false;
      }
      return true;
    };
    std::uint64_t n = 0;
    if (a == "--requests") {
      const char* v = next("--requests");
      if (!v) return kExitUsage;
      requests_path = v;
    } else if (a == "--workers") {
      if (!next_uint("--workers", 256, n)) return kExitUsage;
      so.workers = static_cast<std::uint32_t>(n);
    } else if (a == "--queue-depth") {
      if (!next_uint("--queue-depth", 1u << 20, n) || n == 0) {
        if (n == 0) std::fprintf(stderr, "--queue-depth must be positive\n");
        return kExitUsage;
      }
      so.max_queue = static_cast<std::size_t>(n);
    } else if (a == "--cache-mb") {
      if (!next_uint("--cache-mb", 1u << 20, n)) return kExitUsage;
      so.cache_bytes = static_cast<std::size_t>(n) << 20;
    } else if (a == "--threads-per-request") {
      if (!next_uint("--threads-per-request", 256, n)) return kExitUsage;
      so.threads_per_request = static_cast<std::uint32_t>(n);
    } else if (a == "--default-deadline-ms") {
      if (!next_ms("--default-deadline-ms", so.default_deadline_ms))
        return kExitUsage;
    } else if (a == "--fault-plan") {
      const char* v = next("--fault-plan");
      if (!v) return kExitUsage;
      fault_plan = v;
    } else if (a == "--admission-bytes-mb") {
      if (!next_uint("--admission-bytes-mb", 1u << 20, n)) return kExitUsage;
      so.admission.device_bytes_budget = static_cast<std::size_t>(n) << 20;
    } else if (a == "--max-request-ms") {
      if (!next_ms("--max-request-ms", so.admission.max_request_wall_ms))
        return kExitUsage;
    } else if (a == "--max-inflight") {
      if (!next_uint("--max-inflight", 1u << 20, n)) return kExitUsage;
      so.admission.max_inflight = static_cast<std::uint32_t>(n);
    } else if (a == "--hedge-budget") {
      if (!next_uint("--hedge-budget", 1u << 30, n)) return kExitUsage;
      so.hedge_budget = n;
    } else if (a == "--no-admission") {
      so.admission.enabled = false;
    } else if (a == "--no-hedging") {
      so.max_hedges_per_request = 0;
    } else if (a == "--metrics") {
      metrics = true;
    } else if (a == "--trace-out") {
      const char* v = next("--trace-out");
      if (!v) return kExitUsage;
      trace_out = v;
    } else if (a == "--out") {
      const char* v = next("--out");
      if (!v) return kExitUsage;
      out_path = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return kExitUsage;
    }
  }
  if (requests_path.empty()) {
    std::fprintf(stderr, "serve needs --requests FILE\n");
    return kExitUsage;
  }
  if (!fault_plan.empty()) {
    try {
      so.base_config.fault_plan = gpusim::FaultPlan::parse(fault_plan);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bad --fault-plan: %s\n", e.what());
      return kExitUsage;
    }
  }
  if (!trace_out.empty()) obs::TraceRecorder::global().enable(trace_out);
  if (metrics) obs::MetricsRegistry::global().enable();

  // A malformed line is answered as a kInvalid result in its place
  // instead of taking the whole batch down with it.
  std::vector<serve::RequestFileEntry> entries;
  try {
    entries = serve::parse_request_file(requests_path);
  } catch (const fim::IoError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kExitIo;
  }
  if (entries.empty()) {
    std::fprintf(stderr, "request file %s holds no requests\n",
                 requests_path.c_str());
    return kExitUsage;
  }

  std::ofstream file;
  std::ostream* out = &std::cout;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return kExitIo;
    }
    out = &file;
  }

  serve::MiningService service(so);
  std::vector<std::optional<std::future<serve::MiningResult>>> futures(
      entries.size());
  bool any_failed = false, any_shed = false, any_truncated = false;
  std::size_t answered = 0;
  // Waits for the oldest unanswered request and prints its answer, so the
  // answers come out in input order.
  auto answer_next = [&] {
    const std::size_t i = answered++;
    serve::MiningResult r;
    if (futures[i]) {
      r = futures[i]->get();
    } else {
      r.id = entries[i].request.id;
      r.status = serve::RequestStatus::kInvalid;
      r.error = requests_path + ":" + entries[i].error;
    }
    (*out) << serve::to_json_line(r) << "\n";
    if (r.status == serve::RequestStatus::kTruncated)
      any_truncated = true;
    else if (r.status == serve::RequestStatus::kRejectedOverload)
      any_shed = true;
    else if (r.status != serve::RequestStatus::kOk)
      any_failed = true;
  };
  // At most --queue-depth requests are outstanding, so the batch never
  // overflows the queue it is submitted to.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i - answered == so.max_queue) answer_next();
    if (entries[i].valid)
      futures[i] = service.submit(std::move(entries[i].request));
  }
  while (answered < entries.size()) answer_next();
  const auto st = service.stats();
  std::fprintf(
      stderr,
      "serve: %llu requests (%llu deduped, %llu rejected, %llu shed, "
      "%llu hedged), cache: %llu/%llu db hits, %llu/%llu layout hits, "
      "%llu evictions\n",
      static_cast<unsigned long long>(st.submitted),
      static_cast<unsigned long long>(st.deduped),
      static_cast<unsigned long long>(st.rejected),
      static_cast<unsigned long long>(st.shed),
      static_cast<unsigned long long>(st.hedges),
      static_cast<unsigned long long>(st.cache.db_hits),
      static_cast<unsigned long long>(st.cache.db_hits + st.cache.db_misses),
      static_cast<unsigned long long>(st.cache.layout_hits),
      static_cast<unsigned long long>(st.cache.layout_hits +
                                      st.cache.layout_misses),
      static_cast<unsigned long long>(st.cache.evictions));
  if (!trace_out.empty()) obs::TraceRecorder::global().flush();
  if (metrics) {
    std::fputs(obs::MetricsRegistry::global().summary().c_str(), stderr);
    std::fprintf(stderr, "service_stats %s\n", serve::to_json(st).c_str());
  }
  if (any_failed) return kExitError;
  if (any_shed) return kExitTempfail;
  return any_truncated ? kExitCancelled : kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "list-algos") == 0) {
      list_algos();
      return kExitOk;
    }
    if (argc >= 3 && std::strcmp(argv[1], "mine") == 0)
      return cmd_mine(argc, argv);
    if (argc >= 3 && std::strcmp(argv[1], "topk") == 0)
      return cmd_topk(argc, argv);
    if (std::strcmp(argv[1], "serve") == 0) return cmd_serve(argc, argv);
  } catch (const gpusim::CancelledError& e) {
    // Backstop: drivers normally salvage instead of letting this escape.
    std::fprintf(stderr, "cancelled: %s\n", e.what());
    return kExitCancelled;
  } catch (const gpusim::DeviceOomError& e) {
    std::fprintf(stderr, "device out of memory: %s\n", e.what());
    return kExitDeviceOom;
  } catch (const gpusim::LaunchError& e) {
    std::fprintf(stderr, "kernel launch failed: %s\n", e.what());
    return kExitLaunch;
  } catch (const gpusim::TransferError& e) {
    std::fprintf(stderr, "host<->device transfer failed: %s\n", e.what());
    return kExitTransfer;
  } catch (const fim::IoError& e) {
    std::fprintf(stderr, "I/O error: %s\n", e.what());
    return kExitIo;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitError;
  }
  return usage();
}
