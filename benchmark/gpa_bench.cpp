// gpa_bench: the single-process workload runner behind benchmark/run.py.
//
//   gpa_bench prepare --data DIR --workload W --seed N
//   gpa_bench run     --data DIR --workload W --seed N --seconds S
//                     [--ref FILE] [--traced-seconds T --trace-out FILE]
//                     --out FILE
//
// `prepare` writes the workload's FIMI files and a reference file holding
// the canonical itemset digest of every request shape, computed with the
// independent FP-Growth baseline (top-K shapes: a serial native top-K run).
// It runs in its own process, so data generation never touches a metric.
//
// `run` sets the workload up five times (parse, construction, one untimed
// warm pass per shape), then measures it for S seconds with tracing off.
// It also times a fixed reference unit of its own work, which run.py uses
// to scale every time to one machine speed (see "Machine speed" below).
// With --traced-seconds it measures again with obs tracing and metrics on,
// runs the layer probes (device construction, checkpoint write/read) and
// writes the Chrome trace for layers.py. Every completed request's digest
// is checked against the reference outside the timed region. Raw samples
// go to --out as JSON; run.py turns them into metrics.
//
// The program is only ever driven through public library entry points:
// fim::read_fimi_file, Miner::mine, ItemsetCollection::to_string,
// MiningService::submit, gpusim::Device's constructor and
// MiningCheckpoint::write/read.

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/fpgrowth.hpp"
#include "core/gpapriori_all.hpp"
#include "core/run_control.hpp"
#include "datagen/datagen.hpp"
#include "fim/checkpoint.hpp"
#include "fim/fimi_io.hpp"
#include "gpusim/device_context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/mining_service.hpp"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Captured during static initialisation, before main: the start of the
// workload process as far as setup_s is concerned.
const Clock::time_point g_process_start = Clock::now();

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "gpa_bench: %s\n", msg.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workload definitions

struct DatasetSpec {
  const char* file;
  datagen::DatasetId id;
  double scale;
};

constexpr DatasetSpec kChess{"chess.dat", datagen::DatasetId::kChess, 1.0};
constexpr DatasetSpec kT40{"t40.dat", datagen::DatasetId::kT40I10D100K, 0.05};
constexpr DatasetSpec kPumsb{"pumsb.dat", datagen::DatasetId::kPumsb, 0.2};
constexpr DatasetSpec kAccidents{"accidents.dat",
                                 datagen::DatasetId::kAccidents, 0.1};

/// One request shape: what a request computes, which fixes its answer.
struct Shape {
  std::string file;
  double support = 0;     ///< threshold shapes
  std::size_t top_k = 0;  ///< top-K shapes (support unused)

  [[nodiscard]] std::string key() const {
    char buf[64];
    if (top_k > 0)
      std::snprintf(buf, sizeof(buf), "top%zu", top_k);
    else
      std::snprintf(buf, sizeof(buf), "%.6g", support);
    return file + "@" + buf;
  }
};

/// The requests a serve-mix client sends: 80% unpinned threshold requests
/// over the twelve high-support points of fig6b/c/d, 10% threshold
/// requests pinned to CPU_TEST, 10% top-K.
constexpr double kServeRate = 6.0;  ///< open-loop arrivals per second
constexpr std::size_t kServeTopK = 100;
constexpr std::size_t kServeTouchEvery = 60;  ///< stale-file rewrite period
constexpr double kServeGoodMs = 1000;         ///< goodput latency limit
/// Smallest gap before the next arrival in which the generator runs a
/// reference unit (which takes about 15 ms).
constexpr double kServeReferenceGapMs = 60;

struct WorkloadSpec {
  std::string name;
  std::vector<DatasetSpec> datasets;
  std::vector<Shape> shapes;  ///< every shape the workload requests
  std::uint32_t host_threads = 2;
};

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "chess-dense") {
    w.datasets = {kChess};
    w.shapes = {{kChess.file, 0.8}};
  } else if (name == "t40-kernel") {
    w.datasets = {kT40};
    w.shapes = {{kT40.file, 0.01}};
  } else if (name == "pumsb-host") {
    w.datasets = {kPumsb};
    w.shapes = {{kPumsb.file, 0.8}};
  } else if (name == "serve-mix") {
    w.datasets = {kChess, kPumsb, kAccidents};
    for (double s : {0.95, 0.9, 0.85, 0.8})
      w.shapes.push_back({kChess.file, s});
    for (double s : {0.92, 0.9, 0.875, 0.85})
      w.shapes.push_back({kPumsb.file, s});
    for (double s : {0.9, 0.8, 0.7, 0.6})
      w.shapes.push_back({kAccidents.file, s});
    for (const auto& d : w.datasets)
      w.shapes.push_back({d.file, 0, kServeTopK});
    w.host_threads = 1;  // ServiceOptions::threads_per_request
  } else {
    die("unknown workload '" + name +
        "' (chess-dense, t40-kernel, pumsb-host, serve-mix)");
  }
  return w;
}

/// Seeded stream for one purpose: a seed mixed with a salt naming the
/// purpose, so no two purposes share draws.
std::mt19937_64 seeded(std::uint64_t seed, std::uint64_t salt) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(salt),
                    static_cast<std::uint32_t>(salt >> 32)};
  return std::mt19937_64(seq);
}

double uniform01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

// ---------------------------------------------------------------------------
// Digests and references

std::uint64_t digest_text(const std::string& text) {
  return fim::fnv1a_bytes(text.data(), text.size());
}

struct Reference {
  std::size_t count = 0;
  std::uint64_t digest = 0;
};
using References = std::map<std::string, Reference>;

References load_references(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read reference file " + path);
  References refs;
  std::string key, hex;
  std::size_t count = 0;
  while (in >> key >> count >> hex)
    refs[key] = {count, std::stoull(hex, nullptr, 16)};
  if (refs.empty()) die("empty reference file " + path);
  return refs;
}

/// Every request outcome that is not a correct answer, by cause.
struct Failures {
  std::uint64_t exceptions = 0;
  std::uint64_t bad_status = 0;  ///< serve: non-kOk, including shed/rejected
  std::uint64_t mismatches = 0;  ///< digest or count differs from reference
};

bool matches(const References& refs, const std::string& key,
             const std::string& text, std::size_t count) {
  const auto it = refs.find(key);
  if (it == refs.end()) die("no reference for shape " + key);
  return it->second.count == count && it->second.digest == digest_text(text);
}

// ---------------------------------------------------------------------------
// Prepare

fim::TransactionDb permuted(const fim::TransactionDb& db, std::uint64_t seed) {
  std::vector<std::size_t> order(db.num_transactions());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto rng = seeded(seed, 0x7065726dULL);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng() % i]);
  fim::TransactionDb::Builder b;
  for (std::size_t t : order) {
    const auto tx = db.transaction(t);
    b.add(std::vector<fim::Item>(tx.begin(), tx.end()));
  }
  return std::move(b).build();
}

int cmd_prepare(const WorkloadSpec& w, const std::string& dir,
                std::uint64_t seed) {
  fs::create_directories(dir);
  // The seed permutes the transaction order of each profile's fixed
  // dataset: inputs differ per seed while every request's answer and
  // modeled work stay the same, so runs on different seeds compare.
  for (const auto& d : w.datasets) {
    const auto db = datagen::profile(d.id).generate(d.scale, 0);
    fim::write_fimi_file(permuted(db, seed), dir + "/" + d.file);
  }
  std::ostringstream refs;
  std::map<std::string, fim::TransactionDb> parsed;
  for (const auto& s : w.shapes) {
    auto it = parsed.find(s.file);
    if (it == parsed.end())
      it = parsed.emplace(s.file, fim::read_fimi_file(dir + "/" + s.file))
               .first;
    fim::ItemsetCollection sets;
    if (s.top_k > 0) {
      sets = gpapriori::mine_top_k_native(it->second, s.top_k).itemsets;
    } else {
      miners::MiningParams p;
      p.min_support_ratio = s.support;
      sets = miners::FpGrowth().mine(it->second, p).itemsets;
    }
    const std::string text = sets.to_string();
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest_text(text)));
    refs << s.key() << ' ' << sets.size() << ' ' << hex << '\n';
  }
  const std::string tmp = dir + "/ref.txt.tmp";
  {
    std::ofstream out(tmp);
    out << refs.str();
    if (!out) die("cannot write " + tmp);
  }
  fs::rename(tmp, dir + "/ref.txt");
  return 0;
}

// ---------------------------------------------------------------------------
// Measurement records

/// User plus system CPU time, ms, of the whole process (RUSAGE_SELF) or of
/// the calling thread (RUSAGE_THREAD).
double cpu_ms(int who = RUSAGE_SELF) {
  rusage ru{};
  getrusage(who, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// One measured phase (untraced or traced). Its CPU time, and a closed
/// loop's elapsed time, exclude the reference units run during it.
struct Phase {
  double elapsed_ms = 0;       ///< first request start to last completion
  double cpu_ms = 0;           ///< user+sys over the phase
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;  ///< finished, whatever the outcome
  std::uint64_t good = 0;       ///< correct (and, open loop, in time)
  Failures failures;
  std::vector<double> latency_ms;  ///< correct completions only
  std::vector<double> end_ms;  ///< completion of each, from phase start
  std::vector<double> gen_lag_ms;  ///< open loop: submit time minus due time
  std::vector<double> ref_at_ms;   ///< start of each reference unit
  std::vector<double> ref_ms;      ///< wall time of each reference unit
  std::string extra_json;          ///< workload-specific per-request detail
};

// ---------------------------------------------------------------------------
// Machine speed
//
// The benchmark runs on shared machines whose speed drifts by 10-30% over
// seconds to minutes, on every core at once. Request times and CPU times
// move with it, so the spread between runs of the same code is wider than
// any useful regression bound. The benchmark therefore times a fixed unit
// of its own work between requests, and run.py scales each time by the
// ratio of the unit's nominal time to its time measured nearby. The unit
// mixes the kinds of work a request does: integer arithmetic, faulting in
// fresh pages, and streaming through memory larger than the private caches.

/// The reference unit's wall time on a quiet machine of the kind the
/// benchmark was defined on (4-vCPU x86-64 VM, 2.0 GHz Xeon), ms. Results
/// are scaled to this speed; it is a unit of measure and never changes.
constexpr double kReferenceNominalMs = 14.0;
constexpr std::size_t kReferenceBytes = std::size_t{16} << 20;
volatile unsigned char g_reference_sink = 0;

/// Wall time of one reference unit, ms.
double reference_unit_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 2'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  void* mem = mmap(nullptr, kReferenceBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) die("cannot map the reference unit's buffer");
  auto* bytes = static_cast<unsigned char*>(mem);
  for (std::size_t i = 0; i < kReferenceBytes; i += 4096)
    bytes[i] = static_cast<unsigned char>(x);
  for (int pass = 0; pass < 2; ++pass) {
    std::memset(bytes, pass + static_cast<int>(x & 1), kReferenceBytes);
    asm volatile("" : : "r"(bytes) : "memory");  // keep both passes
  }
  g_reference_sink = bytes[kReferenceBytes / 2];
  munmap(mem, kReferenceBytes);
  return ms_between(t0, Clock::now());
}

/// Runs one reference unit on this thread and records it in `p`, timed
/// from `t0`. Returns the CPU time it used, ms.
double sample_reference(Phase& p, Clock::time_point t0) {
  const double cpu0 = cpu_ms(RUSAGE_THREAD);
  const auto start = Clock::now();
  p.ref_ms.push_back(reference_unit_ms());
  p.ref_at_ms.push_back(ms_between(t0, start));
  return cpu_ms(RUSAGE_THREAD) - cpu0;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ',';
    s += json_num(v[i]);
  }
  return s + "]";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string phase_json(const Phase& p) {
  std::ostringstream o;
  o << "{\"elapsed_ms\": " << json_num(p.elapsed_ms)
    << ", \"cpu_ms\": " << json_num(p.cpu_ms)
    << ", \"attempted\": " << p.attempted
    << ", \"completed\": " << p.completed << ", \"good\": " << p.good
    << ", \"exceptions\": " << p.failures.exceptions
    << ", \"bad_status\": " << p.failures.bad_status
    << ", \"mismatches\": " << p.failures.mismatches
    << ", \"latency_ms\": " << json_list(p.latency_ms)
    << ", \"end_ms\": " << json_list(p.end_ms)
    << ", \"gen_lag_ms\": " << json_list(p.gen_lag_ms)
    << ", \"ref_at_ms\": " << json_list(p.ref_at_ms)
    << ", \"ref_ms\": " << json_list(p.ref_ms);
  if (!p.extra_json.empty()) o << ", " << p.extra_json;
  o << "}";
  return o.str();
}

/// The counters whose per-request deltas layers.py reports.
constexpr obs::Counter kRequestCounters[] = {
    obs::Counter::kKernelLaunches,    obs::Counter::kNativeBlocks,
    obs::Counter::kInterpretedBlocks, obs::Counter::kWarpInstructions,
    obs::Counter::kGlobalLoadBytes,   obs::Counter::kH2DBytes,
    obs::Counter::kD2HBytes,          obs::Counter::kWordsAnded,
    obs::Counter::kPopcOps,           obs::Counter::kCheckpointsWritten,
    obs::Counter::kCheckpointBytes,
};

std::string counters_json() {
  const auto& m = obs::MetricsRegistry::global();
  std::string s = "{";
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Counter::kCount);
       ++i) {
    const auto c = static_cast<obs::Counter>(i);
    if (i) s += ", ";
    s += json_str(obs::to_string(c)) + ": " + std::to_string(m.value(c));
  }
  return s + "}";
}

std::vector<std::uint64_t> counter_snapshot() {
  std::vector<std::uint64_t> v;
  for (auto c : kRequestCounters)
    v.push_back(obs::MetricsRegistry::global().value(c));
  return v;
}

/// A harness span: obs::ScopedSpan tagged with the request it serves.
struct HarnessSpan : obs::ScopedSpan {
  HarnessSpan(const char* name, double req)
      : obs::ScopedSpan(obs::SpanKind::kOther, name) {
    add_arg("req", req);
  }
};

// ---------------------------------------------------------------------------
// Workload interface

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds fresh state (parse, construction, one warm pass per shape).
  /// Returns false when a warm-pass answer was wrong.
  virtual bool setup() = 0;
  /// Measures for `seconds`.
  virtual Phase measure(double seconds) = 0;
  /// Modeled device time summed once over each distinct shape.
  [[nodiscard]] virtual double sim_device_ms() const = 0;
  /// Layer probes run after the traced phase (recorded as spans).
  virtual void probes() = 0;
};

/// The options GpApriori builds each request's gpusim::Device with.
gpusim::DeviceOptions device_options(const WorkloadSpec& w) {
  const gpapriori::Config cfg;
  gpusim::DeviceOptions d;
  d.arena_bytes = cfg.arena_bytes;
  d.executor.sample_stride = cfg.sample_stride;
  d.executor.host_threads = w.host_threads;
  d.executor.native = cfg.native;
  return d;
}

/// Times constructions of the workload's device: the fixed cost every
/// GPU request pays before any kernel runs.
void probe_device_setup(const WorkloadSpec& w) {
  const gpusim::DeviceOptions dopts = device_options(w);
  for (int i = 0; i < 10; ++i) {
    HarnessSpan span("device-setup", -1);
    gpusim::Device dev(gpusim::DeviceProperties::tesla_t10(), dopts);
    span.add_arg("arena_bytes", static_cast<double>(dopts.arena_bytes));
  }
}

/// Writes and reads back a snapshot three times.
void probe_checkpoint(const fim::MiningCheckpoint& snap,
                      const std::string& path) {
  for (int i = 0; i < 3; ++i) {
    {
      HarnessSpan span("ckpt-write", -1);
      snap.write(path);
      span.add_arg("bytes", static_cast<double>(snap.byte_size()));
    }
    HarnessSpan span("ckpt-read", -1);
    const auto back = fim::MiningCheckpoint::read(path);
    span.add_arg("bytes", static_cast<double>(back.byte_size()));
    if (back.itemsets.size() != snap.itemsets.size())
      die("checkpoint probe read back a different snapshot");
  }
  fs::remove(path);
}

/// The snapshot a completed mine of `itemsets` would leave behind.
fim::MiningCheckpoint snapshot_of(const std::string& path,
                                  fim::ItemsetCollection itemsets,
                                  double support) {
  const auto db = fim::read_fimi_file(path);
  fim::MiningCheckpoint c;
  c.dataset_digest = fim::dataset_digest(db);
  miners::MiningParams p;
  p.min_support_ratio = support;
  c.min_count = p.resolve_min_count(db.num_transactions());
  const auto per_level = itemsets.counts_by_size();
  for (std::uint32_t k = 1; k < per_level.size(); ++k)
    c.levels.push_back({k, per_level[k], per_level[k]});
  c.completed_level = static_cast<std::uint32_t>(c.levels.size());
  c.itemsets = std::move(itemsets);
  return c;
}

// ---------------------------------------------------------------------------
// Closed-loop direct workloads: parse -> mine -> to_string per request.

class DirectWorkload final : public Workload {
 public:
  DirectWorkload(const WorkloadSpec& w, std::string dir, References refs)
      : spec_(w),
        dir_(std::move(dir)),
        refs_(std::move(refs)),
        path_(dir_ + "/" + w.shapes.at(0).file),
        key_(w.shapes.at(0).key()),
        cpu_ckpt_(w.name == "pumsb-host"),
        ckpt_path_(dir_ + "/request.ckpt"),
        file_bytes_(fs::file_size(path_)) {
    params_.min_support_ratio = w.shapes.at(0).support;
  }

  bool setup() override {
    // A new miner, then one request.
    if (!cpu_ckpt_) {
      gpapriori::Config cfg;
      cfg.host_threads = spec_.host_threads;
      miner_ = std::make_unique<gpapriori::GpApriori>(cfg);
    }
    Outcome o = request();
    sim_ms_ = o.out.device_ms;
    return o.ok &&
           matches(refs_, key_, o.text, o.answer(cpu_ckpt_).itemsets.size());
  }

  Phase measure(double seconds) override {
    Phase p;
    const bool traced = obs::TraceRecorder::global().enabled();
    std::ostringstream detail;
    detail << "\"requests\": [";
    const double cpu0 = cpu_ms();
    const auto t0 = Clock::now();
    auto last_end = t0;
    double ref_cpu_ms = 0;
    while (ms_between(t0, Clock::now()) < seconds * 1e3) {
      ref_cpu_ms += sample_reference(p, t0);
      const auto before = counter_snapshot();
      Outcome o = request();
      last_end = Clock::now();
      ++p.attempted;
      ++p.completed;
      if (!o.ok) {
        ++p.failures.exceptions;
      } else if (!matches(refs_, key_, o.text,
                          o.answer(cpu_ckpt_).itemsets.size())) {
        ++p.failures.mismatches;
      } else {
        ++p.good;
        p.latency_ms.push_back(o.latency_ms);
        p.end_ms.push_back(ms_between(t0, last_end));
      }
      if (traced) {
        const auto after = counter_snapshot();
        if (p.attempted > 1) detail << ", ";
        detail << request_json(o, before, after);
      }
      last_ = std::move(o.out);
    }
    p.elapsed_ms = ms_between(t0, last_end) -
                   std::accumulate(p.ref_ms.begin(), p.ref_ms.end(), 0.0);
    p.cpu_ms = cpu_ms() - cpu0 - ref_cpu_ms;
    detail << "]";
    if (traced) p.extra_json = detail.str();
    return p;
  }

  [[nodiscard]] double sim_device_ms() const override { return sim_ms_; }

  void probes() override {
    probe_device_setup(spec_);
    // pumsb-host probes the snapshot its own requests write; the others
    // the one their last answer would make.
    probe_checkpoint(cpu_ckpt_ ? fim::MiningCheckpoint::read(ckpt_path_)
                               : snapshot_of(path_, last_.itemsets,
                                             params_.min_support_ratio),
                     dir_ + "/probe.ckpt");
  }

 private:
  struct Outcome {
    bool ok = false;
    double latency_ms = 0;
    std::string text;  ///< the answer, as text
    miners::MiningOutput out;      ///< the mine
    miners::MiningOutput resumed;  ///< pumsb-host: the resume after it

    [[nodiscard]] const miners::MiningOutput& answer(bool cpu_ckpt) const {
      return cpu_ckpt ? resumed : out;
    }
  };

  /// CPU_TEST with a RunControl that writes a checkpoint after every level
  /// or resumes from the last one written.
  miners::MiningOutput cpu_mine(const fim::TransactionDb& db, bool resume) {
    gpapriori::RunControlOptions rco;
    (resume ? rco.resume_path : rco.checkpoint_path) = ckpt_path_;
    gpapriori::RunControl rc(rco);
    return gpapriori::CpuBitsetApriori(&rc, true, 1, 0, spec_.host_threads)
        .mine(db, params_);
  }

  /// One request: parse -> mine -> to_string. On pumsb-host the mine
  /// writes a checkpoint after every level, and the request then resumes
  /// from the snapshot it left and answers with the resumed result, so
  /// every request both writes and reads checkpoints.
  Outcome request() {
    Outcome o;
    const double id = static_cast<double>(next_++);
    try {
      const auto t0 = Clock::now();
      HarnessSpan span("request", id);
      fim::TransactionDb db;
      {
        HarnessSpan s("parse", id);
        db = fim::read_fimi_file(path_);
        s.add_arg("bytes", static_cast<double>(file_bytes_));
      }
      {
        HarnessSpan s("mine", id);
        o.out = cpu_ckpt_ ? cpu_mine(db, false) : miner_->mine(db, params_);
      }
      if (cpu_ckpt_) {
        HarnessSpan s("ckpt-resume", id);
        o.resumed = cpu_mine(db, true);
      }
      const miners::MiningOutput& answer = o.answer(cpu_ckpt_);
      {
        HarnessSpan s("output", id);
        o.text = answer.itemsets.to_string();
        s.add_arg("bytes", static_cast<double>(o.text.size()));
      }
      o.latency_ms = ms_between(t0, Clock::now());
      o.ok = !o.out.truncated() && !answer.truncated();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gpa_bench: request failed: %s\n", e.what());
      o.ok = false;
    }
    return o;
  }

  std::string request_json(const Outcome& o,
                           const std::vector<std::uint64_t>& before,
                           const std::vector<std::uint64_t>& after) const {
    std::ostringstream r;
    std::uint64_t cands = 0, freq = 0;
    for (std::size_t i = 1; i < o.out.levels.size(); ++i) {
      cands += o.out.levels[i].candidates;
      freq += o.out.levels[i].frequent;
    }
    const auto& hp = o.out.host_phases;
    r << "{\"latency_ms\": " << json_num(o.latency_ms)
      << ", \"levels\": " << o.out.levels.size()
      << ", \"candidates\": " << cands << ", \"survivors\": " << freq
      << ", \"host_ms\": " << json_num(o.out.host_ms)
      << ", \"device_ms\": " << json_num(o.out.device_ms)
      << ", \"candgen_ms\": " << json_num(hp.candgen_ms)
      << ", \"flatten_ms\": " << json_num(hp.flatten_ms)
      << ", \"build_ms\": " << json_num(hp.build_ms)
      << ", \"emit_ms\": " << json_num(hp.emit_ms) << ", \"counters\": {";
    for (std::size_t i = 0; i < before.size(); ++i) {
      if (i) r << ", ";
      r << json_str(obs::to_string(kRequestCounters[i])) << ": "
        << (after[i] - before[i]);
    }
    r << "}}";
    return r.str();
  }

  const WorkloadSpec spec_;
  const std::string dir_;
  const References refs_;
  const std::string path_;
  const std::string key_;
  const bool cpu_ckpt_;  ///< pumsb-host: CPU_TEST with checkpoint/resume
  const std::string ckpt_path_;
  const std::uintmax_t file_bytes_;
  miners::MiningParams params_;
  std::unique_ptr<miners::Miner> miner_;
  std::uint64_t next_ = 0;
  double sim_ms_ = 0;
  miners::MiningOutput last_;  ///< the last measured request's answer
};

// ---------------------------------------------------------------------------
// Open-loop service workload

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(const WorkloadSpec& w, std::string dir, References refs)
      : spec_(w),
        dir_(std::move(dir)),
        refs_(std::move(refs)),
        rng_(seeded(0, 0x73657276ULL)) {
    for (const auto& s : w.shapes)
      (s.top_k > 0 ? topk_ : threshold_).push_back(s);
    for (const auto& d : w.datasets) {
      std::ifstream in(dir_ + "/" + d.file, std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      files_.push_back({d.file, bytes.str()});
    }
  }

  bool setup() override {
    service_.reset();  // drains and joins the previous service first
    serve::ServiceOptions opts;
    opts.workers = 2;
    opts.threads_per_request = 1;
    opts.hedge_checkpoint_dir = dir_;
    service_ = std::make_unique<serve::MiningService>(opts);
    // Warm pass: every shape once, unpinned and pinned, all at once.
    std::vector<std::pair<std::string, std::future<serve::MiningResult>>> warm;
    for (const auto& s : threshold_) {
      warm.emplace_back(s.key(), service_->submit(make_request(s, "", "w")));
      warm.emplace_back(s.key(),
                        service_->submit(make_request(s, "CPU_TEST", "w")));
    }
    for (const auto& s : topk_)
      warm.emplace_back(s.key(), service_->submit(make_request(s, "", "w")));
    bool ok = true;
    sim_ms_ = 0;
    for (auto& [key, f] : warm) {
      const serve::MiningResult r = f.get();
      ok = ok && r.status == serve::RequestStatus::kOk &&
           matches(refs_, key, r.itemsets.to_string(), r.itemsets.size());
      if (r.algo != "CPU_TEST") sim_ms_ += r.device_ms;
    }
    return ok;
  }

  Phase measure(double seconds) override;

  [[nodiscard]] double sim_device_ms() const override { return sim_ms_; }

  void probes() override {
    probe_device_setup(spec_);
    // The service parses only on a cold or stale file, which the harness
    // does not see; time the same parse of each file directly.
    for (const auto& [name, bytes] : files_)
      for (int i = 0; i < 3; ++i) {
        HarnessSpan s("parse", -1);
        (void)fim::read_fimi_file(dir_ + "/" + name);
        s.add_arg("bytes", static_cast<double>(bytes.size()));
      }
    if (largest_)
      probe_checkpoint(snapshot_of(dir_ + "/" + largest_->first.file,
                                   largest_->second, largest_->first.support),
                       dir_ + "/probe.ckpt");
  }

 private:
  struct Arrival {
    double due_ms = 0;  ///< offset from phase start
    const Shape* shape = nullptr;
    bool pinned = false;
  };
  struct Pending {
    std::size_t idx = 0;
    Clock::time_point due;
    std::future<serve::MiningResult> future;
  };
  struct Done {
    std::size_t idx = 0;
    double latency_ms = 0;
    double end_ms = 0;  ///< from phase start
    serve::MiningResult result;
  };

  serve::MiningRequest make_request(const Shape& s, const std::string& algo,
                                    const std::string& id) const {
    serve::MiningRequest r;
    r.id = id;
    r.dataset = dir_ + "/" + s.file;
    r.algo = algo;
    if (s.top_k > 0)
      r.top_k = s.top_k;
    else
      r.min_support_ratio = s.support;
    return r;
  }

  /// A Poisson process conditioned on its count: rate × seconds arrivals
  /// at sorted uniform times, with a fixed mix of requests in random
  /// order. The draw is the same for every seed (the seed changes only the
  /// data files), so every run faces the same traffic: queueing in the
  /// tail depends on which requests collide, and a per-seed draw would
  /// make the tail measure the draw rather than the service.
  std::vector<Arrival> schedule(double seconds) {
    const auto n = static_cast<std::size_t>(kServeRate * seconds);
    std::vector<Arrival> v(n);
    std::size_t next_threshold = 0, next_topk = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Arrival& a = v[i];
      if (i % 10 < 9) {
        a.shape = &threshold_[next_threshold++ % threshold_.size()];
        a.pinned = i % 10 == 8;
      } else {
        a.shape = &topk_[next_topk++ % topk_.size()];
      }
    }
    for (std::size_t i = n; i > 1; --i) std::swap(v[i - 1], v[rng_() % i]);
    std::vector<double> due(n);
    for (double& t : due) t = uniform01(rng_) * seconds * 1e3;
    std::sort(due.begin(), due.end());
    for (std::size_t i = 0; i < n; ++i) v[i].due_ms = due[i];
    return v;
  }

  /// Rewrites a file with identical bytes: the path gets a new mtime, so
  /// the service's cache must revalidate and re-parse it.
  void touch_file(std::size_t which) {
    const auto& [name, bytes] = files_[which % files_.size()];
    const std::string path = dir_ + "/" + name;
    {
      std::ofstream out(path + ".tmp", std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    fs::rename(path + ".tmp", path);
  }

  const WorkloadSpec spec_;
  const std::string dir_;
  const References refs_;
  std::mt19937_64 rng_;  ///< the traffic draw, identical for every seed
  std::vector<Shape> threshold_;
  std::vector<Shape> topk_;
  std::vector<std::pair<std::string, std::string>> files_;  ///< name, bytes
  std::unique_ptr<serve::MiningService> service_;
  std::size_t next_ = 0;
  std::size_t touches_ = 0;
  double sim_ms_ = 0;
  std::optional<std::pair<Shape, fim::ItemsetCollection>> largest_;
};

Phase ServeWorkload::measure(double seconds) {
  Phase p;
  const auto arrivals = schedule(seconds);
  const auto stats0 = service_->stats();
  auto& rec = obs::TraceRecorder::global();

  std::mutex m;
  std::deque<Pending> inbox;  // guarded by m
  bool generating = true;     // guarded by m
  std::vector<Done> done;
  done.reserve(arrivals.size());

  const double cpu0 = cpu_ms();
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const std::size_t base = next_;
  double ref_cpu_ms = 0;

  // Collector: polls every outstanding future at most 0.5 ms apart and
  // stamps completion as soon as it sees one ready.
  std::thread collector([&] {
    std::vector<Pending> live;
    for (;;) {
      bool more = true;
      {
        std::lock_guard lk(m);
        while (!inbox.empty()) {
          live.push_back(std::move(inbox.front()));
          inbox.pop_front();
        }
        more = generating;
      }
      for (auto it = live.begin(); it != live.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++it;
          continue;
        }
        const auto now = Clock::now();
        Done d;
        d.idx = it->idx;
        d.latency_ms = ms_between(it->due, now);
        d.end_ms = ms_between(t0, now);
        d.result = it->future.get();
        if (rec.enabled()) {
          const auto end_ns = rec.now_ns();
          const auto begin_ns =
              end_ns - static_cast<std::uint64_t>(d.latency_ms * 1e6);
          const obs::SpanArg args[] = {{"req", static_cast<double>(d.idx)}};
          rec.record(obs::SpanKind::kOther, "request", begin_ns, end_ns, args,
                     1);
        }
        done.push_back(std::move(d));
        it = live.erase(it);
      }
      if (!more && live.empty()) return;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Generator: submits each request at its due time.
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    const auto due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(a.due_ms));
    std::this_thread::sleep_until(due);
    p.gen_lag_ms.push_back(ms_between(due, Clock::now()));
    const std::size_t idx = next_++;
    std::future<serve::MiningResult> f;
    {
      HarnessSpan s("submit", static_cast<double>(idx));
      f = service_->submit(make_request(
          *a.shape, a.pinned ? "CPU_TEST" : "", "r" + std::to_string(idx)));
    }
    {
      std::lock_guard lk(m);
      inbox.push_back({idx, due, std::move(f)});
    }
    ++p.attempted;
    // Rewrite a file well before the next 60th request is due, so the
    // write never delays a submission.
    if ((idx + 1) % kServeTouchEvery == 0) touch_file(touches_++);
    // A reference unit, only in a gap long enough that it cannot delay the
    // next submission.
    if (i + 1 < arrivals.size() &&
        arrivals[i + 1].due_ms - ms_between(t0, Clock::now()) >
            kServeReferenceGapMs)
      ref_cpu_ms += sample_reference(p, t0);
  }
  {
    std::lock_guard lk(m);
    generating = false;
  }
  collector.join();
  const auto t_end = Clock::now();
  p.cpu_ms = cpu_ms() - cpu0 - ref_cpu_ms;
  p.elapsed_ms = ms_between(t0, t_end);
  const auto stats1 = service_->stats();

  // Outside the timed region: check every answer against its reference.
  std::sort(done.begin(), done.end(),
            [](const Done& a, const Done& b) { return a.idx < b.idx; });
  std::ostringstream detail;
  detail << "\"requests\": [";
  for (std::size_t i = 0; i < done.size(); ++i) {
    const Done& d = done[i];
    const Arrival& a = arrivals[d.idx - base];
    const serve::MiningResult& r = d.result;
    ++p.completed;
    bool good = false;
    if (r.status != serve::RequestStatus::kOk) {
      ++p.failures.bad_status;
      std::fprintf(stderr, "gpa_bench: request %zu: %s (%s)\n", d.idx,
                   serve::to_string(r.status), r.error.c_str());
    } else {
      std::string text;
      {
        HarnessSpan s("output", static_cast<double>(d.idx));
        text = r.itemsets.to_string();
        s.add_arg("bytes", static_cast<double>(text.size()));
      }
      if (!matches(refs_, a.shape->key(), text, r.itemsets.size())) {
        ++p.failures.mismatches;
      } else {
        good = true;
        p.latency_ms.push_back(d.latency_ms);
        p.end_ms.push_back(d.end_ms);
        if (d.latency_ms <= kServeGoodMs) ++p.good;
        if (a.shape->top_k == 0 &&
            (!largest_ || r.itemsets.size() > largest_->second.size()))
          largest_.emplace(*a.shape, r.itemsets);
      }
    }
    if (i) detail << ", ";
    detail << "{\"latency_ms\": " << json_num(d.latency_ms)
           << ", \"good\": " << (good ? "true" : "false")
           << ", \"algo\": " << json_str(r.algo)
           << ", \"queue_ms\": " << json_num(r.queue_ms)
           << ", \"exec_ms\": " << json_num(r.exec_ms)
           << ", \"device_ms\": " << json_num(r.device_ms)
           << ", \"db_cache_hit\": " << (r.db_cache_hit ? "true" : "false")
           << ", \"layout_cache_hit\": "
           << (r.layout_cache_hit ? "true" : "false")
           << ", \"deduped\": " << (r.deduped ? "true" : "false")
           << ", \"top_k\": " << (a.shape->top_k > 0 ? "true" : "false")
           << ", \"hedges\": " << r.hedges << "}";
  }
  detail << "], \"service\": {\"shed\": " << stats1.shed - stats0.shed
         << ", \"rejected\": " << stats1.rejected - stats0.rejected
         << ", \"hedges\": " << stats1.hedges - stats0.hedges
         << ", \"deduped\": " << stats1.deduped - stats0.deduped
         << ", \"db_hits\": " << stats1.cache.db_hits - stats0.cache.db_hits
         << ", \"db_misses\": "
         << stats1.cache.db_misses - stats0.cache.db_misses
         << ", \"layout_hits\": "
         << stats1.cache.layout_hits - stats0.cache.layout_hits
         << ", \"layout_misses\": "
         << stats1.cache.layout_misses - stats0.cache.layout_misses << "}";
  p.extra_json = detail.str();
  return p;
}

// ---------------------------------------------------------------------------
// Run

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

int cmd_run(const WorkloadSpec& w, const std::string& dir,
            const std::string& ref_path, std::uint64_t seed, double seconds,
            double traced_seconds, const std::string& trace_out,
            const std::string& out_path) {
  References refs = load_references(ref_path);
  std::unique_ptr<Workload> wl;
  if (w.name == "serve-mix")
    wl = std::make_unique<ServeWorkload>(w, dir, std::move(refs));
  else
    wl = std::make_unique<DirectWorkload>(w, dir, std::move(refs));

  // Set up five times, each followed by a reference unit; the first is
  // timed from process start.
  constexpr int kSetups = 5;
  std::vector<double> setup_s, setup_ref_ms;
  bool warm_ok = true;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = i == 0 ? g_process_start : Clock::now();
    warm_ok = wl->setup() && warm_ok;
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    setup_ref_ms.push_back(reference_unit_ms());
  }

  const Phase untraced = wl->measure(seconds);
  const double rss_mb = peak_rss_mb();

  std::string traced_json = "null";
  if (traced_seconds > 0) {
    auto& metrics = obs::MetricsRegistry::global();
    auto& rec = obs::TraceRecorder::global();
    metrics.reset();
    metrics.enable();
    rec.clear();
    rec.enable();
    const Phase traced = wl->measure(traced_seconds);
    const std::string counters = counters_json();
    const auto levels = metrics.levels().size();
    wl->probes();
    rec.disable();
    metrics.disable();
    if (!rec.write(trace_out)) die("cannot write trace " + trace_out);
    traced_json = "{\"phase\": " + phase_json(traced) +
                  ", \"counters\": " + counters +
                  ", \"level_table_size\": " + std::to_string(levels) +
                  ", \"arena_bytes\": " +
                  std::to_string(device_options(w).arena_bytes) +
                  ", \"spans\": " + std::to_string(rec.span_count()) +
                  ", \"spans_dropped\": " +
                  std::to_string(rec.dropped_count()) + "}";
  }

  std::ofstream out(out_path);
  out << "{\"workload\": " << json_str(w.name) << ", \"seed\": " << seed
      << ", \"host_threads\": " << w.host_threads
      << ", \"build_type\": " << json_str(GPA_BENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_str(GPA_BENCH_COMPILER)
      << ", \"warm_ok\": " << (warm_ok ? "true" : "false")
      << ", \"setup_s\": " << json_list(setup_s)
      << ", \"setup_ref_ms\": " << json_list(setup_ref_ms)
      << ", \"ref_nominal_ms\": " << json_num(kReferenceNominalMs)
      << ", \"sim_device_ms\": " << json_num(wl->sim_device_ms())
      << ", \"peak_rss_mb\": " << json_num(rss_mb)
      << ", \"untraced\": " << phase_json(untraced)
      << ", \"traced\": " << traced_json << "}\n";
  if (!out) die("cannot write " + out_path);
  return 0;
}

struct Args {
  std::string cmd, data, workload, ref, out, trace_out;
  std::uint64_t seed = 1;
  double seconds = 0, traced_seconds = 0;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) die("usage: gpa_bench prepare|run --data DIR --workload W ...");
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) die("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--data") a.data = v;
      else if (k == "--workload") a.workload = v;
      else if (k == "--ref") a.ref = v;
      else if (k == "--out") a.out = v;
      else if (k == "--trace-out") a.trace_out = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--traced-seconds") a.traced_seconds = std::stod(v);
      else die("unknown option " + k);
    } catch (const std::logic_error&) {
      die("bad value for " + k + ": " + v);
    }
  }
  if (a.data.empty() || a.workload.empty())
    die("--data and --workload are required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const WorkloadSpec w = workload_spec(a.workload);
  try {
    if (a.cmd == "prepare") return cmd_prepare(w, a.data, a.seed);
    if (a.cmd == "run") {
      if (!(a.seconds > 0) || a.out.empty())
        die("run needs --seconds and --out");
      if (a.traced_seconds > 0 && a.trace_out.empty())
        die("--traced-seconds needs --trace-out");
      return cmd_run(w, a.data, a.ref.empty() ? a.data + "/ref.txt" : a.ref,
                     a.seed, a.seconds, a.traced_seconds, a.trace_out, a.out);
    }
  } catch (const std::exception& e) {
    die(e.what());
  }
  die("unknown command '" + a.cmd + "'");
}
