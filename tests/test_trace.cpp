// Observability-layer tests (DESIGN.md §10): the Chrome trace export is
// valid, balanced JSON; kernel span sim_ns totals reconcile with the
// TimeLedger; MetricsRegistry counters equal the KernelStats the executor
// already reports; and everything is a no-op (and race-free) when disabled.

#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/apriori_util.hpp"
#include "core/candidate_trie.hpp"
#include "core/gpapriori.hpp"
#include "core/support_kernel.hpp"
#include "datagen/datagen.hpp"
#include "fim/bitset_ops.hpp"
#include "gpusim/device_context.hpp"
#include "test_util.hpp"

namespace {

using obs::MetricsRegistry;
using obs::ScopedSpan;
using obs::SpanArg;
using obs::SpanKind;
using obs::TraceRecorder;

// Resets both global recorders to a known state at test start and end, so
// the singletons never leak state across tests in this binary.
struct ObsReset {
  ObsReset() { reset(); }
  ~ObsReset() { reset(); }
  static void reset() {
    TraceRecorder::global().disable();
    TraceRecorder::global().clear();
    MetricsRegistry::global().disable();
    MetricsRegistry::global().reset();
  }
};

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator: accepts exactly RFC 8259 value
// grammar (enough to prove the export is loadable; Chrome's parser is
// stricter about semantics, which the structural checks below cover).
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0)
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// One exported trace event, pulled out of the one-event-per-line format.
struct Event {
  char ph = '?';
  int tid = -1;
  std::string name;
  std::string line;
};

std::vector<Event> parse_events(const std::string& json) {
  std::vector<Event> out;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"name\"", 0) != 0) continue;
    Event e;
    e.line = line;
    e.name = line.substr(10, line.find('"', 10) - 10);  // {"name": "
    if (auto p = line.find("\"ph\": \""); p != std::string::npos)
      e.ph = line[p + 7];
    if (auto p = line.find("\"tid\": "); p != std::string::npos)
      e.tid = std::atoi(line.c_str() + p + 7);
    out.push_back(std::move(e));
  }
  return out;
}

// Per-tid B/E balance: running depth never negative, zero at the end.
void expect_balanced(const std::vector<Event>& events) {
  std::map<int, int> depth;
  for (const auto& e : events) {
    if (e.ph == 'B') ++depth[e.tid];
    if (e.ph == 'E') {
      --depth[e.tid];
      EXPECT_GE(depth[e.tid], 0) << "E without matching B: " << e.line;
    }
  }
  for (const auto& [tid, d] : depth)
    EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
}

double sum_arg(const std::vector<Event>& events, const char* cat,
               const char* key) {
  const std::string cat_pat = std::string("\"cat\": \"") + cat + "\"";
  const std::string key_pat = std::string("\"") + key + "\": ";
  double sum = 0;
  for (const auto& e : events) {
    if (e.ph != 'B' && e.ph != 'i') continue;
    if (e.line.find(cat_pat) == std::string::npos) continue;
    if (auto p = e.line.find(key_pat); p != std::string::npos)
      sum += std::atof(e.line.c_str() + p + key_pat.size());
  }
  return sum;
}

// ---------------------------------------------------------------------------

TEST(Trace, DisabledRecorderIsANoOp) {
  ObsReset guard;
  auto& rec = TraceRecorder::global();
  ASSERT_FALSE(rec.enabled());
  {
    ScopedSpan span(SpanKind::kOther, "ignored");
    EXPECT_FALSE(span.active());
    span.add_arg("x", 1.0);
  }
  rec.record(SpanKind::kOther, "ignored", 0, 10);
  rec.instant(SpanKind::kOther, "ignored");
  EXPECT_EQ(rec.span_count(), 0u);
  EXPECT_FALSE(rec.flush());  // no path set either
}

TEST(Trace, DisabledMetricsStayZero) {
  ObsReset guard;
  auto& m = MetricsRegistry::global();
  m.add(obs::Counter::kCandidates, 42);
  m.record_max(obs::Counter::kDeviceMemPeakBytes, 1024);
  obs::LevelMetrics lm;
  lm.candidates = 7;
  m.record_level(2, lm);
  EXPECT_EQ(m.value(obs::Counter::kCandidates), 0u);
  EXPECT_EQ(m.value(obs::Counter::kDeviceMemPeakBytes), 0u);
  EXPECT_TRUE(m.levels().empty());
}

// Deterministic span set (explicit timestamps, ties, escapes, NaN arg)
// exported and checked structurally — the "golden" shape of the format.
TEST(Trace, ExportIsValidBalancedChromeJson) {
  ObsReset guard;
  auto& rec = TraceRecorder::global();
  rec.enable();

  // Nested + tied timestamps: outer [100, 500], inner [100, 300] (tie on
  // begin), sibling [300, 500] (E of inner at B of sibling).
  const SpanArg quote_arg[] = {{"n", 1.0}};
  rec.record(SpanKind::kMineLevel, "outer \"quoted\"\n", 100, 500, quote_arg,
             1);
  rec.record(SpanKind::kKernel, "inner-a", 100, 300);
  rec.record(SpanKind::kKernel, "inner-b", 300, 500);
  const SpanArg nan_arg[] = {{"bad", std::nan("")}};
  rec.instant(SpanKind::kFault, "blip", nan_arg, 1);
  rec.record(SpanKind::kOther, "zero-length", 700, 700);
  rec.disable();

  const std::string json = rec.export_chrome_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("outer \\\"quoted\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("\"bad\": null"), std::string::npos);  // NaN guarded

  const auto events = parse_events(json);
  std::size_t b = 0, e = 0, i = 0;
  for (const auto& ev : events) {
    if (ev.ph == 'B') ++b;
    if (ev.ph == 'E') ++e;
    if (ev.ph == 'i') ++i;
  }
  EXPECT_EQ(b, 4u);
  EXPECT_EQ(e, 4u);
  EXPECT_EQ(i, 1u);
  expect_balanced(events);
}

TEST(Trace, EndClampedToBegin) {
  ObsReset guard;
  auto& rec = TraceRecorder::global();
  rec.enable();
  rec.record(SpanKind::kOther, "backwards", 500, 100);  // end < begin
  rec.disable();
  const std::string json = rec.export_chrome_json();
  EXPECT_TRUE(JsonValidator(json).valid());
  expect_balanced(parse_events(json));
}

TEST(Trace, WriteAndFlushProduceLoadableFile) {
  ObsReset guard;
  const std::string path = testing::TempDir() + "/gpapriori_trace_test.json";
  auto& rec = TraceRecorder::global();
  rec.enable(path);
  EXPECT_EQ(rec.output_path(), path);
  rec.record(SpanKind::kMineLevel, "level", 10, 20);
  EXPECT_TRUE(rec.flush());
  rec.disable();

  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_TRUE(JsonValidator(ss.str()).valid());
  std::remove(path.c_str());
}

// The acceptance contract: every kernel span carries the simulated duration
// (sim_ns), and their sum reconciles with the ledger's kernel_ns — a trace
// explains the reported device_ms.
TEST(Trace, KernelSpanSimNsReconcilesWithLedger) {
  ObsReset guard;
  auto& rec = TraceRecorder::global();
  rec.enable();

  const auto db = testutil::random_db(96, 10, 0.4, 7);
  std::vector<fim::Item> rows;
  for (fim::Item x = 0; x < 10; ++x) rows.push_back(x);
  const auto store = fim::BitsetStore::from_db(db, rows);

  gpusim::DeviceOptions dopts;
  dopts.arena_bytes = 16 << 20;
  gpusim::Device dev(gpusim::DeviceProperties::tesla_t10(), dopts);
  auto d_bits = dev.alloc<std::uint32_t>(store.arena().size(), 64);
  dev.copy_to_device(d_bits, store.arena());

  std::vector<std::uint32_t> flat;
  std::uint32_t pairs = 0;
  for (std::uint32_t a = 0; a < 10; ++a)
    for (std::uint32_t b = a + 1; b < 10; ++b) {
      flat.push_back(a);
      flat.push_back(b);
      ++pairs;
    }
  auto d_cand = dev.alloc<std::uint32_t>(flat.size());
  dev.copy_to_device(d_cand, std::span<const std::uint32_t>(flat));
  auto d_sup = dev.alloc<std::uint32_t>(pairs);

  gpapriori::SupportKernel::Args args;
  args.bitsets = d_bits;
  args.stride_words = static_cast<std::uint32_t>(store.row_stride_words());
  args.words_per_row = static_cast<std::uint32_t>(store.words_per_row());
  args.candidates = d_cand;
  args.k = 2;
  args.supports = d_sup;
  gpapriori::SupportKernel kernel(args, true, 4);
  std::uint64_t sampled_blocks = 0;
  for (int rep = 0; rep < 3; ++rep)
    sampled_blocks +=
        dev.launch(kernel, {gpusim::Dim3{pairs}, gpusim::Dim3{64}})
            .sampled_blocks;
  rec.disable();

  const auto events = parse_events(rec.export_chrome_json());
  expect_balanced(events);
  const double span_ns = sum_arg(events, "kernel", "sim_ns");
  const double ledger_ns = dev.ledger().kernel_ns;
  ASSERT_GT(ledger_ns, 0.0);
  // sim_ns is serialized with ~6 significant digits per span.
  EXPECT_NEAR(span_ns / ledger_ns, 1.0, 1e-3);

  // Transfer spans reconcile with the ledger's transfer time the same way.
  const double h2d_ns = sum_arg(events, "h2d", "sim_ns");
  EXPECT_NEAR(h2d_ns / dev.ledger().h2d_ns, 1.0, 1e-3);

  // The executor's dispatch spans split out the sampled (traced) blocks.
  ASSERT_GT(sampled_blocks, 0u);
  EXPECT_EQ(sum_arg(events, "dispatch", "sampled_blocks"),
            static_cast<double>(sampled_blocks));
  EXPECT_GT(sum_arg(events, "dispatch", "sampled_ms"), 0.0);
}

// Counter-equality: the metrics layer must agree exactly with the
// KernelStats the executor already reports, on a chess slice (the paper's
// dense dataset), across every launch.
TEST(Metrics, CountersEqualKernelStatsOnChessSlice) {
  ObsReset guard;
  auto& m = MetricsRegistry::global();
  m.reset();
  m.enable();

  const auto db = datagen::profile(datagen::DatasetId::kChess).generate(0.04);
  const auto pre = miners::preprocess(
      db, static_cast<fim::Support>(db.num_transactions() * 6 / 10),
      miners::ItemOrder::kAscendingFreq);
  const std::size_t n = pre.original_item.size();
  ASSERT_GT(n, 2u);
  std::vector<fim::Item> rows;
  for (fim::Item x = 0; x < n; ++x) rows.push_back(x);
  const auto store = fim::BitsetStore::from_db(pre.db, rows);

  gpusim::DeviceOptions dopts;
  dopts.arena_bytes = 32 << 20;
  gpusim::Device dev(gpusim::DeviceProperties::tesla_t10(), dopts);
  auto d_bits = dev.alloc<std::uint32_t>(store.arena().size(), 64);
  dev.copy_to_device(d_bits, store.arena());

  std::vector<std::uint32_t> flat;
  std::uint32_t pairs = 0;
  for (std::uint32_t a = 0; a < n; ++a)
    for (std::uint32_t b = a + 1; b < n; ++b) {
      flat.push_back(a);
      flat.push_back(b);
      ++pairs;
    }
  auto d_cand = dev.alloc<std::uint32_t>(flat.size());
  dev.copy_to_device(d_cand, std::span<const std::uint32_t>(flat));
  auto d_sup = dev.alloc<std::uint32_t>(pairs);

  gpapriori::SupportKernel::Args args;
  args.bitsets = d_bits;
  args.stride_words = static_cast<std::uint32_t>(store.row_stride_words());
  args.words_per_row = static_cast<std::uint32_t>(store.words_per_row());
  args.candidates = d_cand;
  args.k = 2;
  args.supports = d_sup;

  std::uint64_t blocks = 0, warp_instr = 0, thread_instr = 0;
  std::uint64_t load_bytes = 0, store_bytes = 0;
  const int launches = 2;
  for (int rep = 0; rep < launches; ++rep) {
    gpapriori::SupportKernel kernel(args, true, 4);
    const auto s = dev.launch(kernel, {gpusim::Dim3{pairs}, gpusim::Dim3{64}});
    blocks += s.counters.blocks;
    warp_instr += s.counters.warp_instructions;
    thread_instr += s.counters.thread_instructions;
    load_bytes += s.counters.global_load_bytes;
    store_bytes += s.counters.global_store_bytes;
  }
  std::vector<std::uint32_t> sup(pairs);
  dev.copy_to_host(std::span<std::uint32_t>(sup), d_sup);
  m.disable();

  using obs::Counter;
  EXPECT_EQ(m.value(Counter::kKernelLaunches),
            static_cast<std::uint64_t>(launches));
  EXPECT_EQ(m.value(Counter::kNativeBlocks) +
                m.value(Counter::kInterpretedBlocks),
            blocks);
  EXPECT_EQ(m.value(Counter::kWarpInstructions), warp_instr);
  EXPECT_EQ(m.value(Counter::kThreadInstructions), thread_instr);
  EXPECT_EQ(m.value(Counter::kGlobalLoadBytes), load_bytes);
  EXPECT_EQ(m.value(Counter::kGlobalStoreBytes), store_bytes);

  EXPECT_EQ(m.value(Counter::kH2DTransfers), dev.ledger().h2d_transfers);
  EXPECT_EQ(m.value(Counter::kD2HTransfers), dev.ledger().d2h_transfers);
  const std::uint64_t h2d_bytes =
      store.arena().size() * 4 + flat.size() * 4;
  EXPECT_EQ(m.value(Counter::kH2DBytes), h2d_bytes);
  EXPECT_EQ(m.value(Counter::kD2HBytes), pairs * 4u);
  EXPECT_EQ(m.value(Counter::kDeviceAllocs), 3u);
  EXPECT_GE(m.value(Counter::kDeviceMemPeakBytes),
            static_cast<std::uint64_t>(h2d_bytes));

  const std::string json = m.to_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
}

// Large counters must never truncate the JSON mid-line (a fig6a sweep
// records billions of ANDed words per level).
TEST(Metrics, ToJsonSurvivesLargeCounters) {
  ObsReset guard;
  auto& m = MetricsRegistry::global();
  m.enable();
  obs::LevelMetrics lm;
  lm.candidates = 2'154'625;
  lm.survivors = 8'516;
  lm.words_anded = 3'102'660'000ull;
  lm.popc_ops = 77'566'500ull;
  m.record_level(12345, lm);
  m.add(obs::Counter::kWordsAnded, ~0ull / 2);
  const std::string json = m.to_json(4);
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"words_anded\": 3102660000"), std::string::npos);
}

// Observability never changes what is computed: a traced mine returns the
// same itemsets as an untraced one, and records per-level metrics.
TEST(Metrics, TracedMineIsBitIdenticalAndRecordsLevels) {
  ObsReset guard;
  gpapriori::Config cfg;
  cfg.block_size = 64;
  cfg.arena_bytes = 32 << 20;
  const auto db = testutil::random_db(200, 12, 0.45, 99);
  miners::MiningParams p;
  p.min_support_ratio = 0.3;

  gpapriori::GpApriori plain(cfg);
  const auto baseline = plain.mine(db, p);

  TraceRecorder::global().enable();
  MetricsRegistry::global().enable();
  gpapriori::GpApriori traced(cfg);
  const auto observed = traced.mine(db, p);
  TraceRecorder::global().disable();
  MetricsRegistry::global().disable();

  EXPECT_TRUE(observed.itemsets.equivalent_to(baseline.itemsets));
  EXPECT_GT(TraceRecorder::global().span_count(), 0u);

  const auto levels = MetricsRegistry::global().levels();
  ASSERT_FALSE(levels.empty());
  // Level-k candidate counts in the metrics match the miner's own report.
  for (const auto& [k, lm] : levels) {
    for (const auto& lv : observed.levels)
      if (lv.level == k && lv.level >= 2) {
        EXPECT_EQ(lm.candidates, lv.candidates) << "level " << k;
        EXPECT_EQ(lm.survivors, lv.frequent) << "level " << k;
      }
  }

  const auto events = parse_events(TraceRecorder::global().export_chrome_json());
  expect_balanced(events);
  bool saw_mine = false, saw_candgen = false;
  for (const auto& e : events) {
    if (e.line.find("\"cat\": \"mine\"") != std::string::npos) saw_mine = true;
    if (e.line.find("\"cat\": \"candgen\"") != std::string::npos)
      saw_candgen = true;
  }
  EXPECT_TRUE(saw_mine);
  EXPECT_TRUE(saw_candgen);
}

// The library spans every setup stage of a mine, so a root span around
// Miner::mine leaves no untraced gap: preprocessing, device construction,
// the bitset store build + upload, and the final sort each open exactly
// once on the calling thread, in that order, nested inside the root.
TEST(Trace, MineSetupStagesAreSpannedInsideTheRoot) {
  ObsReset guard;
  const auto db = datagen::profile(datagen::DatasetId::kChess).generate(0.04);
  miners::MiningParams p;
  p.min_support_ratio = 0.8;
  TraceRecorder::global().enable();
  {
    ScopedSpan root(SpanKind::kOther, "mine");
    gpapriori::GpApriori miner{gpapriori::Config{}};
    EXPECT_GT(miner.mine(db, p).itemsets.size(), 0u);
  }
  TraceRecorder::global().disable();

  const auto events = parse_events(TraceRecorder::global().export_chrome_json());
  expect_balanced(events);
  int root_tid = -1;
  for (const auto& e : events)
    if (e.ph == 'B' && e.name == "mine") root_tid = e.tid;
  ASSERT_NE(root_tid, -1);

  const std::vector<std::string> stages{"preprocess", "device-init",
                                        "store-build", "finalize"};
  std::vector<std::string> stack, opened;
  for (const auto& e : events) {
    if (e.tid != root_tid) continue;
    if (e.ph == 'B') {
      if (std::find(stages.begin(), stages.end(), e.name) != stages.end()) {
        EXPECT_TRUE(!stack.empty() && stack.front() == "mine")
            << e.name << " is not nested in the root span";
        opened.push_back(e.name);
      }
      stack.push_back(e.name);
    } else if (e.ph == 'E' && !stack.empty()) {
      stack.pop_back();
    }
  }
  EXPECT_EQ(opened, stages);
  EXPECT_TRUE(stack.empty());
}

// Many threads recording while another thread exports: exercises the span
// buffer under tsan (the trace label is part of the tsan preset's filter).
TEST(Trace, ConcurrentRecordingIsSafe) {
  ObsReset guard;
  auto& rec = TraceRecorder::global();
  rec.enable();
  MetricsRegistry::global().enable();

  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&rec, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span(SpanKind::kDispatch, "worker-span");
        span.add_arg("i", i);
        if (i % 16 == 0) rec.instant(SpanKind::kFault, "worker-instant");
        MetricsRegistry::global().add(obs::Counter::kCandidates, 1);
        MetricsRegistry::global().record_max(
            obs::Counter::kDeviceMemPeakBytes,
            static_cast<std::uint64_t>(t * kSpansPerThread + i));
      }
    });
  for (int i = 0; i < 8; ++i)
    (void)rec.export_chrome_json();  // concurrent snapshot
  for (auto& w : workers) w.join();
  rec.disable();
  MetricsRegistry::global().disable();

  EXPECT_GE(rec.span_count(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(MetricsRegistry::global().value(obs::Counter::kCandidates),
            static_cast<std::uint64_t>(kThreads * kSpansPerThread));
  const std::string json = rec.export_chrome_json();
  EXPECT_TRUE(JsonValidator(json).valid());
  expect_balanced(parse_events(json));
}

}  // namespace
