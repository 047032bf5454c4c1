// Run lifecycle control acceptance drills (DESIGN.md §11): cooperative
// cancellation salvages exactly the completed levels, checkpoint + resume
// is bit-identical to an uninterrupted run — across thread counts, both
// executor tiers, and under an active fault plan — a snapshot that fails
// a rebuild check, its checksum or its version is a typed I/O error, the
// watchdog frees a run stuck in a hostile retry loop, and a deadline
// expiring mid-ladder aborts cleanly instead of hopping tiers.

#include "core/run_control.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/gpapriori_all.hpp"
#include "fim/checkpoint.hpp"
#include "fim/fimi_io.hpp"
#include "gpusim/cancel.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace {

using namespace gpapriori;

fim::TransactionDb drill_db() { return testutil::random_db(200, 12, 0.45, 91); }

miners::MiningParams drill_params() {
  miners::MiningParams p;
  p.min_support_abs = 20;
  return p;
}

/// A writable scratch path unique to this test binary.
std::string scratch_path(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir && *dir ? dir : "/tmp") + "/gpa_rc_" + name;
}

/// The truncated run's levels must be a prefix of the full run's, equal in
/// the deterministic fields (host_ms is wall clock and may differ).
void expect_level_prefix(const miners::MiningOutput& full,
                         const miners::MiningOutput& part) {
  ASSERT_LE(part.levels.size(), full.levels.size());
  for (std::size_t i = 0; i < part.levels.size(); ++i) {
    EXPECT_EQ(part.levels[i].level, full.levels[i].level);
    EXPECT_EQ(part.levels[i].candidates, full.levels[i].candidates);
    EXPECT_EQ(part.levels[i].frequent, full.levels[i].frequent);
    EXPECT_DOUBLE_EQ(part.levels[i].device_ms, full.levels[i].device_ms);
  }
}

/// Bit-identical check for the acceptance criterion: the canonical text
/// rendering (every itemset with its support, sorted) and the per-level
/// deterministic stats must match exactly.
void expect_bit_identical(const miners::MiningOutput& a,
                          const miners::MiningOutput& b) {
  EXPECT_EQ(a.itemsets.to_string(), b.itemsets.to_string());
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i].level, b.levels[i].level);
    EXPECT_EQ(a.levels[i].candidates, b.levels[i].candidates);
    EXPECT_EQ(a.levels[i].frequent, b.levels[i].frequent);
  }
}

// ---------------------------------------------------------------------------
// CancelToken unit behaviour.

TEST(CancelToken, FirstCauseWins) {
  gpusim::CancelToken t;
  EXPECT_FALSE(t.cancelled());
  EXPECT_EQ(t.cause(), gpusim::CancelCause::kNone);
  EXPECT_TRUE(t.request(gpusim::CancelCause::kDeadline));
  EXPECT_TRUE(t.cancelled());
  // A later cause does not overwrite the first.
  EXPECT_FALSE(t.request(gpusim::CancelCause::kWatchdog));
  EXPECT_EQ(t.cause(), gpusim::CancelCause::kDeadline);
  t.reset();
  EXPECT_FALSE(t.cancelled());
  EXPECT_EQ(t.cause(), gpusim::CancelCause::kNone);
}

TEST(CancelToken, HeartbeatAdvancesProgress) {
  gpusim::CancelToken t;
  const auto p0 = t.progress();
  t.heartbeat();
  t.heartbeat();
  EXPECT_EQ(t.progress(), p0 + 2);
}

TEST(CancelToken, CauseStrings) {
  EXPECT_STREQ(gpusim::to_string(gpusim::CancelCause::kUser), "user-cancel");
  EXPECT_STREQ(gpusim::to_string(gpusim::CancelCause::kDeadline), "deadline");
  EXPECT_STREQ(gpusim::to_string(gpusim::CancelCause::kDeviceBudget),
               "device-budget");
  EXPECT_STREQ(gpusim::to_string(gpusim::CancelCause::kWatchdog), "watchdog");
}

TEST(CancelToken, ThrowIfCancelledCarriesCauseAndIsNotRetryable) {
  gpusim::CancelToken t;
  gpusim::throw_if_cancelled(&t, "nowhere");  // not tripped: no throw
  gpusim::throw_if_cancelled(nullptr, "nowhere");
  t.request(gpusim::CancelCause::kWatchdog);
  try {
    gpusim::throw_if_cancelled(&t, "drill");
    FAIL() << "expected CancelledError";
  } catch (const gpusim::CancelledError& e) {
    EXPECT_EQ(e.cause(), gpusim::CancelCause::kWatchdog);
    EXPECT_FALSE(e.retryable());
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("drill"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Cancel-at-level salvage.

TEST(RunControl, CancelAfterLevelSalvagesCompletedLevels) {
  const auto db = drill_db();
  const auto params = drill_params();
  const auto full = GpApriori().mine(db, params);
  ASSERT_GE(full.levels.size(), 4u) << "drill db too shallow";

  RunControlOptions rco;
  rco.cancel_after_level = 2;
  RunControl run(rco);
  Config cfg;
  cfg.run_control = &run;
  const auto part = GpApriori(cfg).mine(db, params);

  EXPECT_TRUE(part.truncated());
  EXPECT_EQ(part.truncated_at_level, 3u);
  EXPECT_EQ(part.stop_reason, "user-cancel");
  ASSERT_EQ(part.levels.size(), 2u);
  expect_level_prefix(full, part);
  // Every salvaged itemset appears, with identical support, in the full run.
  fim::ItemsetCollection full_sets = full.itemsets;
  full_sets.build_index();
  for (const auto& e : part.itemsets)
    EXPECT_EQ(full_sets.support_of(e.items).value_or(0), e.support);
}

TEST(RunControl, EveryLevelSynchronousDriverSalvages) {
  const auto db = drill_db();
  const auto params = drill_params();
  const auto full = GpApriori().mine(db, params);
  ASSERT_GE(full.levels.size(), 4u);

  const auto drivers = {std::string("eqclass"), std::string("partitioned"),
                        std::string("pipelined"), std::string("multi"),
                        std::string("hybrid"), std::string("cpu")};
  for (const auto& which : drivers) {
    RunControlOptions rco;
    rco.cancel_after_level = 2;
    RunControl run(rco);
    Config cfg;
    cfg.run_control = &run;
    miners::MiningOutput part;
    if (which == "eqclass")
      part = EqClassApriori(cfg).mine(db, params);
    else if (which == "partitioned")
      part = PartitionedGpApriori(cfg).mine(db, params);
    else if (which == "pipelined")
      part = PipelinedGpApriori(cfg).mine(db, params);
    else if (which == "multi")
      part = MultiGpuApriori(cfg, 2).mine(db, params);
    else if (which == "hybrid")
      part = HybridApriori(cfg, 0.5).mine(db, params);
    else
      part = CpuBitsetApriori(&run).mine(db, params);
    SCOPED_TRACE(which);
    EXPECT_TRUE(part.truncated());
    EXPECT_EQ(part.truncated_at_level, 3u);
    EXPECT_EQ(part.stop_reason, "user-cancel");
    ASSERT_EQ(part.levels.size(), 2u);
    EXPECT_EQ(part.levels[1].candidates, full.levels[1].candidates);
    EXPECT_EQ(part.levels[1].frequent, full.levels[1].frequent);
  }
}

TEST(RunControl, DfsEclatSalvagesOnDeadline) {
  const auto db = drill_db();
  RunControlOptions rco;
  rco.deadline_ms = 1e-4;  // expired before the first class extension
  RunControl run(rco);
  Config cfg;
  cfg.run_control = &run;
  const auto part = GpuEclat(cfg).mine(db, drill_params());
  EXPECT_TRUE(part.truncated());
  EXPECT_EQ(part.stop_reason, "deadline");
  EXPECT_GE(part.truncated_at_level, 2u);
}

// ---------------------------------------------------------------------------
// Checkpoint + resume, bit-identical across thread counts and both
// executor tiers (the tentpole acceptance criterion).

void checkpoint_resume_drill(std::uint32_t host_threads, bool native,
                             const std::string& fault_plan,
                             const std::string& tag) {
  const auto db = drill_db();
  const auto params = drill_params();
  const std::string ckpt = scratch_path("resume_" + tag + ".ckpt");

  Config base;
  base.host_threads = host_threads;
  base.native = native;
  if (!fault_plan.empty())
    base.fault_plan = gpusim::FaultPlan::parse(fault_plan);

  const auto full = GpApriori(base).mine(db, params);
  ASSERT_GE(full.levels.size(), 4u);

  // Cancel after level 2, writing a checkpoint each level.
  {
    RunControlOptions rco;
    rco.cancel_after_level = 2;
    rco.checkpoint_path = ckpt;
    RunControl run(rco);
    Config cfg = base;
    cfg.run_control = &run;
    const auto part = GpApriori(cfg).mine(db, params);
    ASSERT_TRUE(part.truncated());
    ASSERT_EQ(part.levels.size(), 2u);
  }

  // Resume and compare against the uninterrupted run.
  {
    RunControlOptions rco;
    rco.resume_path = ckpt;
    RunControl run(rco);
    Config cfg = base;
    cfg.run_control = &run;
    const auto resumed = GpApriori(cfg).mine(db, params);
    EXPECT_FALSE(resumed.truncated());
    expect_bit_identical(full, resumed);
  }
  std::remove(ckpt.c_str());
}

TEST(Checkpoint, ResumeBitIdenticalSingleThreadNative) {
  checkpoint_resume_drill(1, true, "", "t1n");
}

TEST(Checkpoint, ResumeBitIdenticalTwoThreadsNative) {
  checkpoint_resume_drill(2, true, "", "t2n");
}

TEST(Checkpoint, ResumeBitIdenticalHwThreadsNative) {
  checkpoint_resume_drill(0, true, "", "thwn");
}

TEST(Checkpoint, ResumeBitIdenticalSingleThreadInterpreted) {
  checkpoint_resume_drill(1, false, "", "t1i");
}

TEST(Checkpoint, ResumeBitIdenticalHwThreadsInterpreted) {
  checkpoint_resume_drill(0, false, "", "thwi");
}

TEST(Checkpoint, ResumeBitIdenticalUnderActiveFaultPlan) {
  // A transient transfer fault is retried during both the checkpointing
  // and the resumed run; results stay bit-identical to the clean run.
  checkpoint_resume_drill(2, true, "seed=7;h2d#2=fail", "fault");
}

TEST(Checkpoint, CpuMinerResumeBitIdentical) {
  const auto db = drill_db();
  const auto params = drill_params();
  const std::string ckpt = scratch_path("cpu_resume.ckpt");

  const auto full = CpuBitsetApriori().mine(db, params);
  ASSERT_GE(full.levels.size(), 4u);
  {
    RunControlOptions rco;
    rco.cancel_after_level = 2;
    rco.checkpoint_path = ckpt;
    RunControl run(rco);
    const auto part = CpuBitsetApriori(&run).mine(db, params);
    ASSERT_TRUE(part.truncated());
  }
  {
    RunControlOptions rco;
    rco.resume_path = ckpt;
    RunControl run(rco);
    const auto resumed = CpuBitsetApriori(&run).mine(db, params);
    EXPECT_FALSE(resumed.truncated());
    expect_bit_identical(full, resumed);
  }
  std::remove(ckpt.c_str());
}

TEST(Checkpoint, GpuCheckpointResumesOnCpuMiner) {
  // Cross-driver: digests and supports are layout-level, so a snapshot
  // taken by GPApriori resumes bit-exactly in CPU_TEST.
  const auto db = drill_db();
  const auto params = drill_params();
  const std::string ckpt = scratch_path("cross_resume.ckpt");
  const auto full = CpuBitsetApriori().mine(db, params);
  {
    RunControlOptions rco;
    rco.cancel_after_level = 2;
    rco.checkpoint_path = ckpt;
    RunControl run(rco);
    Config cfg;
    cfg.run_control = &run;
    (void)GpApriori(cfg).mine(db, params);
  }
  {
    RunControlOptions rco;
    rco.resume_path = ckpt;
    RunControl run(rco);
    const auto resumed = CpuBitsetApriori(&run).mine(db, params);
    expect_bit_identical(full, resumed);
  }
  std::remove(ckpt.c_str());
}

TEST(Checkpoint, EveryLevelWiseDriverResumesBitIdentical) {
  // One level loop gives every level-wise driver checkpoint + resume: a run
  // cancelled after level 2 resumes from its own snapshot to the
  // uninterrupted output. The eq-class driver rebuilds its cached parent
  // rows from the rebuilt trie, so its later levels exercise that too.
  const auto db = drill_db();
  const auto params = drill_params();
  const std::string ckpt = scratch_path("driver_resume.ckpt");
  using Make = std::function<std::unique_ptr<miners::Miner>(const Config&)>;
  const std::vector<std::pair<std::string, Make>> drivers = {
      {"eqclass",
       [](const Config& c) { return std::make_unique<EqClassApriori>(c); }},
      {"partitioned",
       [](Config c) {
         c.partition_budget_bytes = 1 << 10;
         return std::make_unique<PartitionedGpApriori>(c);
       }},
      {"pipelined",
       [](const Config& c) { return std::make_unique<PipelinedGpApriori>(c); }},
      {"multi",
       [](const Config& c) { return std::make_unique<MultiGpuApriori>(c, 2); }},
      {"hybrid",
       [](const Config& c) { return std::make_unique<HybridApriori>(c, 0.5); }},
  };
  for (const auto& [name, make] : drivers) {
    SCOPED_TRACE(name);
    const auto full = make(Config{})->mine(db, params);
    ASSERT_GE(full.levels.size(), 4u);
    miners::MiningOutput part;
    {
      RunControlOptions rco;
      rco.cancel_after_level = 2;
      rco.checkpoint_path = ckpt;
      RunControl run(rco);
      Config cfg;
      cfg.run_control = &run;
      part = make(cfg)->mine(db, params);
      ASSERT_TRUE(part.truncated());
    }
    RunControlOptions rco;
    rco.resume_path = ckpt;
    RunControl run(rco);
    Config cfg;
    cfg.run_control = &run;
    const auto resumed = make(cfg)->mine(db, params);
    EXPECT_FALSE(resumed.truncated());
    expect_bit_identical(full, resumed);
    // Level 2 was rebuilt, not recounted: it reports the snapshot's
    // recorded wall time.
    EXPECT_EQ(resumed.levels[1].host_ms, part.levels[1].host_ms);
  }
  std::remove(ckpt.c_str());
}

TEST(RunControl, RegistryCpuTestHonoursRunControl) {
  // make_all_miners hands its Config's RunControl to CPU_TEST too, so a
  // missing --resume snapshot is an I/O error, not a silent fresh run.
  RunControlOptions rco;
  rco.resume_path = scratch_path("no_such_snapshot.ckpt");
  RunControl run(rco);
  Config cfg;
  cfg.run_control = &run;
  bool found = false;
  for (auto& m : make_all_miners(cfg)) {
    if (m->name() != "CPU_TEST") continue;
    found = true;
    EXPECT_THROW((void)m->mine(drill_db(), drill_params()), fim::IoError);
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Checkpoint integrity.

TEST(Checkpoint, ResumeRejectsDifferentDataset) {
  const auto params = drill_params();
  const std::string ckpt = scratch_path("wrong_db.ckpt");
  {
    RunControlOptions rco;
    rco.cancel_after_level = 2;
    rco.checkpoint_path = ckpt;
    RunControl run(rco);
    Config cfg;
    cfg.run_control = &run;
    (void)GpApriori(cfg).mine(drill_db(), params);
  }
  RunControlOptions rco;
  rco.resume_path = ckpt;
  RunControl run(rco);
  Config cfg;
  cfg.run_control = &run;
  const auto other = testutil::random_db(150, 10, 0.5, 12);
  EXPECT_THROW((void)GpApriori(cfg).mine(other, params), fim::IoError);
  std::remove(ckpt.c_str());
}

TEST(Checkpoint, ResumeRejectsDifferentMinCount) {
  const auto db = drill_db();
  const std::string ckpt = scratch_path("wrong_sup.ckpt");
  {
    RunControlOptions rco;
    rco.cancel_after_level = 2;
    rco.checkpoint_path = ckpt;
    RunControl run(rco);
    Config cfg;
    cfg.run_control = &run;
    (void)GpApriori(cfg).mine(db, drill_params());
  }
  RunControlOptions rco;
  rco.resume_path = ckpt;
  RunControl run(rco);
  Config cfg;
  cfg.run_control = &run;
  miners::MiningParams p;
  p.min_support_abs = 40;  // checkpoint was taken at 20
  EXPECT_THROW((void)GpApriori(cfg).mine(db, p), fim::IoError);
  std::remove(ckpt.c_str());
}

TEST(Checkpoint, ReadRejectsBadMagicAndTruncation) {
  const std::string bad = scratch_path("bad_magic.ckpt");
  {
    std::FILE* f = std::fopen(bad.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[16] = "not a snapshot";
    std::fwrite(junk, 1, sizeof junk, f);
    std::fclose(f);
  }
  EXPECT_THROW((void)fim::MiningCheckpoint::read(bad), fim::IoError);
  EXPECT_THROW((void)fim::MiningCheckpoint::read(scratch_path("missing")),
               fim::IoError);

  // Valid header, truncated body.
  const auto db = drill_db();
  const std::string ckpt = scratch_path("trunc.ckpt");
  {
    RunControlOptions rco;
    rco.cancel_after_level = 2;
    rco.checkpoint_path = ckpt;
    RunControl run(rco);
    Config cfg;
    cfg.run_control = &run;
    (void)GpApriori(cfg).mine(db, drill_params());
  }
  const auto cp = fim::MiningCheckpoint::read(ckpt);  // sanity: parses
  EXPECT_EQ(cp.completed_level, 2u);
  std::FILE* f = std::fopen(ckpt.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<unsigned char> bytes(cp.byte_size());
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  const std::string cut = scratch_path("cut.ckpt");
  f = std::fopen(cut.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
  std::fclose(f);
  EXPECT_THROW((void)fim::MiningCheckpoint::read(cut), fim::IoError);
  std::remove(bad.c_str());
  std::remove(ckpt.c_str());
  std::remove(cut.c_str());
}

/// Bytes of a small valid snapshot: two levels, then itemsets {1} and
/// {1, 2}.
std::vector<unsigned char> small_snapshot_bytes(const std::string& path) {
  fim::MiningCheckpoint cp;
  cp.min_count = 3;
  cp.max_itemset_size = 4;
  cp.completed_level = 2;
  cp.levels = {{1, 5, 3, 0.5, 0.25}, {2, 3, 1, 0.5, 0.25}};
  cp.itemsets.add(fim::Itemset{1}, 4);
  cp.itemsets.add(fim::Itemset{1, 2}, 3);
  cp.write(path);
  std::vector<unsigned char> bytes(cp.byte_size());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return {};
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

/// Overwrites the integer at `offset` of the snapshot at `path` and
/// expects read() to refuse it with an IoError naming `what`.
template <typename T>
void expect_field_rejected(const std::string& path, std::size_t offset,
                           T value, const std::string& what) {
  std::vector<unsigned char> bytes = small_snapshot_bytes(path);
  ASSERT_GE(bytes.size(), offset + sizeof(T));
  (void)fim::MiningCheckpoint::read(path);  // sanity: the original parses
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  try {
    (void)fim::MiningCheckpoint::read(path);
    ADD_FAILURE() << "a " << what << " of " << value << " was accepted";
  } catch (const fim::IoError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// Header: magic, version (u32 each), three u64 digests/threshold, two u32
// level fields — then the u64 level count, 36-byte level records, the u64
// itemset count and the first itemset's u32 length.
constexpr std::size_t kLevelCountOffset = 4 + 4 + 8 + 8 + 8 + 4 + 4;

TEST(Checkpoint, ReadRejectsHugeLevelCountBeforeAllocating) {
  expect_field_rejected(scratch_path("huge_levels.ckpt"), kLevelCountOffset,
                        std::uint64_t{1} << 40, "level count");
}

TEST(Checkpoint, ReadRejectsHugeItemsetLengthBeforeAllocating) {
  expect_field_rejected(scratch_path("huge_itemset.ckpt"),
                        kLevelCountOffset + 8 + 2 * 36 + 8,
                        std::uint32_t{0xFFFFFFFFu}, "itemset length");
}

TEST(Checkpoint, WriteRoundTripsAllFields) {
  const auto db = drill_db();
  const std::string ckpt = scratch_path("roundtrip.ckpt");
  {
    RunControlOptions rco;
    rco.cancel_after_level = 3;
    rco.checkpoint_path = ckpt;
    RunControl run(rco);
    Config cfg;
    cfg.run_control = &run;
    const auto part = GpApriori(cfg).mine(db, drill_params());
    ASSERT_TRUE(part.truncated());
    const auto cp = fim::MiningCheckpoint::read(ckpt);
    EXPECT_EQ(cp.completed_level, 3u);
    EXPECT_EQ(cp.dataset_digest, fim::dataset_digest(db));
    EXPECT_EQ(cp.min_count, 20u);
    ASSERT_EQ(cp.levels.size(), 3u);
    EXPECT_EQ(cp.levels[0].level, 1u);
    EXPECT_EQ(cp.itemsets.size(), part.itemsets.size());
  }
  std::remove(ckpt.c_str());
}

// ---------------------------------------------------------------------------
// Resume rebuilds the trie from the snapshot and checks it while doing so.

/// The snapshot CPU_TEST leaves when the drill is cut after level 3.
fim::MiningCheckpoint drill_snapshot(const std::string& path) {
  RunControlOptions rco;
  rco.cancel_after_level = 3;
  rco.checkpoint_path = path;
  RunControl run(rco);
  (void)CpuBitsetApriori(&run).mine(drill_db(), drill_params());
  return fim::MiningCheckpoint::read(path);
}

/// `cp` with each itemset passed through `edit`, which may change it or
/// drop it (by returning false).
fim::MiningCheckpoint with_itemsets(
    fim::MiningCheckpoint cp,
    const std::function<bool(fim::FrequentItemset&)>& edit) {
  fim::ItemsetCollection kept;
  for (fim::FrequentItemset fs : cp.itemsets)
    if (edit(fs)) kept.add(std::move(fs.items), fs.support);
  cp.itemsets = std::move(kept);
  return cp;
}

/// Writes `cp` (sealed, so only the rebuild can object) and expects a
/// CPU_TEST resume of the drill from it to throw an IoError naming `what`.
void expect_resume_rejected(const fim::MiningCheckpoint& cp,
                            const std::string& path, const std::string& what) {
  cp.write(path);
  RunControlOptions rco;
  rco.resume_path = path;
  RunControl run(rco);
  try {
    (void)CpuBitsetApriori(&run).mine(drill_db(), drill_params());
    ADD_FAILURE() << "a snapshot failing '" << what << "' was resumed";
  } catch (const fim::IoError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(Rebuild, EachCheckRejectsItsBadSnapshot) {
  const std::string path = scratch_path("rebuild_checks.ckpt");
  const fim::MiningCheckpoint good = drill_snapshot(path);
  ASSERT_EQ(good.completed_level, 3u);
  ASSERT_EQ(good.levels.size(), 3u);
  const auto size_is = [](std::size_t k) {
    return [k](const fim::FrequentItemset& fs) { return fs.items.size() == k; };
  };
  const fim::FrequentItemset first_pair =
      *std::find_if(good.itemsets.begin(), good.itemsets.end(), size_is(2));
  const fim::FrequentItemset first_triple =
      *std::find_if(good.itemsets.begin(), good.itemsets.end(), size_is(3));

  using Edit = std::function<fim::MiningCheckpoint(fim::MiningCheckpoint)>;
  const std::vector<std::pair<std::string, Edit>> cases = {
      // Must fail before anything is sized from it.
      {"completed level",
       [](fim::MiningCheckpoint cp) {
         cp.completed_level = 0xFFFFFFFFu;
         return cp;
       }},
      {"completed level",
       [](fim::MiningCheckpoint cp) {
         cp.completed_level = 0;
         return cp;
       }},
      {"level records",
       [](fim::MiningCheckpoint cp) {
         cp.levels.pop_back();
         return cp;
       }},
      {"level records",
       [](fim::MiningCheckpoint cp) {
         cp.levels[2].level = 2;
         return cp;
       }},
      {"itemset count",
       [](fim::MiningCheckpoint cp) {
         ++cp.levels[1].frequent;
         return cp;
       }},
      {"itemset count",
       [](fim::MiningCheckpoint cp) {
         cp.itemsets.add(fim::Itemset{0, 1, 2, 3}, 50);
         return cp;
       }},
      {"level 1 support",
       [](fim::MiningCheckpoint cp) {
         return with_itemsets(cp, [](fim::FrequentItemset& fs) {
           if (fs.items.size() == 1 && fs.items[0] == 0) ++fs.support;
           return true;
         });
       }},
      {"level 1 holds",
       [](fim::MiningCheckpoint cp) {
         --cp.levels[0].frequent;
         return with_itemsets(cp, [](fim::FrequentItemset& fs) {
           return !(fs.items.size() == 1 && fs.items[0] == 0);
         });
       }},
      {"not a frequent item",
       [&](fim::MiningCheckpoint cp) {
         return with_itemsets(cp, [&](fim::FrequentItemset& fs) {
           if (fs == first_pair) fs.items = fim::Itemset{fs.items[0], 1000};
           return true;
         });
       }},
      {"below min-count",
       [&](fim::MiningCheckpoint cp) {
         return with_itemsets(cp, [&](fim::FrequentItemset& fs) {
           if (fs == first_pair) fs.support = 19;
           return true;
         });
       }},
      {"appears twice",
       [&](fim::MiningCheckpoint cp) {
         ++cp.levels[1].frequent;
         cp.itemsets.add(first_pair.items, first_pair.support);
         return cp;
       }},
      // Every 2-subset of one triple gone: whichever is its prefix in the
      // dense row order, the triple has no parent.
      {"prefix",
       [&](fim::MiningCheckpoint cp) {
         cp = with_itemsets(cp, [&](fim::FrequentItemset& fs) {
           return !(fs.items.size() == 2 &&
                    first_triple.items.contains_all(fs.items));
         });
         cp.levels[1].frequent -= 3;
         return cp;
       }},
  };
  for (const auto& [what, edit] : cases) {
    SCOPED_TRACE(what);
    expect_resume_rejected(edit(good), path, what);
  }
  std::remove(path.c_str());
}

TEST(Rebuild, SnapshotInAnyItemsetOrderResumesBitIdentical) {
  // The loop writes each level in trie order, so its rebuild only scans;
  // a snapshot in any other order is sorted into it.
  const auto db = drill_db();
  const auto params = drill_params();
  const std::string path = scratch_path("rebuild_order.ckpt");
  const auto full = CpuBitsetApriori().mine(db, params);
  fim::MiningCheckpoint cp = drill_snapshot(path);
  std::vector<fim::FrequentItemset> sets = cp.itemsets.sets();
  std::reverse(sets.begin(), sets.end());
  cp.itemsets = fim::ItemsetCollection();
  cp.itemsets.add_batch(std::move(sets));
  cp.write(path);
  RunControlOptions rco;
  rco.resume_path = path;
  RunControl run(rco);
  expect_bit_identical(full, CpuBitsetApriori(&run).mine(db, params));
  std::remove(path.c_str());
}

TEST(Rebuild, FlippedSupportByteIsRejectedByTheChecksum) {
  // The last itemset, {1, 2} with support 3, ends just before the u64
  // checksum: its support becomes 2.
  expect_field_rejected(scratch_path("flipped.ckpt"),
                        kLevelCountOffset + 8 + 2 * 36 + 8 + 12 + 12,
                        std::uint32_t{2}, "checksum");
}

TEST(Rebuild, VersionOneSnapshotIsRejectedByVersion) {
  expect_field_rejected(scratch_path("v1.ckpt"), 4, std::uint32_t{1},
                        "version 1");
}

TEST(Rebuild, ResumeThenLadderHopMatchesTheUninterruptedRun) {
  // The static rung rebuilds from the snapshot, then dies on a sticky
  // launch fault; the CPU_TEST rung runs the same loop again and must
  // rebuild from the same, intact snapshot.
  const auto db = drill_db();
  const auto params = drill_params();
  const std::string path = scratch_path("ladder_hop.ckpt");
  const auto full = GpApriori().mine(db, params);
  {
    RunControlOptions rco;
    rco.cancel_after_level = 2;
    rco.checkpoint_path = path;
    RunControl run(rco);
    Config cfg;
    cfg.run_control = &run;
    ASSERT_TRUE(GpApriori(cfg).mine(db, params).truncated());
  }
  RunControlOptions rco;
  rco.resume_path = path;
  RunControl run(rco);
  Config cfg;
  cfg.run_control = &run;
  cfg.fault_plan = gpusim::FaultPlan::parse("launch#1+=timeout");
  GpApriori miner(cfg);
  const auto resumed = miner.mine(db, params);
  EXPECT_EQ(miner.resilience_report().degraded_to, DegradationStep::kCpu);
  EXPECT_FALSE(resumed.truncated());
  expect_bit_identical(full, resumed);
  std::remove(path.c_str());
}

TEST(Rebuild, ResumeFromEveryCutLevelMatchesTheUninterruptedRun) {
  // A dense run, cut after each of its levels (level 1 by an expired
  // deadline, the others by cancel_after_level) and resumed, for CPU_TEST
  // tiled and untiled and GPApriori at 1, 2 and all host threads.
  const auto db = testutil::random_db(240, 12, 0.6, 17);
  miners::MiningParams params;
  params.min_support_abs = 30;
  const std::string path = scratch_path("every_cut.ckpt");
  using Mine = std::function<miners::MiningOutput(RunControl*, std::uint32_t)>;
  const std::vector<std::pair<std::string, Mine>> miners_under_test = {
      {"cpu-tiled",
       [&](RunControl* rc, std::uint32_t t) {
         return CpuBitsetApriori(rc, true, 1, 0, t).mine(db, params);
       }},
      {"cpu-untiled",
       [&](RunControl* rc, std::uint32_t t) {
         return CpuBitsetApriori(rc, false, 1, 0, t).mine(db, params);
       }},
      {"gpapriori",
       [&](RunControl* rc, std::uint32_t t) {
         Config cfg;
         cfg.run_control = rc;
         cfg.host_threads = t;
         return GpApriori(cfg).mine(db, params);
       }},
  };
  for (const auto& [name, mine] : miners_under_test) {
    for (const std::uint32_t threads : {1u, 2u, 0u}) {
      SCOPED_TRACE(name + " host_threads " + std::to_string(threads));
      const auto full = mine(nullptr, threads);
      ASSERT_GE(full.levels.size(), 5u) << "not dense enough";
      for (std::size_t cut = 1; cut <= full.levels.size(); ++cut) {
        SCOPED_TRACE("cut after level " + std::to_string(cut));
        std::remove(path.c_str());
        miners::MiningOutput part;
        {
          RunControlOptions rco;
          if (cut == 1)
            rco.deadline_ms = 1e-4;
          else
            rco.cancel_after_level = cut;
          rco.checkpoint_path = path;
          RunControl run(rco);
          part = mine(&run, threads);
        }
        ASSERT_EQ(fim::MiningCheckpoint::read(path).completed_level, cut);
        RunControlOptions rco;
        rco.resume_path = path;
        RunControl run(rco);
        const auto resumed = mine(&run, threads);
        EXPECT_FALSE(resumed.truncated());
        expect_bit_identical(full, resumed);
        // The rebuilt levels report what the cut run recorded.
        for (std::size_t i = 0; i < cut; ++i) {
          EXPECT_EQ(resumed.levels[i].host_ms, part.levels[i].host_ms);
          EXPECT_EQ(resumed.levels[i].device_ms, part.levels[i].device_ms);
        }
      }
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Watchdog, deadline, device budget.

TEST(RunControl, WatchdogFreesRunStuckInRetryLoop) {
  // A sticky transfer fault plus an effectively unbounded retry policy
  // would spin forever: every attempt refails, simulated backoff never
  // sleeps, and the driver never reaches a level-boundary poll. Only the
  // watchdog (real wall clock, own thread) can break the loop.
  const auto db = drill_db();
  RunControlOptions rco;
  rco.watchdog_ms = 50;
  RunControl run(rco);
  Config cfg;
  cfg.run_control = &run;
  cfg.fault_plan = gpusim::FaultPlan::parse("h2d#1+=fail");
  cfg.retry.max_retries = 1u << 30;
  cfg.retry.max_total_backoff_ms = 0;  // unlimited: the budget must not save us
  GpApriori miner(cfg);
  const auto out = miner.mine(db, drill_params());
  EXPECT_TRUE(out.truncated());
  EXPECT_EQ(out.stop_reason, "watchdog");
  EXPECT_EQ(out.truncated_at_level, 2u);
  // Cancellation salvaged instead of hopping the ladder.
  EXPECT_EQ(miner.resilience_report().degraded_to, DegradationStep::kNone);
  ASSERT_EQ(out.levels.size(), 1u);
  EXPECT_EQ(out.levels[0].level, 1u);
}

TEST(RunControl, DeadlineMidLadderSalvagesInsteadOfHopping) {
  // The first rung dies with a genuine OOM; by the time the ladder decides
  // what to do next the deadline has expired. The run must salvage level 1
  // and stop — not burn the partitioned and CPU rungs past its budget.
  const auto db = drill_db();
  RunControlOptions rco;
  rco.deadline_ms = 1e-4;
  RunControl run(rco);
  Config cfg;
  cfg.run_control = &run;
  cfg.fault_plan = gpusim::FaultPlan::parse("alloc#1=oom");
  GpApriori miner(cfg);
  const auto out = miner.mine(db, drill_params());
  EXPECT_TRUE(out.truncated());
  EXPECT_EQ(out.stop_reason, "deadline");
  EXPECT_EQ(out.truncated_at_level, 2u);
  EXPECT_EQ(miner.resilience_report().degraded_to, DegradationStep::kNone);
  ASSERT_EQ(out.levels.size(), 1u);
}

TEST(RunControl, DeviceBudgetTripsAfterDeviceWork) {
  const auto db = drill_db();
  RunControlOptions rco;
  rco.device_budget_ms = 1e-9;  // any kernel work exceeds this
  RunControl run(rco);
  Config cfg;
  cfg.run_control = &run;
  const auto out = GpApriori(cfg).mine(db, drill_params());
  EXPECT_TRUE(out.truncated());
  EXPECT_EQ(out.stop_reason, "device-budget");
  EXPECT_GE(out.levels.size(), 1u);
}

TEST(RunControl, CpuTestStopsInsideALevelAtItsDeadline) {
  // CPU_TEST counts on the host, so one level can be most of the run. A
  // deadline that fires inside it must stop the count there rather than
  // at the level's end, and keep the completed levels intact. Long rows
  // (120,000 transactions) make counting about four fifths of level 5, so
  // a deadline halfway through the level lands in the count.
  const auto db = testutil::random_db(120'000, 24, 0.5, 92);
  miners::MiningParams params;
  params.min_support_ratio = 0.05;
  for (const bool tiled : {true, false}) {
    SCOPED_TRACE(tiled ? "tiled" : "complete intersection");
    // The deadline is placed from an uncancelled run, and a loaded machine
    // can slow that run more than the cancelled one, which then finishes
    // before its deadline; such an attempt is repeated.
    bool landed = false;
    for (int attempt = 0; attempt < 5 && !landed; ++attempt) {
      const auto full =
          CpuBitsetApriori(nullptr, tiled, 1, 0, 1).mine(db, params);
      // The longest level, and the host time spent before it started.
      std::size_t longest = 1;
      for (std::size_t i = 1; i < full.levels.size(); ++i)
        if (full.levels[i].host_ms > full.levels[longest].host_ms)
          longest = i;
      double before = full.host_ms;
      for (std::size_t i = longest; i < full.levels.size(); ++i)
        before -= full.levels[i].host_ms;
      const double level_ms = full.levels[longest].host_ms;

      RunControlOptions rco;
      rco.deadline_ms = before + level_ms / 2;
      RunControl run(rco);
      const auto t0 = std::chrono::steady_clock::now();
      const auto out = CpuBitsetApriori(&run, tiled, 1, 0, 1).mine(db, params);
      const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count();
      landed = out.truncated();
      if (!landed) continue;
      EXPECT_EQ(out.stop_reason, "deadline");
      // Counting the rest of the level would overrun by about half of it.
      EXPECT_LT(elapsed_ms - rco.deadline_ms, level_ms / 4)
          << "level " << full.levels[longest].level << " took " << level_ms
          << " ms uncancelled";

      // The completed levels are the uninterrupted run's, byte for byte.
      expect_level_prefix(full, out);
      fim::ItemsetCollection prefix;
      for (const auto& fs : full.itemsets)
        if (fs.items.size() < out.truncated_at_level)
          prefix.add(fs.items, fs.support);
      prefix.canonicalize();
      EXPECT_EQ(out.itemsets.to_string(), prefix.to_string());
    }
    EXPECT_TRUE(landed) << "no run of 5 was still mining at its deadline";
  }
}

/// The [begin, end] times, in ms of the trace clock, of every event named
/// `name` in an exported trace: spans (which must not nest in each other)
/// and instants, whose end is their begin.
std::vector<std::pair<double, double>> event_times(const std::string& json,
                                                   const std::string& name) {
  std::vector<std::pair<double, double>> times;
  const std::string head = "{\"name\": \"" + name + "\", ";
  for (auto at = json.find(head); at != std::string::npos;
       at = json.find(head, at + 1)) {
    const char phase = json[json.find("\"ph\": \"", at) + 7];
    const double ms =
        std::strtod(json.c_str() + json.find("\"ts\": ", at) + 6, nullptr) /
        1000.0;
    if (phase == 'B' || phase == 'i') times.emplace_back(ms, ms);
    if (phase == 'E' && !times.empty()) times.back().second = ms;
  }
  return times;
}

/// A deadline a third of the way into the longest `span` of a traced
/// uncancelled CPU_TEST mine of dense data must stop the run inside that
/// span, not at the next level's first check: the salvage follows the
/// watchdog's cancel within a quarter of the span, and the completed levels
/// are the uninterrupted run's, byte for byte.
void expect_deadline_stops_inside(const std::string& span) {
  const auto db = testutil::random_db(3000, 30, 0.55, 4);
  miners::MiningParams params;
  params.min_support_ratio = 0.05;
  // A first run warms the allocator and is the reference answer.
  const auto full = CpuBitsetApriori(nullptr, true, 1, 0, 1).mine(db, params);
  auto& rec = obs::TraceRecorder::global();
  rec.enable();
  const auto now_ms = [&] { return static_cast<double>(rec.now_ns()) / 1e6; };
  // The deadline is placed from a traced uncancelled run, and a loaded
  // machine can move it out of the span in the cancelled one; such an
  // attempt is repeated.
  bool landed = false;
  for (int attempt = 0; attempt < 10 && !landed; ++attempt) {
    rec.clear();
    double t0 = now_ms();
    (void)CpuBitsetApriori(nullptr, true, 1, 0, 1).mine(db, params);
    std::pair<double, double> longest{0, 0};
    for (const auto& t : event_times(rec.export_chrome_json(), span))
      if (t.second - t.first > longest.second - longest.first) longest = t;
    const double span_ms = longest.second - longest.first;

    RunControlOptions rco;
    rco.deadline_ms = longest.first - t0 + span_ms / 3;
    RunControl run(rco);
    rec.clear();
    t0 = now_ms();
    const auto out = CpuBitsetApriori(&run, true, 1, 0, 1).mine(db, params);
    const std::string json = rec.export_chrome_json();
    for (const auto& t : event_times(json, span))
      landed = landed || (t.first - t0 <= rco.deadline_ms &&
                          rco.deadline_ms <= t.second - t0);
    if (!landed) continue;

    ASSERT_TRUE(out.truncated());
    EXPECT_EQ(out.stop_reason, "deadline");
    const auto cancelled = event_times(json, "cancel:deadline");
    const auto salvaged = event_times(json, "salvaged:deadline");
    ASSERT_EQ(cancelled.size(), 1u);
    ASSERT_EQ(salvaged.size(), 1u);
    // The watchdog trips the token on its 5 ms tick after the deadline;
    // from there, finishing the span would take about two thirds of it.
    EXPECT_LT(salvaged[0].first - cancelled[0].first, span_ms / 4)
        << "the longest " << span << " took " << span_ms
        << " ms uncancelled";

    expect_level_prefix(full, out);
    fim::ItemsetCollection prefix;
    for (const auto& fs : full.itemsets)
      if (fs.items.size() < out.truncated_at_level)
        prefix.add(fs.items, fs.support);
    prefix.canonicalize();
    EXPECT_EQ(out.itemsets.to_string(), prefix.to_string());
  }
  rec.disable();
  rec.clear();
  EXPECT_TRUE(landed) << "no deadline of 10 fell inside " << span;
}

TEST(RunControl, CandidateGenerationStopsAtItsDeadline) {
  // On dense data CPU_TEST spends most of a late level generating
  // candidates.
  expect_deadline_stops_inside("candidate-gen");
}

TEST(RunControl, EmitStopsAtItsDeadline) {
  // Emitting a late level's survivors takes milliseconds too; a deadline
  // inside it drops the level's partial itemsets.
  expect_deadline_stops_inside("emit");
}

TEST(RunControl, GenerousLimitsDoNotPerturbTheRun) {
  const auto db = drill_db();
  const auto params = drill_params();
  const auto full = GpApriori().mine(db, params);
  RunControlOptions rco;
  rco.deadline_ms = 60'000;
  rco.watchdog_ms = 60'000;
  rco.device_budget_ms = 60'000;
  RunControl run(rco);
  Config cfg;
  cfg.run_control = &run;
  const auto out = GpApriori(cfg).mine(db, params);
  EXPECT_FALSE(out.truncated());
  expect_bit_identical(full, out);
}

TEST(RunControl, ResetRearmsForASecondRun) {
  const auto db = drill_db();
  const auto params = drill_params();
  RunControlOptions rco;
  rco.cancel_after_level = 2;
  RunControl run(rco);
  Config cfg;
  cfg.run_control = &run;
  const auto first = GpApriori(cfg).mine(db, params);
  EXPECT_TRUE(first.truncated());
  run.reset();
  const auto second = GpApriori(cfg).mine(db, params);
  EXPECT_TRUE(second.truncated());  // the drill re-arms too
  EXPECT_EQ(second.truncated_at_level, 3u);
}

TEST(RunControl, SignalStyleExternalCancelSalvages) {
  // Emulates the CLI's SIGINT handler: a foreign thread trips the token
  // mid-run; the workers drain and the driver salvages.
  const auto db = testutil::random_db(400, 16, 0.5, 33);
  RunControl run;
  Config cfg;
  cfg.run_control = &run;
  std::thread killer([&run] { run.request_cancel(); });
  const auto out = GpApriori(cfg).mine(db, drill_params());
  killer.join();
  if (out.truncated()) {  // racy by design: the trip may land after the run
    EXPECT_EQ(out.stop_reason, "user-cancel");
    EXPECT_GE(out.truncated_at_level, 2u);
  }
}

// ---------------------------------------------------------------------------
// Run-level fault budget (ResiliencePolicy satellite).

TEST(FaultBudget, ExhaustionStopsRetriesAndIsReported) {
  // A sticky transfer fault with a near-zero budget: the first backoff
  // already exceeds it, so instead of max_retries attempts the error
  // propagates at once and the ladder (not the retry loop) handles it.
  const auto db = drill_db();
  Config cfg;
  cfg.fault_plan = gpusim::FaultPlan::parse("h2d#1+=fail");
  cfg.retry.max_retries = 1u << 30;
  cfg.retry.max_total_backoff_ms = 1e-6;
  GpApriori miner(cfg);
  const auto out = miner.mine(db, drill_params());
  const auto& rep = miner.resilience_report();
  EXPECT_TRUE(rep.fault_budget_exhausted);
  EXPECT_EQ(rep.degraded_to, DegradationStep::kCpu);
  EXPECT_FALSE(out.truncated());
  // Bit-exact despite the hostile plan: the CPU rung needs no transfers.
  EXPECT_TRUE(
      out.itemsets.equivalent_to(CpuBitsetApriori().mine(db, drill_params()).itemsets));
  EXPECT_NE(rep.summary().find("fault_budget_exhausted=yes"),
            std::string::npos);
}

TEST(FaultBudget, GenerousBudgetStillRetriesTransients) {
  const auto db = drill_db();
  Config cfg;
  cfg.fault_plan = gpusim::FaultPlan::parse("h2d#2=fail");
  GpApriori miner(cfg);
  const auto out = miner.mine(db, drill_params());
  const auto& rep = miner.resilience_report();
  EXPECT_FALSE(rep.fault_budget_exhausted);
  EXPECT_GE(rep.retries, 1u);
  EXPECT_EQ(rep.degraded_to, DegradationStep::kNone);
  EXPECT_FALSE(out.truncated());
}

}  // namespace
