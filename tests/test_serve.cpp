// MiningService acceptance drills (DESIGN.md §14): N concurrent requests
// produce byte-identical itemsets to N serial mine() calls, the dataset
// cache accounts hits/misses/evictions correctly, admission control
// rejects past the queue bound, a per-request deadline salvages completed
// levels, identical in-flight requests dedup onto one execution, a cancel
// reaches a request wherever it is before its answer, a failed mine is
// hedged inside its one execution, a cached layout is adopted only by the
// object it was built from, and the request-file parser rejects malformed
// input with line context.

#include "serve/mining_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/fault.hpp"

#include "core/gpapriori_all.hpp"
#include "datagen/profiles.hpp"
#include "fim/fimi_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/dataset_cache.hpp"
#include "serve/planner.hpp"
#include "serve/request_io.hpp"
#include "test_util.hpp"

namespace {

using serve::MiningRequest;
using serve::MiningResult;
using serve::MiningService;
using serve::RequestStatus;
using serve::ServiceOptions;

fim::TransactionDb small_db() { return testutil::random_db(300, 10, 0.4, 7); }

/// Larger and sparser: several levels of work, so deadlines and queue
/// backpressure have something to interrupt.
fim::TransactionDb slow_db() { return testutil::random_db(2500, 40, 0.30, 11); }

std::string scratch(const std::string& name) {
  return testing::TempDir() + "/gpa_serve_" + name;
}

/// A device driver without a CPU rung of its own: under a sticky device
/// fault its mine throws, so the service hedges it (GPApriori's ladder
/// answers such a fault itself and is never hedged).
constexpr const char* kPartitioned = "GPApriori (partitioned)";

MiningRequest req(const std::string& id, const std::string& dataset,
                  double support, const std::string& algo = "") {
  MiningRequest r;
  r.id = id;
  r.dataset = dataset;
  r.algo = algo;
  r.min_support_ratio = support;
  return r;
}

// -- Concurrent == serial ---------------------------------------------------

TEST(MiningServiceTest, ConcurrentBatchMatchesSerialByteForByte) {
  const auto db = small_db();
  const std::string path = scratch("concurrent.dat");
  fim::write_fimi_file(db, path);

  const char* const algos[] = {
      "GPApriori",           "GPApriori (eq-class)",
      "GPApriori (pipelined)", "GPApriori (partitioned)",
      "GPU Eclat",           "Hybrid CPU+GPU Apriori",
      "CPU_TEST",            "Eclat (tidsets)",
  };
  const double supports[] = {0.3, 0.3, 0.25, 0.25, 0.3, 0.2, 0.3, 0.3};

  ServiceOptions so;
  so.workers = 4;
  MiningService service(so);
  std::vector<MiningRequest> batch;
  for (std::size_t i = 0; i < std::size(algos); ++i)
    batch.push_back(req("r" + std::to_string(i), path, supports[i], algos[i]));
  const auto results = service.run_batch(batch);

  ASSERT_EQ(results.size(), std::size(algos));
  for (std::size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(algos[i]);
    ASSERT_EQ(results[i].status, RequestStatus::kOk) << results[i].error;
    EXPECT_EQ(results[i].id, "r" + std::to_string(i));
    EXPECT_EQ(results[i].algo, algos[i]);

    // Serial reference: the same driver, default Config, no sharing.
    gpapriori::Config cfg;
    std::unique_ptr<miners::Miner> miner;
    for (auto& m : gpapriori::make_all_miners(cfg))
      if (std::string(m->name()) == algos[i]) miner = std::move(m);
    if (!miner) {
      if (std::string(algos[i]) == "GPApriori (eq-class)")
        miner = std::make_unique<gpapriori::EqClassApriori>(cfg);
      else if (std::string(algos[i]) == "GPApriori (pipelined)")
        miner = std::make_unique<gpapriori::PipelinedGpApriori>(cfg);
      else if (std::string(algos[i]) == "GPApriori (partitioned)")
        miner = std::make_unique<gpapriori::PartitionedGpApriori>(cfg);
      else if (std::string(algos[i]) == "GPU Eclat")
        miner = std::make_unique<gpapriori::GpuEclat>(cfg);
      else if (std::string(algos[i]) == "Hybrid CPU+GPU Apriori")
        miner = std::make_unique<gpapriori::HybridApriori>(cfg);
    }
    ASSERT_NE(miner, nullptr);
    miners::MiningParams p;
    p.min_support_ratio = supports[i];
    const auto serial = miner->mine(db, p);
    EXPECT_EQ(results[i].itemsets.to_string(), serial.itemsets.to_string());
  }
  std::remove(path.c_str());
}

TEST(MiningServiceTest, RegisteredHandleAvoidsFileIo) {
  MiningService service;
  service.register_dataset("mem", small_db());
  auto r = service.run_batch({req("h", "mem", 0.3, "GPApriori")});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].status, RequestStatus::kOk) << r[0].error;
  EXPECT_TRUE(r[0].db_cache_hit);  // handles never miss
  EXPECT_GT(r[0].itemsets.size(), 0u);
}

// -- Cache accounting -------------------------------------------------------

TEST(MiningServiceTest, CacheHitAndMissAccounting) {
  const std::string path = scratch("cache.dat");
  fim::write_fimi_file(small_db(), path);

  ServiceOptions so;
  so.workers = 1;  // serialize: hit/miss order is then deterministic
  MiningService service(so);
  const auto results = service.run_batch({
      req("m1", path, 0.3, "GPApriori"),   // db miss, layout miss
      req("m2", path, 0.3, "CPU_TEST"),    // db hit (no layout: CPU_TEST)
      req("m3", path, 0.3, "GPU Eclat"),   // db hit, layout hit
      req("m4", path, 0.25, "GPApriori"),  // db hit, layout miss (new minc)
  });
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results)
    ASSERT_EQ(r.status, RequestStatus::kOk) << r.id << ": " << r.error;

  EXPECT_FALSE(results[0].db_cache_hit);
  EXPECT_FALSE(results[0].layout_cache_hit);
  EXPECT_TRUE(results[1].db_cache_hit);
  EXPECT_TRUE(results[2].db_cache_hit);
  EXPECT_TRUE(results[2].layout_cache_hit);
  EXPECT_TRUE(results[3].db_cache_hit);
  EXPECT_FALSE(results[3].layout_cache_hit);

  const auto st = service.stats();
  EXPECT_EQ(st.cache.db_misses, 1u);
  EXPECT_EQ(st.cache.db_hits, 3u);
  EXPECT_EQ(st.cache.layout_misses, 2u);
  EXPECT_EQ(st.cache.layout_hits, 1u);
  EXPECT_EQ(st.submitted, 4u);
  EXPECT_EQ(st.completed, 4u);
  std::remove(path.c_str());
}

TEST(DatasetCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  serve::DatasetCache cache(1);  // everything inserted is immediately over
  const std::string path = scratch("evict.dat");
  fim::write_fimi_file(small_db(), path);
  const auto d1 = cache.get_dataset(path);
  EXPECT_FALSE(d1.hit);
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().bytes_in_cache, 0u);
  // The evicted entry stays usable through its shared_ptr...
  EXPECT_GT(d1.dataset->db.num_transactions(), 0u);
  // ...and the next get re-parses (no stale serve).
  const auto d2 = cache.get_dataset(path);
  EXPECT_FALSE(d2.hit);
  EXPECT_EQ(d1.dataset->digest, d2.dataset->digest);
  std::remove(path.c_str());
}

TEST(DatasetCacheTest, OverwrittenFileIsReparsedNotServedStale) {
  serve::DatasetCache cache;
  const std::string path = scratch("stale.dat");
  fim::write_fimi_file(small_db(), path);
  const auto d1 = cache.get_dataset(path);
  // Replace the file with different content (different size => stamp
  // mismatch regardless of mtime granularity).
  fim::write_fimi_file(testutil::random_db(120, 8, 0.5, 99), path);
  const auto d2 = cache.get_dataset(path);
  EXPECT_FALSE(d2.hit);
  EXPECT_NE(d1.dataset->digest, d2.dataset->digest);
  std::remove(path.c_str());
}

// -- Layout adoption by identity --------------------------------------------

void expect_same_layout(const miners::Preprocessed& a,
                        const miners::Preprocessed& b) {
  EXPECT_EQ(a.original_item, b.original_item);
  EXPECT_EQ(a.support, b.support);
  EXPECT_TRUE(a.db == b.db);
}

TEST(DatasetCacheTest, LayoutIsAdoptedOnlyByTheObjectItWasBuiltFrom) {
  const std::string path = scratch("same_as_handle.dat");
  fim::write_fimi_file(small_db(), path);
  serve::DatasetCache cache;
  cache.register_handle("mem", fim::read_fimi_file(path));
  const auto ds = cache.get_dataset("mem").dataset;
  const fim::Support minc = 90;
  const auto lay = cache.get_layout(ds, minc).layout;
  std::optional<miners::Preprocessed> local;
  EXPECT_EQ(&gpapriori::resolve_preprocess(lay.get(), ds->db, minc, local),
            &lay->pre);
  EXPECT_FALSE(local.has_value());

  // An equal-content copy has the same digest but is another object: it
  // gets its own build, identical to the shared one.
  const fim::TransactionDb copy = ds->db;
  ASSERT_EQ(fim::dataset_digest(copy), lay->dataset_digest);
  const auto& from_copy =
      gpapriori::resolve_preprocess(lay.get(), copy, minc, local);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(&from_copy, &*local);
  expect_same_layout(from_copy, lay->pre);

  // Another threshold on the same object builds afresh at that threshold.
  local.reset();
  const auto& other =
      gpapriori::resolve_preprocess(lay.get(), ds->db, minc + 30, local);
  ASSERT_TRUE(local.has_value());
  expect_same_layout(other,
                     miners::preprocess(ds->db, minc + 30,
                                        miners::ItemOrder::kAscendingFreq));

  // The file the handle was read from parses into another object: the
  // cached slot is a miss for it and is replaced by one built from it.
  const auto file = cache.get_dataset(path).dataset;
  ASSERT_EQ(file->digest, ds->digest);
  const auto from_file = cache.get_layout(file, minc);
  EXPECT_FALSE(from_file.hit);
  EXPECT_TRUE(from_file.layout->built_from(file->db));
  EXPECT_FALSE(cache.get_layout(file, minc).layout->built_from(ds->db));
  EXPECT_FALSE(cache.get_layout(ds, minc).hit);
  std::remove(path.c_str());
}

/// How many spans named `name` an exported trace holds (their 'B' events).
std::size_t spans_named(const std::string& json, const std::string& name) {
  const std::string head = "{\"name\": \"" + name + "\", ";
  const std::string phase = "\"ph\": \"";
  std::size_t n = 0;
  for (auto at = json.find(head); at != std::string::npos;
       at = json.find(head, at + 1)) {
    const auto ph = json.find(phase, at);
    if (ph != std::string::npos && json[ph + phase.size()] == 'B') ++n;
  }
  return n;
}

TEST(MiningServiceTest, HedgeCheckpointTakesTheCachedDigest) {
  // A partitioned GPApriori attempt (no CPU rung of its own) arms its
  // hedge checkpoint and adopts the cached layout, so its snapshots carry
  // the digest the cache took at load and the request hashes nothing
  // itself.
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  rec.enable();
  ServiceOptions so;
  so.workers = 1;
  so.hedge_checkpoint_dir = testing::TempDir();
  {
    MiningService service(so);
    service.register_dataset("mem", small_db());
    const auto r = service.run_batch({req("ok", "mem", 0.3, kPartitioned)});
    ASSERT_EQ(r[0].status, RequestStatus::kOk) << r[0].error;
  }
  std::string json = rec.export_chrome_json();
  EXPECT_GT(spans_named(json, "snapshot-write"), 0u);
  EXPECT_EQ(spans_named(json, "dataset-digest"), 0u);

  // Under a sticky device fault the hedge resumes on CPU_TEST, which
  // preprocesses locally and hashes the dataset itself: the snapshot it
  // accepts (span `replay`) carries fim::dataset_digest of the same data.
  rec.clear();
  {
    MiningService service(so);
    service.register_dataset("mem", small_db());
    service.set_fault_plan(gpusim::FaultPlan::parse("launch#1+=timeout"));
    const auto r =
        service.run_batch({req("hedged", "mem", 0.3, kPartitioned)});
    ASSERT_EQ(r[0].status, RequestStatus::kOk) << r[0].error;
    EXPECT_EQ(r[0].hedges, 1u);
  }
  json = rec.export_chrome_json();
  rec.disable();
  rec.clear();
  EXPECT_EQ(spans_named(json, "dataset-digest"), 1u);
  EXPECT_EQ(spans_named(json, "replay"), 1u);
}

TEST(MiningServiceTest, SameBytesRewriteRebuildsTheLayout) {
  // A rewrite with identical bytes and a newer mtime re-parses the file
  // into a new object; the layout built from the old one is a miss.
  const std::string path = scratch("rewrite.dat");
  fim::write_fimi_file(small_db(), path);
  ServiceOptions so;
  so.workers = 1;
  MiningService service(so);
  const auto before = service.run_batch({req("a", path, 0.3, "GPApriori"),
                                         req("b", path, 0.25, "GPApriori"),
                                         req("c", path, 0.3, "GPU Eclat")});
  for (const auto& r : before)
    ASSERT_EQ(r.status, RequestStatus::kOk) << r.id << ": " << r.error;
  EXPECT_TRUE(before[2].layout_cache_hit);

  const auto mtime = std::filesystem::last_write_time(path);
  fim::write_fimi_file(small_db(), path);
  std::filesystem::last_write_time(path, mtime + std::chrono::seconds(10));
  const auto after = service.run_batch({req("d", path, 0.3, "GPApriori")});
  ASSERT_EQ(after[0].status, RequestStatus::kOk) << after[0].error;
  EXPECT_FALSE(after[0].db_cache_hit);
  EXPECT_FALSE(after[0].layout_cache_hit);
  EXPECT_EQ(after[0].itemsets.to_string(), before[0].itemsets.to_string());
  std::remove(path.c_str());
}

// -- Admission control ------------------------------------------------------

TEST(MiningServiceTest, RejectsWhenQueueIsFull) {
  ServiceOptions so;
  so.workers = 1;
  so.max_queue = 1;
  MiningService service(so);
  service.register_dataset("slow", slow_db());
  service.register_dataset("other", small_db());

  // Occupy the worker with a slow request, then race five distinct
  // requests at the single queue slot: whichever claims it runs, the rest
  // must be rejected synchronously with a reason. (Whether the worker has
  // already popped the slow job when each submit lands only shifts WHICH
  // request bounces, never that most of them do.)
  auto f_busy = service.submit(req("busy", "slow", 0.02, "CPU_TEST"));
  std::vector<std::future<MiningResult>> raced;
  for (int i = 0; i < 5; ++i)
    raced.push_back(service.submit(
        req("race" + std::to_string(i), "other", 0.3 + 0.01 * i, "CPU_TEST")));

  std::size_t rejections = 0;
  for (auto& f : raced) {
    const auto r = f.get();
    if (r.status == RequestStatus::kRejected) {
      ++rejections;
      EXPECT_NE(r.error.find("queue full"), std::string::npos) << r.error;
      EXPECT_EQ(serve::exit_code(r.status), 75);
    } else {
      EXPECT_EQ(r.status, RequestStatus::kOk) << r.id << ": " << r.error;
    }
  }
  // Five distinct requests, one queue slot, a busy worker: at least one
  // must bounce (the worker can drain at most a few between submits).
  EXPECT_GE(rejections, 1u);
  EXPECT_EQ(f_busy.get().status, RequestStatus::kOk);
  EXPECT_GE(service.stats().rejected, rejections);
}

// -- Deadline salvage -------------------------------------------------------

TEST(MiningServiceTest, DeadlineTruncatesAndSalvagesCompletedLevels) {
  MiningService service;
  service.register_dataset("slow", slow_db());

  MiningRequest r = req("deadline", "slow", 0.02, "GPApriori");
  r.deadline_ms = 0.01;  // expires before the first level boundary poll
  const auto results = service.run_batch({r});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].status, RequestStatus::kTruncated) << results[0].error;
  EXPECT_EQ(results[0].stop_reason, "deadline");
  EXPECT_GT(results[0].truncated_at_level, 0u);
  EXPECT_EQ(serve::exit_code(results[0].status), 6);

  // Salvage: whatever came back is a prefix-correct subset of a full run.
  gpapriori::GpApriori full;
  miners::MiningParams p;
  p.min_support_ratio = 0.02;
  const auto complete = full.mine(slow_db(), p);
  EXPECT_LT(results[0].itemsets.size(), complete.itemsets.size());
  EXPECT_GE(service.stats().truncated, 1u);
}

TEST(MiningServiceTest, RuleGenerationStopsAtTheDeadline) {
  // About 10^5 frequent itemsets and millions of rules at confidence 0:
  // rule generation alone takes seconds. It polls the request's run once
  // per frequent itemset, so the 40 ms deadline ends it and the request
  // completes truncated, in far less than that.
  ServiceOptions so;
  so.workers = 1;
  MiningService service(so);
  service.register_dataset("deep", testutil::random_db(3000, 30, 0.55, 4));
  MiningRequest r = req("rules", "deep", 0.05, "CPU_TEST");
  r.deadline_ms = 40;
  r.rules_confidence = 0;
  const auto results = service.run_batch({r});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].status, RequestStatus::kTruncated) << results[0].error;
  EXPECT_EQ(results[0].stop_reason, "deadline");
  EXPECT_LT(results[0].exec_ms, 1000.0);
}

// -- In-flight dedup --------------------------------------------------------

TEST(MiningServiceTest, IdenticalInFlightRequestsDedupOntoOneExecution) {
  ServiceOptions so;
  so.workers = 1;
  MiningService service(so);
  service.register_dataset("slow", slow_db());
  service.register_dataset("small", small_db());

  // Occupy the single worker so the twins stay queued while attaching.
  auto f_busy = service.submit(req("busy", "slow", 0.02, "CPU_TEST"));
  auto f_a = service.submit(req("twin-a", "small", 0.3, "GPApriori"));
  auto f_b = service.submit(req("twin-b", "small", 0.3, "GPApriori"));
  auto f_c = service.submit(req("twin-c", "small", 0.3, "GPApriori"));

  const auto a = f_a.get();
  const auto b = f_b.get();
  const auto c = f_c.get();
  EXPECT_EQ(f_busy.get().status, RequestStatus::kOk);

  ASSERT_EQ(a.status, RequestStatus::kOk) << a.error;
  ASSERT_EQ(b.status, RequestStatus::kOk) << b.error;
  ASSERT_EQ(c.status, RequestStatus::kOk) << c.error;
  // The busy worker guarantees twin-a was still queued when b and c
  // arrived, so both attached as followers.
  EXPECT_FALSE(a.deduped);
  EXPECT_TRUE(b.deduped);
  EXPECT_TRUE(c.deduped);
  EXPECT_EQ(a.id, "twin-a");
  EXPECT_EQ(b.id, "twin-b");
  EXPECT_EQ(c.id, "twin-c");
  EXPECT_EQ(a.itemsets.to_string(), b.itemsets.to_string());
  EXPECT_EQ(a.itemsets.to_string(), c.itemsets.to_string());
  EXPECT_EQ(service.stats().deduped, 2u);
  // Followers consumed no execution: one db parse... (handle: hits only)
  // and exactly one layout build for the shared (digest, min_count).
  EXPECT_EQ(service.stats().cache.layout_misses, 1u);
}

// -- Invalid requests -------------------------------------------------------

TEST(MiningServiceTest, MalformedRequestsGetTypedInvalidStatus) {
  MiningService service;
  service.register_dataset("mem", small_db());

  MiningRequest nan_ratio = req("nan", "mem", std::nan(""));
  MiningRequest neg = req("neg", "mem", -0.5);
  MiningRequest over = req("over", "mem", 1.5);
  MiningRequest unknown_algo = req("algo", "mem", 0.3, "No Such Miner");
  MiningRequest no_dataset = req("empty", "", 0.3);
  MiningRequest missing = req("io", scratch("does_not_exist.dat"), 0.3);
  MiningRequest bad_conf = req("conf", "mem", 0.3);
  bad_conf.rules_confidence = 1.5;
  MiningRequest bad_out = req("out", "mem", 0.3);
  bad_out.out_path = scratch("no_such_dir/out.txt");

  const auto results = service.run_batch({nan_ratio, neg, over, unknown_algo,
                                          no_dataset, missing, bad_conf,
                                          bad_out});
  ASSERT_EQ(results.size(), 8u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(results[i].status, RequestStatus::kInvalid) << results[i].id;
    EXPECT_FALSE(results[i].error.empty());
    EXPECT_EQ(serve::exit_code(results[i].status), 64);
  }
  EXPECT_EQ(results[6].status, RequestStatus::kInvalid);
  // A dataset that fails to load and an output file that cannot be opened
  // are I/O failures, not failed mines: neither is hedged, and the missing
  // file is read once.
  for (const std::size_t i : {5u, 7u}) {
    EXPECT_EQ(results[i].status, RequestStatus::kError) << results[i].id;
    EXPECT_EQ(serve::exit_code(results[i].status), 1);
    EXPECT_EQ(results[i].hedges, 0u) << results[i].id;
  }
  EXPECT_NE(results[7].algo, "CPU_TEST");
  EXPECT_EQ(service.stats().hedges, 0u);
  EXPECT_EQ(service.stats().cache.db_misses, 1u);
}

TEST(MiningServiceTest, CancellingAMalformedRequestStillAnswersInvalid) {
  ServiceOptions so;
  so.workers = 1;
  MiningService service(so);
  service.register_dataset("slow", slow_db());
  service.register_dataset("small", small_db());

  // With the only worker busy, a queued request would be cancellable; a
  // malformed one is answered at submit and never queues.
  auto f_busy = service.submit(req("busy", "slow", 0.03, "GPApriori"));
  auto f_bad = service.submit(req("bad", "small", 0.3, "NO_SUCH_ALGO"));
  EXPECT_EQ(f_bad.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(service.cancel("bad"), 0u);
  const auto bad = f_bad.get();
  EXPECT_EQ(bad.status, RequestStatus::kInvalid);
  EXPECT_NE(bad.error.find("NO_SUCH_ALGO"), std::string::npos) << bad.error;
  EXPECT_EQ(f_busy.get().status, RequestStatus::kOk);
}

TEST(MiningServiceTest, MalformedRequestReservesNoAdmissionBudget) {
  ServiceOptions so;
  so.workers = 1;
  so.admission.max_inflight = 1;
  MiningService service(so);
  service.register_dataset("small", small_db());

  // The dataset's shape is known at submit, so a well-formed request would
  // be admitted there; a malformed one must not be.
  for (const MiningRequest& bad :
       {req("algo", "small", 0.3, "NO_SUCH_ALGO"), req("ratio", "small", 1.5),
        req("conf", "small", 0.3)}) {
    MiningRequest r = bad;
    if (r.id == "conf") r.rules_confidence = 2.0;
    EXPECT_EQ(service.submit(r).get().status, RequestStatus::kInvalid)
        << r.id;
  }
  auto st = service.stats();
  EXPECT_EQ(st.admission.admitted, 0u);
  EXPECT_EQ(st.admission.inflight, 0u);
  EXPECT_EQ(st.errors, 3u);

  EXPECT_EQ(service.submit(req("good", "small", 0.3, "CPU_TEST")).get().status,
            RequestStatus::kOk);
  st = service.stats();
  EXPECT_EQ(st.admission.admitted, 1u);
  EXPECT_EQ(st.shed, 0u);
}

// -- Request-file parsing ---------------------------------------------------

/// The requests of a request file, every line of which must parse.
std::vector<MiningRequest> parse_valid(const std::string& path) {
  std::vector<MiningRequest> reqs;
  for (const auto& e : serve::parse_request_file(path)) {
    EXPECT_TRUE(e.valid) << "line " << e.line_no << ": " << e.error;
    reqs.push_back(e.request);
  }
  return reqs;
}

TEST(RequestIoTest, ParsesWellFormedFile) {
  const std::string path = scratch("reqs_good.txt");
  {
    std::ofstream f(path);
    f << "# a comment\n"
         "\n"
         "id=a dataset=/tmp/x.dat support=0.5\n"
         "dataset=\"/tmp/with space.dat\" count=20 max-size=3 rules=0.9\n"
         "id=t dataset=/tmp/x.dat topk=10 deadline-ms=250 out=/tmp/o.txt\n";
  }
  const auto reqs = parse_valid(path);
  ASSERT_EQ(reqs.size(), 3u);
  EXPECT_EQ(reqs[0].id, "a");
  EXPECT_DOUBLE_EQ(reqs[0].min_support_ratio, 0.5);
  EXPECT_EQ(reqs[1].id, "req-4");  // default id carries the line number
  EXPECT_EQ(reqs[1].dataset, "/tmp/with space.dat");
  EXPECT_EQ(reqs[1].min_support_abs, 20u);
  EXPECT_EQ(reqs[1].max_itemset_size, 3u);
  EXPECT_DOUBLE_EQ(reqs[1].rules_confidence, 0.9);
  EXPECT_EQ(reqs[2].top_k, 10u);
  EXPECT_DOUBLE_EQ(reqs[2].deadline_ms, 250.0);
  EXPECT_EQ(reqs[2].out_path, "/tmp/o.txt");
  std::remove(path.c_str());
}

TEST(RequestIoTest, RejectsMalformedLinesWithLineContext) {
  const char* const bad_lines[] = {
      "dataset=x.dat support=0.5x",       // trailing garbage
      "dataset=x.dat support=1.5",        // ratio out of (0, 1]
      "dataset=x.dat support=nan",        // non-finite
      "dataset=x.dat support=-0.5",       // negative
      "dataset=x.dat count=0",            // zero absolute support
      "dataset=x.dat count=-3",           // sign would wrap strtoul
      "dataset=x.dat topk=0",             // zero K
      "dataset=x.dat rules=2 support=.5", // confidence out of [0, 1]
      "dataset=x.dat deadline-ms=0 support=.5",  // deadline must be > 0
      "dataset=x.dat support=0.5 support=0.6",   // duplicate key
      "dataset=x.dat frobnicate=1 support=.5",   // unknown key
      "dataset=x.dat",                    // no threshold at all
      "support=0.5",                      // no dataset
      "dataset=\"x.dat support=0.5",      // unterminated quote
      "dataset x.dat support=0.5",        // token without '='
  };
  for (const char* line : bad_lines) {
    SCOPED_TRACE(line);
    MiningRequest out;
    EXPECT_THROW((void)serve::parse_request_line(line, 7, out),
                 std::invalid_argument);
    try {
      (void)serve::parse_request_line(line, 7, out);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 7"), std::string::npos)
          << e.what();
    }
  }
  MiningRequest out;
  EXPECT_FALSE(serve::parse_request_line("", 1, out));
  EXPECT_FALSE(serve::parse_request_line("  # only a comment", 2, out));
}

TEST(RequestIoTest, JsonLineIsWellFormedAndEscaped) {
  MiningResult r;
  r.id = "with \"quotes\"\tand tab";
  r.status = RequestStatus::kTruncated;
  r.algo = "GPApriori";
  r.truncated_at_level = 3;
  r.stop_reason = "deadline";
  r.transactions = 42;
  r.queue_ms = 1.5;
  const std::string line = serve::to_json_line(r);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"id\":\"with \\\"quotes\\\"\\tand tab\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"status\":\"truncated\""), std::string::npos);
  EXPECT_NE(line.find("\"exit_code\":6"), std::string::npos);
  EXPECT_NE(line.find("\"truncated_at_level\":3"), std::string::npos);
  EXPECT_NE(line.find("\"transactions\":42"), std::string::npos);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
}

// -- Cost-based admission ---------------------------------------------------

TEST(MiningServiceTest, AdmissionShedsRetryablyUnderInflightCap) {
  ServiceOptions so;
  so.workers = 1;
  so.admission.max_inflight = 1;
  MiningService service(so);
  service.register_dataset("slow", slow_db());
  service.register_dataset("small", small_db());

  // The first request holds the single admission slot while it executes;
  // the second is shed synchronously with a retry-after hint.
  auto f_busy = service.submit(req("busy", "slow", 0.03, "GPApriori"));
  auto f_shed = service.submit(req("shed", "small", 0.3, "CPU_TEST"));

  const auto shed = f_shed.get();
  EXPECT_EQ(shed.status, RequestStatus::kRejectedOverload);
  EXPECT_STREQ(serve::to_string(shed.status), "shed");
  EXPECT_EQ(serve::exit_code(shed.status), 75);
  EXPECT_GE(shed.retry_after_ms, 1.0);  // retrying CAN help once busy drains
  EXPECT_NE(shed.error.find("in flight"), std::string::npos) << shed.error;

  EXPECT_EQ(f_busy.get().status, RequestStatus::kOk);
  const auto st = service.stats();
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.admission.shed, 1u);
  EXPECT_GE(st.admission.admitted, 1u);
}

TEST(MiningServiceTest, AdmissionWallCeilingShedsPermanently) {
  ServiceOptions so;
  so.admission.max_request_wall_ms = 1;  // below any device-path estimate
  MiningService service(so);
  service.register_dataset("mem", small_db());

  const auto results = service.run_batch({req("never", "mem", 0.3)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RequestStatus::kRejectedOverload);
  // Permanent shed: no retry-after hint, the reason says why.
  EXPECT_EQ(results[0].retry_after_ms, 0);
  EXPECT_NE(results[0].error.find("ceiling"), std::string::npos)
      << results[0].error;
  EXPECT_EQ(service.stats().shed, 1u);
}

// -- Hedged retries ---------------------------------------------------------

TEST(MiningServiceTest, HedgedRetryRecoversFromPersistentDeviceFault) {
  ServiceOptions so;
  so.workers = 1;
  MiningService service(so);
  service.register_dataset("mem", small_db());
  service.set_fault_plan(gpusim::FaultPlan::parse("launch#1+=timeout"));

  // A driver without a CPU rung: its first attempt must kError.
  const auto results =
      service.run_batch({req("hedged", "mem", 0.3, kPartitioned)});
  ASSERT_EQ(results.size(), 1u);
  const auto& r = results[0];
  // The device attempt failed, the service re-enqueued it onto CPU_TEST
  // (which never touches the device), and the caller sees one kOk result.
  ASSERT_EQ(r.status, RequestStatus::kOk) << r.error;
  EXPECT_EQ(r.algo, "CPU_TEST");
  EXPECT_EQ(r.hedges, 1u);
  EXPECT_NE(r.planner_reason.find("hedged retry"), std::string::npos)
      << r.planner_reason;

  // Bit-identical to a fault-free serial run.
  gpapriori::GpApriori clean;
  miners::MiningParams p;
  p.min_support_ratio = 0.3;
  EXPECT_EQ(r.itemsets.to_string(),
            clean.mine(small_db(), p).itemsets.to_string());

  const auto st = service.stats();
  EXPECT_EQ(st.hedges, 1u);
  EXPECT_EQ(st.errors, 0u);  // the kError attempt was hedged, not published
}

TEST(MiningServiceTest, StoreLargerThanTheArenaIsAnsweredByGpApriori) {
  // accidents at the benchmark's scale (34,018 transactions): at support
  // 0.6 its frequent-1 store outgrows a 64 KiB arena while every level's
  // candidate tables fit. Unpinned, it plans to GPApriori, whose ladder
  // cuts the store into partitions on the out-of-memory error; with
  // hedging off nothing else could answer it.
  const auto db =
      datagen::profile(datagen::DatasetId::kAccidents).generate(0.1);
  ASSERT_EQ(db.num_transactions(), 34'018u);
  ServiceOptions so;
  so.workers = 1;
  so.max_hedges_per_request = 0;
  so.base_config.arena_bytes = 64 << 10;
  MiningService service(so);
  service.register_dataset("accidents", db);
  const auto results =
      service.run_batch({req("planned", "accidents", 0.6),
                         req("cpu", "accidents", 0.6, "CPU_TEST")});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(results[0].status, RequestStatus::kOk) << results[0].error;
  EXPECT_EQ(results[0].algo, "GPApriori");
  EXPECT_EQ(results[0].hedges, 0u);
  ASSERT_EQ(results[1].status, RequestStatus::kOk) << results[1].error;
  EXPECT_GT(results[0].itemsets.size(), 0u);
  EXPECT_EQ(results[0].itemsets.to_string(), results[1].itemsets.to_string());
}

TEST(MiningServiceTest, UnhedgeableAttemptWritesNoCheckpoint) {
  // The hedge checkpoint is armed by the same rule that hedges: CPU_TEST
  // and GPApriori (planned or pinned; its ladder ends on CPU_TEST) are
  // never hedged, so they write no per-level snapshot, while an attempt
  // that could still be hedged does.
  auto& metrics = obs::MetricsRegistry::global();
  metrics.reset();
  metrics.enable();
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  rec.enable();
  ServiceOptions so;
  so.workers = 1;
  so.hedge_checkpoint_dir = testing::TempDir();
  MiningService service(so);
  service.register_dataset("mem", small_db());
  for (const MiningRequest& r :
       {req("cpu", "mem", 0.3, "CPU_TEST"), req("planned", "mem", 0.3),
        req("gpu", "mem", 0.3, "GPApriori")}) {
    const auto out = service.run_batch({r});
    ASSERT_EQ(out[0].status, RequestStatus::kOk) << r.id << ": "
                                                 << out[0].error;
    EXPECT_EQ(out[0].algo, r.id == "cpu" ? "CPU_TEST" : "GPApriori");
    EXPECT_EQ(metrics.value(obs::Counter::kCheckpointsWritten), 0u) << r.id;
  }
  EXPECT_EQ(spans_named(rec.export_chrome_json(), "snapshot-write"), 0u);
  const auto part = service.run_batch({req("part", "mem", 0.3, kPartitioned)});
  ASSERT_EQ(part[0].status, RequestStatus::kOk) << part[0].error;
  EXPECT_GT(metrics.value(obs::Counter::kCheckpointsWritten), 0u);
  EXPECT_GT(spans_named(rec.export_chrome_json(), "snapshot-write"), 0u);
  rec.disable();
  rec.clear();
  metrics.disable();
  metrics.reset();
}

TEST(MiningServiceTest, MaxHedgesZeroKeepsErrorsTerminal) {
  ServiceOptions so;
  so.workers = 1;
  so.max_hedges_per_request = 0;  // hedging off
  MiningService service(so);
  service.register_dataset("mem", small_db());
  service.set_fault_plan(gpusim::FaultPlan::parse("launch#1+=timeout"));

  const auto results =
      service.run_batch({req("nohedge", "mem", 0.3, kPartitioned)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RequestStatus::kError);
  EXPECT_EQ(results[0].hedges, 0u);
  EXPECT_EQ(service.stats().hedges, 0u);
  EXPECT_EQ(service.stats().errors, 1u);
}

TEST(MiningServiceTest, StickyFaultHedgesOnlyDriversWithoutACpuRung) {
  auto& metrics = obs::MetricsRegistry::global();
  metrics.reset();
  metrics.enable();
  ServiceOptions so;
  so.workers = 1;
  MiningService service(so);
  service.register_dataset("mem", small_db());
  service.set_fault_plan(gpusim::FaultPlan::parse("launch#1+=timeout"));

  // Distinct thresholds: no request dedups onto another's execution.
  // Unpinned requests plan onto GPApriori, whose ladder answers the fault
  // on CPU_TEST with no hedge and no snapshot; each pinned partitioned
  // request fails on the device and is recovered by one hedge onto
  // CPU_TEST.
  gpapriori::GpApriori clean;
  for (const std::string algo : {"", kPartitioned}) {
    std::vector<MiningRequest> batch;
    for (int i = 0; i < 10; ++i)
      batch.push_back(req("r" + std::to_string(i), "mem", 0.10 + 0.02 * i,
                          algo));
    const auto results = service.run_batch(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      ASSERT_EQ(r.status, RequestStatus::kOk) << r.id << ": " << r.error;
      EXPECT_EQ(r.hedges, algo.empty() ? 0u : 1u) << r.id;
      EXPECT_EQ(r.algo, algo.empty() ? "GPApriori" : "CPU_TEST") << r.id;
      miners::MiningParams p;
      p.min_support_ratio = batch[i].min_support_ratio;
      EXPECT_EQ(r.itemsets.to_string(),
                clean.mine(small_db(), p).itemsets.to_string())
          << r.id;
    }
    if (algo.empty()) {
      EXPECT_EQ(metrics.value(obs::Counter::kCheckpointsWritten), 0u);
    }
  }
  metrics.disable();
  metrics.reset();
  const auto st = service.stats();
  EXPECT_EQ(st.hedges, 10u);
  EXPECT_EQ(st.errors, 0u);
}

TEST(MiningServiceTest, HedgedRequestIsPickedUpOnce) {
  // The hedge is the second attempt of the same execution: the request
  // waits in the queue once (behind the busy request), is picked up once,
  // and its answer's queue_ms is that one wait.
  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  rec.enable();
  ServiceOptions so;
  so.workers = 1;
  MiningResult busy, hedged;
  {
    MiningService service(so);
    service.register_dataset("slow", slow_db());
    service.register_dataset("mem", small_db());
    service.set_fault_plan(gpusim::FaultPlan::parse("launch#1+=timeout"));
    auto f_busy = service.submit(req("busy", "slow", 0.01, "CPU_TEST"));
    // The device attempt of a driver without a CPU rung fails.
    auto f_hedged =
        service.submit(req("hedged-once", "mem", 0.3, kPartitioned));
    busy = f_busy.get();
    hedged = f_hedged.get();
  }
  const std::string json = rec.export_chrome_json();
  rec.disable();
  rec.clear();
  ASSERT_EQ(busy.status, RequestStatus::kOk) << busy.error;
  ASSERT_EQ(hedged.status, RequestStatus::kOk) << hedged.error;
  EXPECT_EQ(hedged.hedges, 1u);
  EXPECT_EQ(hedged.algo, "CPU_TEST");
  EXPECT_GE(hedged.queue_ms, busy.exec_ms / 2)
      << "busy request executed for " << busy.exec_ms << " ms";
  EXPECT_EQ(spans_named(json, "hedged-once"), 1u);
}

// -- Cancellation -----------------------------------------------------------

TEST(MiningServiceTest, CancelHitsQueuedAndRunningRequests) {
  ServiceOptions so;
  so.workers = 1;
  MiningService service(so);
  service.register_dataset("slow", slow_db());
  service.register_dataset("small", small_db());

  // At support 0.005 victim-run mines for ~200 ms in Release, far past the
  // 30 ms sleep, so victim-wait is still queued when it is cancelled; the
  // cancel cuts victim-run short at its next level boundary.
  auto f_run = service.submit(req("victim-run", "slow", 0.005, "GPApriori"));
  auto f_wait = service.submit(req("victim-wait", "small", 0.3, "CPU_TEST"));
  // Let the single worker pick up victim-run so it is genuinely active.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // The queued request is marked and completes without ever executing.
  EXPECT_EQ(service.cancel("victim-wait"), 1u);
  const std::size_t hit_running = service.cancel("victim-run");
  EXPECT_EQ(service.cancel("no-such-id"), 0u);

  const auto waited = f_wait.get();
  EXPECT_EQ(waited.status, RequestStatus::kTruncated);
  EXPECT_EQ(waited.stop_reason, "cancelled while queued");
  EXPECT_EQ(waited.itemsets.size(), 0u);

  const auto ran = f_run.get();
  if (hit_running == 1) {
    // Cooperative cancel: completed levels are salvaged, status truncated.
    EXPECT_EQ(ran.status, RequestStatus::kTruncated) << ran.error;
  } else {
    // The run beat the cancel to the finish line; that is a pass too.
    EXPECT_EQ(ran.status, RequestStatus::kOk) << ran.error;
  }
  EXPECT_GE(service.stats().cancelled, 1u + hit_running);
}

/// A FIMI file that takes long to parse and mines in a blink: items 0-3
/// are in every transaction, and the other 12 items of each are spread
/// over 5000 ids, none of them frequent at support 0.5.
std::string write_slow_parse_file(const std::string& name) {
  const std::string path = scratch(name);
  std::ofstream f(path);
  std::array<std::uint32_t, 12> rest{};
  for (std::uint32_t t = 0; t < 200000; ++t) {
    for (std::uint32_t j = 0; j < rest.size(); ++j)
      rest[j] = 4 + (t * 7 + j * 401) % 5000;
    std::sort(rest.begin(), rest.end());
    f << "0 1 2 3";
    for (const std::uint32_t item : rest) f << ' ' << item;
    f << '\n';
  }
  return path;
}

/// Polls `done` until it holds, for at most a minute.
template <typename F>
bool eventually(F done) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::minutes(1);
  while (!done()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

/// Whether the service's worker has started loading a dataset file: the
/// cache counts the miss before it parses.
bool parse_started(const MiningService& service) {
  return service.stats().cache.db_misses != 0;
}

TEST(MiningServiceTest, CancelReachesARequestLoadingItsDataset) {
  const std::string path = write_slow_parse_file("cancel_loading.dat");
  ServiceOptions so;
  so.workers = 1;
  MiningService service(so);
  auto f = service.submit(req("loading", path, 0.5, "CPU_TEST"));
  ASSERT_TRUE(eventually([&] { return parse_started(service); }));
  EXPECT_EQ(service.cancel("loading"), 1u);
  const auto r = f.get();
  EXPECT_EQ(r.status, RequestStatus::kTruncated) << r.error;
  EXPECT_EQ(r.stop_reason, "cancelled");
  EXPECT_EQ(r.itemsets.size(), 0u);  // its mine never started
  EXPECT_EQ(service.stats().cancelled, 1u);
  std::remove(path.c_str());
}

TEST(MiningServiceTest, CancelledRequestStartsNoHedge) {
  // Its device attempt would fail and be hedged onto CPU_TEST; cancelled
  // before the mine, it starts neither the attempt nor the hedge.
  const std::string path = write_slow_parse_file("cancel_nohedge.dat");
  ServiceOptions so;
  so.workers = 1;
  MiningService service(so);
  service.set_fault_plan(gpusim::FaultPlan::parse("launch#1+=timeout"));
  auto f = service.submit(req("doomed", path, 0.5, kPartitioned));
  ASSERT_TRUE(eventually([&] { return parse_started(service); }));
  EXPECT_EQ(service.cancel("doomed"), 1u);
  const auto r = f.get();
  EXPECT_EQ(r.status, RequestStatus::kTruncated) << r.error;
  EXPECT_EQ(r.stop_reason, "cancelled");
  EXPECT_EQ(r.hedges, 0u);
  EXPECT_EQ(service.stats().hedges, 0u);
  EXPECT_EQ(service.stats().errors, 0u);
  std::remove(path.c_str());
}

TEST(MiningServiceTest, CancelReachesARunningTopK) {
  // Top-K registers no RunControl: the cancel cannot stop it, but the
  // request still completes kTruncated.
  ServiceOptions so;
  so.workers = 1;
  MiningService service(so);
  service.register_dataset("dense", testutil::random_db(6000, 80, 0.4, 5));
  MiningRequest topk = req("topk", "dense", 0);
  topk.top_k = 100000;
  auto f = service.submit(topk);
  // The handle's cache hit comes right before the mine starts.
  ASSERT_TRUE(
      eventually([&] { return service.stats().cache.db_hits != 0; }));
  EXPECT_EQ(service.cancel("topk"), 1u);
  const auto r = f.get();
  EXPECT_EQ(r.status, RequestStatus::kTruncated) << r.error;
  EXPECT_EQ(r.stop_reason, "cancelled");
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(MiningServiceTest, CancelDetachesAFollowerAndItsLeaderKeepsRunning) {
  ServiceOptions so;
  so.workers = 1;
  MiningService service(so);
  service.register_dataset("slow", slow_db());
  service.register_dataset("small", small_db());

  // Occupy the single worker so the leader is still queued when its twin
  // attaches as a follower.
  auto f_busy = service.submit(req("busy", "slow", 0.02, "CPU_TEST"));
  auto f_lead = service.submit(req("lead", "small", 0.3, "GPApriori"));
  auto f_twin = service.submit(req("twin", "small", 0.3, "GPApriori"));
  ASSERT_EQ(service.stats().deduped, 1u);

  EXPECT_EQ(service.cancel("twin"), 1u);
  ASSERT_EQ(f_twin.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);  // answered by the cancel itself
  const auto twin = f_twin.get();
  EXPECT_EQ(twin.id, "twin");
  EXPECT_EQ(twin.status, RequestStatus::kTruncated);
  EXPECT_EQ(twin.stop_reason, "cancelled");
  EXPECT_TRUE(twin.deduped);
  EXPECT_EQ(twin.itemsets.size(), 0u);
  EXPECT_EQ(service.cancel("twin"), 0u);  // answered: nothing left to hit

  const auto lead = f_lead.get();
  EXPECT_EQ(lead.status, RequestStatus::kOk) << lead.error;
  EXPECT_GT(lead.itemsets.size(), 0u);
  EXPECT_EQ(f_busy.get().status, RequestStatus::kOk);
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(MiningServiceTest, CancelledRequestTakesNoNewFollowers) {
  ServiceOptions so;
  so.workers = 1;
  MiningService service(so);
  service.register_dataset("slow", slow_db());
  service.register_dataset("small", small_db());

  auto f_busy = service.submit(req("busy", "slow", 0.02, "CPU_TEST"));
  auto f_gone = service.submit(req("gone", "small", 0.3, "GPApriori"));
  EXPECT_EQ(service.cancel("gone"), 1u);
  // An identical request arriving after the cancel must not inherit it.
  auto f_fresh = service.submit(req("fresh", "small", 0.3, "GPApriori"));

  const auto gone = f_gone.get();
  EXPECT_EQ(gone.status, RequestStatus::kTruncated);
  const auto fresh = f_fresh.get();
  EXPECT_EQ(fresh.status, RequestStatus::kOk) << fresh.error;
  EXPECT_FALSE(fresh.deduped);
  EXPECT_GT(fresh.itemsets.size(), 0u);
  EXPECT_EQ(f_busy.get().status, RequestStatus::kOk);
}

// -- Shutdown drain ---------------------------------------------------------

TEST(MiningServiceTest, ShutdownCompletesExpiredQueuedRequestsImmediately) {
  ServiceOptions so;
  so.workers = 1;
  MiningService service(so);
  service.register_dataset("slow", slow_db());
  service.register_dataset("small", small_db());

  // Occupy the worker, then queue a request whose 1 ms deadline is long
  // spent by the time the drain reaches it.
  auto f_busy = service.submit(req("busy", "slow", 0.03, "GPApriori"));
  MiningRequest late = req("late", "small", 0.3, "CPU_TEST");
  late.deadline_ms = 1;
  auto f_late = service.submit(late);

  service.shutdown();

  EXPECT_EQ(f_busy.get().status, RequestStatus::kOk);
  const auto r = f_late.get();
  EXPECT_EQ(r.status, RequestStatus::kTruncated);
  EXPECT_EQ(r.stop_reason, "deadline expired while queued");
  EXPECT_EQ(r.itemsets.size(), 0u);  // never executed
  EXPECT_EQ(serve::exit_code(r.status), 6);
  EXPECT_EQ(service.stats().expired_in_queue, 1u);
}

// -- Cache eviction vs build coalescing -------------------------------------

TEST(DatasetCacheTest, EvictionRacingCoalescedBuildsStaysSafe) {
  // A 1-byte budget evicts every entry the moment it lands, so concurrent
  // getters constantly race "join the in-flight build" against "the entry
  // I joined was already evicted". Followers must re-admit cleanly: every
  // caller gets a live dataset/layout (shared_ptr keeps evicted entries
  // alive), digests agree, and tsan sees no use-after-free.
  serve::DatasetCache cache(1);
  const std::string path = scratch("evict_race.dat");
  fim::write_fimi_file(small_db(), path);

  const auto ref = cache.get_dataset(path);
  const std::uint64_t want_digest = ref.dataset->digest;

  std::vector<std::thread> threads;
  std::vector<int> failures(8, 0);
  for (std::size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        const auto ds = cache.get_dataset(path);
        if (!ds.dataset || ds.dataset->digest != want_digest) {
          ++failures[t];
          continue;
        }
        const auto lay = cache.get_layout(ds.dataset, 90);
        if (!lay.layout) ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < 8; ++t)
    EXPECT_EQ(failures[t], 0) << "thread " << t;

  const auto st = cache.stats();
  EXPECT_GE(st.evictions, st.db_misses + st.layout_misses);
  EXPECT_EQ(st.bytes_in_cache, 0u);
  std::remove(path.c_str());
}

// -- Request-file robustness ------------------------------------------------

TEST(RequestIoTest, CrlfAndBlankLinesParseCleanly) {
  // Files written on Windows arrive with CRLF endings; the '\r' must not
  // contaminate the final value of a line or turn blank lines into errors.
  const std::string path = scratch("reqs_crlf.txt");
  {
    std::ofstream f(path, std::ios::binary);
    f << "id=a dataset=x.dat support=0.5\r\n"
         "\r\n"
         "# comment with trailing return\r\n"
         "id=b dataset=\"x y.dat\" count=5\r\n";
  }
  const auto reqs = parse_valid(path);
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].dataset, "x.dat");  // no trailing '\r'
  EXPECT_DOUBLE_EQ(reqs[0].min_support_ratio, 0.5);
  EXPECT_EQ(reqs[1].dataset, "x y.dat");
  EXPECT_EQ(reqs[1].min_support_abs, 5u);
  std::remove(path.c_str());

  MiningRequest out;
  EXPECT_FALSE(serve::parse_request_line("\r", 1, out));
  EXPECT_FALSE(serve::parse_request_line("  \t \r", 2, out));
  EXPECT_TRUE(serve::parse_request_line("dataset=x.dat support=.5\r", 3, out));
  EXPECT_EQ(out.dataset, "x.dat");
  EXPECT_DOUBLE_EQ(out.min_support_ratio, 0.5);
}

TEST(RequestIoTest, LenientParseIsolatesBadLinesWithTheOffendingKey) {
  const std::string path = scratch("reqs_lenient.txt");
  {
    std::ofstream f(path);
    f << "id=a dataset=x.dat support=0.5\n"
         "dataset=x.dat frobnicate=1 support=.5\n"
         "# comment\n"
         "\n"
         "id=b dataset=y.dat count=5\n";
  }
  const auto entries = serve::parse_request_file(path);
  ASSERT_EQ(entries.size(), 3u);  // comments/blanks produce no entry

  EXPECT_TRUE(entries[0].valid);
  EXPECT_EQ(entries[0].request.id, "a");
  EXPECT_EQ(entries[0].line_no, 1);

  EXPECT_FALSE(entries[1].valid);
  EXPECT_EQ(entries[1].line_no, 2);
  // The error names the unknown key and the line it sits on, and the
  // entry still carries a correlation id for the kInvalid answer.
  EXPECT_NE(entries[1].error.find("unknown key 'frobnicate'"),
            std::string::npos)
      << entries[1].error;
  EXPECT_NE(entries[1].error.find("line 2"), std::string::npos);
  EXPECT_EQ(entries[1].request.id, "req-2");

  EXPECT_TRUE(entries[2].valid);
  EXPECT_EQ(entries[2].request.id, "b");
  EXPECT_EQ(entries[2].line_no, 5);
  std::remove(path.c_str());
}

TEST(RequestIoTest, ServiceStatsJsonExportsCountersAndAdmission) {
  serve::ServiceStats s;
  s.submitted = 7;
  s.completed = 5;
  s.shed = 2;
  s.hedges = 1;
  s.queue_wait.record(0.5);   // bucket 0 (< 1 ms)
  s.queue_wait.record(50.0);  // bucket 2 (< 100 ms)
  s.cache.db_hits = 4;
  s.admission.admitted = 5;
  s.admission.shed = 2;

  const std::string j = serve::to_json(s);
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_EQ(j.find('\n'), std::string::npos);
  EXPECT_NE(j.find("\"submitted\":7"), std::string::npos) << j;
  EXPECT_NE(j.find("\"shed\":2"), std::string::npos);
  EXPECT_NE(j.find("\"hedges\":1"), std::string::npos);
  EXPECT_NE(j.find("\"queue_wait_ms_buckets\":[1,0,1,0,0]"),
            std::string::npos)
      << j;
  EXPECT_NE(j.find("\"db_cache_hits\":4"), std::string::npos);
  // Admission is the only nested object: no per-tier state is exported.
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'), 2) << j;
  EXPECT_NE(j.find("\"admission\":{\"admitted\":5,\"shed\":2"),
            std::string::npos)
      << j;
}

// -- Planner ----------------------------------------------------------------

TEST(PlannerTest, OversizedShapePlansToGpApriori) {
  // Memory is not a planner route: a shape whose level-1 store would be
  // gigabytes plans to GPApriori, whose ladder cuts the store into
  // transaction partitions on the device's real out-of-memory error.
  fim::DatasetStats s;
  s.num_transactions = 4'000'000;
  s.distinct_items = 50'000;
  s.density = 0.2;
  const auto plan = serve::plan_driver(s, 100);
  EXPECT_EQ(plan.algo, "GPApriori");
  EXPECT_TRUE(plan.tiled);
  EXPECT_FALSE(plan.reason.empty());
}

TEST(PlannerTest, PicksEclatForSparseWideData) {
  fim::DatasetStats s;
  s.num_transactions = 10'000;
  s.distinct_items = 1'000;
  s.density = 0.01;
  const auto plan = serve::plan_driver(s, 50);
  EXPECT_EQ(plan.algo, "GPU Eclat");
}

TEST(PlannerTest, DisablesTilingNearTheSupportCeiling) {
  fim::DatasetStats s;
  s.num_transactions = 1'000;
  s.distinct_items = 60;
  s.density = 0.5;
  s.top_item_frequency = 0.98;
  const auto plan = serve::plan_driver(s, 975);
  EXPECT_EQ(plan.algo, "GPApriori");
  EXPECT_FALSE(plan.tiled);
}

TEST(PlannerTest, DefaultsToTiledGpApriori) {
  fim::DatasetStats s;
  s.num_transactions = 100'000;
  s.distinct_items = 120;
  s.density = 0.3;
  s.top_item_frequency = 0.6;
  const auto plan = serve::plan_driver(s, 5'000);
  EXPECT_EQ(plan.algo, "GPApriori");
  EXPECT_TRUE(plan.tiled);
}

TEST(PlannerTest, PlannedBatchStillMatchesPinnedResults) {
  // End to end: an unpinned request routes through the planner and still
  // produces the same itemsets as a pinned GPApriori run (the planner only
  // trades wall time, never output).
  MiningService service;
  service.register_dataset("mem", small_db());
  auto results = service.run_batch(
      {req("planned", "mem", 0.3), req("pinned", "mem", 0.3, "GPApriori")});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(results[0].status, RequestStatus::kOk) << results[0].error;
  ASSERT_EQ(results[1].status, RequestStatus::kOk) << results[1].error;
  EXPECT_FALSE(results[0].planner_reason.empty());
  EXPECT_TRUE(results[1].planner_reason.empty());
  EXPECT_EQ(results[0].itemsets.to_string(), results[1].itemsets.to_string());
}

}  // namespace
