#pragma once
// MiningService (DESIGN.md §14): a concurrent front end over the miners.
//
// Requests — (dataset path or registered handle, threshold, optional
// driver pin / top-K / rules / deadline) — are admitted under a bounded
// queue, executed on a small pool of request workers, and answered with a
// typed MiningResult. Three sharing layers keep a batch of requests over
// the same data from repeating work:
//
//   * DatasetCache — one parse + one preprocessed layout per
//     (dataset digest, min_count), LRU-bounded (dataset_cache.hpp);
//   * in-flight dedup — a request identical to one already queued or
//     running attaches to it as a follower and receives a copy of its
//     result instead of a queue slot;
//   * planner — unpinned requests pick a driver from DatasetStats
//     (planner.hpp), so a mixed batch routes each dataset to the driver
//     that fits its shape.
//
// Concurrency model: request workers are the service's own threads — the
// process-wide gpusim::HostPool cannot nest its run() and is left to the
// drivers' inner phases. With the default threads_per_request = 1 those
// inner phases short-circuit (n <= 1 never touches the pool), so requests
// genuinely overlap; raising threads_per_request trades request-level for
// phase-level parallelism (the pool serializes phase jobs across
// requests). Every mine() call is otherwise isolated per request — own
// Device, own RunControl — and drivers treat shared layouts as read-only,
// so concurrent and serial execution of the same batch are byte-identical.

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "fim/transaction_db.hpp"
#include "serve/cost_estimator.hpp"
#include "serve/dataset_cache.hpp"

namespace serve {

/// Per-request terminal status. Mirrors the CLI's process exit codes where
/// a meaning exists there; kRejected and kRejectedOverload both use 75
/// (sysexits EX_TEMPFAIL: retry later) which no other exit path produces.
enum class RequestStatus : std::uint8_t {
  kOk = 0,         ///< completed, full result
  kTruncated,      ///< deadline/cancel salvage: completed levels only
  kRejected,       ///< queue full or service shutting down
  kRejectedOverload,  ///< shed by cost-based admission (retry_after_ms set)
  kInvalid,        ///< malformed request (bad threshold, unknown algo, ...)
  kError,          ///< execution failed (I/O, device fault past the ladder)
};

[[nodiscard]] const char* to_string(RequestStatus s);
/// Process-exit-style code per request: 0 ok, 6 truncated, 75 rejected/
/// shed, 64 invalid, 1 error.
[[nodiscard]] int exit_code(RequestStatus s);

struct MiningRequest {
  std::string id;       ///< caller's correlation id (also the trace span name)
  std::string dataset;  ///< FIMI file path, or a register_dataset handle
  /// Miner registry name (gpapriori_cli list-algos). Empty = let the
  /// planner choose from the dataset's shape.
  std::string algo;
  double min_support_ratio = 0.0;
  fim::Support min_support_abs = 0;
  std::size_t max_itemset_size = 0;
  /// When > 0, run native top-K mining instead of threshold mining (the
  /// threshold fields are then ignored).
  std::size_t top_k = 0;
  /// When >= 0, also generate association rules at this confidence.
  double rules_confidence = -1;
  /// Wall-clock budget for each mining attempt of this request and the
  /// rules after it (queue wait excluded; a hedge starts a fresh one);
  /// 0 = ServiceOptions::default_deadline_ms.
  double deadline_ms = 0;
  /// When non-empty, the itemsets are also written to this file.
  std::string out_path;
};

struct MiningResult {
  std::string id;
  RequestStatus status = RequestStatus::kError;
  std::string error;           ///< non-empty for kInvalid/kError/kRejected
  std::string algo;            ///< driver actually used
  std::string planner_reason;  ///< set when the planner chose the driver
  fim::ItemsetCollection itemsets;
  std::size_t num_rules = 0;
  std::size_t truncated_at_level = 0;  ///< kTruncated: level being counted
  std::string stop_reason;             ///< kTruncated: deadline/watchdog/...
  double queue_ms = 0;   ///< admission -> worker pickup
  double exec_ms = 0;    ///< worker pickup -> result
  double host_ms = 0;    ///< miner-reported host time
  double device_ms = 0;  ///< miner-reported simulated device time
  bool db_cache_hit = false;
  bool layout_cache_hit = false;
  bool deduped = false;  ///< answered by attaching to an identical request
  std::size_t transactions = 0;
  /// kRejectedOverload: predicted ms until enough admitted work drains
  /// for a retry to stand a chance. 0 = retrying will never help.
  double retry_after_ms = 0;
  /// 1 when the request's mine failed and was retried on CPU_TEST, else 0
  /// (the status, algo and itemsets are the retry's).
  std::uint32_t hedges = 0;
};

struct ServiceOptions {
  /// Request worker threads. 0 = auto (half the hardware threads, in
  /// [1, 8]).
  std::uint32_t workers = 2;
  /// Queued (not yet running) requests beyond which submit() rejects.
  std::size_t max_queue = 64;
  /// DatasetCache byte budget.
  std::size_t cache_bytes = 256ull << 20;
  /// Config::host_threads for each request's inner phases. The default 1
  /// keeps inner phases off the shared HostPool so requests overlap.
  std::uint32_t threads_per_request = 1;
  /// Deadline applied to requests that do not carry one. 0 = none.
  double default_deadline_ms = 0;
  /// Template Config for every request (device model, arena, tiling...).
  /// Per-request fields (run_control, shared_layout, host_threads) are
  /// overwritten per execution.
  gpapriori::Config base_config;

  /// Cost-based admission control (cost_estimator.hpp). Requests whose
  /// predicted footprint does not fit the in-flight budgets are shed with
  /// kRejectedOverload + retry-after instead of occupying a queue slot.
  AdmissionOptions admission;

  /// Service-level hedging: a mine that fails (a device fault past the
  /// driver's retries) is retried on CPU_TEST — which never touches the
  /// device — in the same execution, resuming from the per-level
  /// checkpoint the failed attempt left behind, so the salvaged prefix is
  /// not recomputed. Hedges allowed per request: 0 turns hedging off, and
  /// values above 1 act as 1. CPU_TEST and GPApriori, whose ladder already
  /// ends on CPU_TEST, are never hedged and write no checkpoint.
  std::uint32_t max_hedges_per_request = 1;
  /// Run-wide hedge budget: total retries across the service's life.
  /// Prevents a hostile workload from doubling itself. 0 = unlimited.
  std::uint64_t hedge_budget = 64;
  /// Directory for per-request hedge checkpoints; empty = the system
  /// temp directory. Each file is removed when its execution ends.
  std::string hedge_checkpoint_dir;
};

/// Queue-wait distribution in milliseconds; bucket upper bounds
/// 1 / 10 / 100 / 1000 / inf.
struct QueueWaitHistogram {
  std::array<std::uint64_t, 5> buckets{};
  void record(double ms) {
    const std::size_t i = ms < 1 ? 0 : ms < 10 ? 1 : ms < 100 ? 2
                          : ms < 1000 ? 3 : 4;
    ++buckets[i];
  }
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< terminal results incl. errors, excl. followers
  std::uint64_t rejected = 0;   ///< queue full / shutting down
  std::uint64_t shed = 0;       ///< kRejectedOverload from admission control
  std::uint64_t deduped = 0;    ///< followers attached to an in-flight twin
  std::uint64_t truncated = 0;
  std::uint64_t errors = 0;     ///< kInvalid + kError
  std::uint64_t hedges = 0;     ///< failed mines retried on CPU_TEST
  std::uint64_t cancelled = 0;  ///< requests hit by MiningService::cancel
  std::uint64_t expired_in_queue = 0;  ///< drained with deadline already spent
  QueueWaitHistogram queue_wait;
  CacheStats cache;
  AdmissionController::Stats admission;
};

class MiningService {
 public:
  explicit MiningService(ServiceOptions opts = {});
  ~MiningService();  ///< drains the queue (shutdown())
  MiningService(const MiningService&) = delete;
  MiningService& operator=(const MiningService&) = delete;

  /// Pins an in-memory dataset under `name` for requests to address.
  void register_dataset(const std::string& name, fim::TransactionDb db);

  /// Admits one request. The future is always eventually satisfied with a
  /// MiningResult (rejection and validation failures are results, not
  /// exceptions). A malformed request (no dataset, a bad threshold or rules
  /// confidence, an unknown algorithm) is answered kInvalid at once and
  /// reserves nothing. Thread-safe.
  std::future<MiningResult> submit(MiningRequest req);

  /// Submits every request, waits for all, returns results in input order.
  std::vector<MiningResult> run_batch(std::vector<MiningRequest> requests);

  /// Cancels every request with this correlation id that is not answered
  /// yet, wherever it is between submit and its answer: queued, loading or
  /// planning, mining or being hedged, or attached as a follower.
  /// Every hit completes kTruncated. A queued one completes without
  /// executing ("cancelled while queued"); one that has not started its
  /// mine starts none, and no hedge ("cancelled"); a running threshold
  /// mine gets its RunControl tripped (cooperative — completed levels are
  /// salvaged), and a running top-K finishes but is answered kTruncated.
  /// A follower is detached and answered at once; its leader keeps
  /// running for the others. Returns how many requests were hit.
  std::size_t cancel(const std::string& id);

  /// Replaces the fault plan injected into every subsequent request's
  /// device (a service-wide storm for chaos drills; a default-constructed
  /// plan heals it). In-flight requests keep their current plan.
  void set_fault_plan(gpusim::FaultPlan plan);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] DatasetCache& cache() { return cache_; }
  [[nodiscard]] const ServiceOptions& options() const { return opts_; }

  /// Stops accepting work, finishes queued requests, joins the workers.
  /// Queued requests whose deadline already elapsed while waiting are
  /// completed as kTruncated immediately instead of executing after their
  /// budget is gone. Idempotent; run by the destructor.
  void shutdown();

 private:
  struct Job {
    MiningRequest request;
    std::promise<MiningResult> promise;
    /// Identical requests that attached while this one was in flight;
    /// each gets a copy of the result under its own id, deduped = true.
    std::vector<std::pair<std::string, std::promise<MiningResult>>> followers;
    std::chrono::steady_clock::time_point enqueued_at;
    std::uint64_t seq = 0;
    /// Admission accounting: the estimate whose tokens this job holds.
    CostEstimate admitted_cost;
    bool cost_reserved = false;
    bool cancelled = false;  ///< guarded by m_
    /// The running mine's controller, for cancel() to trip; null outside
    /// a threshold mine. Guarded by m_.
    gpapriori::RunControl* run = nullptr;
  };

  void worker_loop();
  /// Whether a failed mine on `algo` may be retried on CPU_TEST: the one
  /// rule both for the retry and for arming the checkpoint it resumes from.
  /// Only drivers without a CPU rung of their own are.
  [[nodiscard]] bool hedgeable(const std::string& algo) const;
  /// Loads, admits and plans the request once, then mines it; a failed
  /// mine is retried once on CPU_TEST (the hedge) before rules and output.
  MiningResult execute(Job& job);
  /// Terminal delivery: releases admission tokens, retires the dedup and
  /// id entries, satisfies followers and the job's promise, updates stats.
  /// A job cancel() hit completes kTruncated whatever its execution
  /// returned.
  void publish(const std::shared_ptr<Job>& job, MiningResult result,
               double queue_ms);
  /// Marks `job` as running `run` (null: not interruptible) unless it was
  /// cancelled already, in which case it must start no mine.
  [[nodiscard]] bool start_mine(Job& job, gpapriori::RunControl* run);
  /// Drops `job` from inflight_ if it is the entry for its key. Caller
  /// holds m_.
  void retire_dedup(const Job& job);
  /// Removes one pending_ entry of `id` that points at `job`. Caller
  /// holds m_.
  void unindex(const std::string& id, const Job& job);

  const ServiceOptions opts_;
  DatasetCache cache_;
  CostEstimator estimator_;
  AdmissionController admission_;

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  /// dedup key -> queued-or-running job accepting followers.
  std::unordered_map<std::string, std::shared_ptr<Job>> inflight_;
  /// correlation id -> the job of every request not answered yet, from
  /// submit() to publish(): one entry per job under its own id, and one
  /// per follower (under the follower's id) pointing at its leader.
  std::unordered_multimap<std::string, std::shared_ptr<Job>> pending_;
  std::optional<gpusim::FaultPlan> fault_plan_override_;
  ServiceStats stats_;
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace serve
