#include "serve/mining_service.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/gpapriori_all.hpp"
#include "core/run_control.hpp"
#include "fim/fimi_io.hpp"
#include "fim/rules.hpp"
#include "gpusim/cancel.hpp"
#include "obs/trace.hpp"
#include "serve/planner.hpp"

namespace serve {

namespace {

/// The drivers that preprocess at kAscendingFreq and accept
/// Config::shared_layout. (CPU_TEST and the CPU baselines build their own
/// layouts; top-K has its own rising-threshold pass.)
bool uses_shared_layout(const std::string& algo) {
  return algo == "GPApriori" || algo == "GPApriori (eq-class)" ||
         algo == "GPApriori (pipelined)" ||
         algo == "GPApriori (partitioned)" || algo == "GPU Eclat" ||
         algo == "Hybrid CPU+GPU Apriori";
}

/// Why `r` can never run, or empty when it can: everything execute() would
/// otherwise find out only after loading the dataset.
std::string invalid_reason(const MiningRequest& r) {
  if (r.dataset.empty()) return "request has no dataset";
  if (r.top_k == 0) {
    miners::MiningParams params;
    params.min_support_ratio = r.min_support_ratio;
    params.min_support_abs = r.min_support_abs;
    try {
      params.validate();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
  }
  if (r.rules_confidence > 1.0) return "rules confidence must be in [0, 1]";
  const auto& names = gpapriori::miner_names();
  if (r.top_k == 0 && !r.algo.empty() &&
      std::find(names.begin(), names.end(), r.algo) == names.end())
    return "unknown algorithm '" + r.algo + "'";
  return {};
}

/// A request hit by MiningService::cancel completes kTruncated. A mine the
/// cancel tripped already says where it stopped; anything else stops as
/// "cancelled", keeping whatever it has.
void mark_cancelled(MiningResult& r) {
  if (r.status == RequestStatus::kTruncated) return;
  r.status = RequestStatus::kTruncated;
  r.stop_reason = "cancelled";
  r.error.clear();
}

/// A future that already holds `r`: the answer of a request that never
/// reaches the queue.
std::future<MiningResult> ready(MiningResult r) {
  std::promise<MiningResult> p;
  p.set_value(std::move(r));
  return p.get_future();
}

/// Everything that determines a request's result (id and the submit order
/// do not). %a renders doubles exactly, so 0.5 and 0.5000001 never
/// collide, and NaN != NaN can't poison the key (NaN is rejected before
/// execution anyway).
std::string dedup_key(const MiningRequest& r) {
  char nums[160];
  std::snprintf(nums, sizeof(nums), "|%a|%u|%zu|%zu|%a|%a|",
                r.min_support_ratio, r.min_support_abs, r.max_itemset_size,
                r.top_k, r.rules_confidence, r.deadline_ms);
  return r.dataset + "\x1f" + r.algo + "\x1f" + nums + r.out_path;
}

std::uint32_t resolve_workers(std::uint32_t configured) {
  if (configured != 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw / 2, 1u, 8u);
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

template <typename F>
class ScopeExit {
 public:
  explicit ScopeExit(F f) : f_(std::move(f)) {}
  ~ScopeExit() { f_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  F f_;
};

}  // namespace

const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kTruncated: return "truncated";
    case RequestStatus::kRejected: return "rejected";
    case RequestStatus::kRejectedOverload: return "shed";
    case RequestStatus::kInvalid: return "invalid";
    case RequestStatus::kError: return "error";
  }
  return "?";
}

int exit_code(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk: return 0;
    case RequestStatus::kTruncated: return 6;
    case RequestStatus::kRejected: return 75;  // EX_TEMPFAIL: retry later
    case RequestStatus::kRejectedOverload: return 75;
    case RequestStatus::kInvalid: return 64;   // EX_USAGE
    case RequestStatus::kError: return 1;
  }
  return 1;
}

MiningService::MiningService(ServiceOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_bytes),
      admission_(opts_.admission, resolve_workers(opts_.workers)) {
  const std::uint32_t n = resolve_workers(opts_.workers);
  workers_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

MiningService::~MiningService() { shutdown(); }

void MiningService::register_dataset(const std::string& name,
                                     fim::TransactionDb db) {
  cache_.register_handle(name, std::move(db));
}

std::future<MiningResult> MiningService::submit(MiningRequest req) {
  std::string invalid = invalid_reason(req);
  const std::string key = dedup_key(req);
  std::lock_guard lk(m_);
  ++stats_.submitted;

  // A malformed request is answered at once: it takes no queue slot, no
  // admission budget and no dedup entry, so nothing (a cancel, a storm, a
  // full queue) can turn its answer into anything but kInvalid.
  if (!invalid.empty()) {
    MiningResult r;
    r.id = std::move(req.id);
    r.status = RequestStatus::kInvalid;
    r.error = std::move(invalid);
    ++stats_.completed;
    ++stats_.errors;
    return ready(std::move(r));
  }

  if (stopping_) {
    MiningResult r;
    r.id = std::move(req.id);
    r.status = RequestStatus::kRejected;
    r.error = "service is shutting down";
    ++stats_.rejected;
    return ready(std::move(r));
  }

  // Dedup first: a follower consumes no queue slot and no admission
  // tokens, so identical requests can never be rejected or shed while
  // their twin is in flight.
  if (auto it = inflight_.find(key); it != inflight_.end()) {
    std::promise<MiningResult> p;
    auto fut = p.get_future();
    pending_.emplace(req.id, it->second);
    it->second->followers.emplace_back(std::move(req.id), std::move(p));
    ++stats_.deduped;
    return fut;
  }

  if (queue_.size() >= opts_.max_queue) {
    MiningResult r;
    r.id = std::move(req.id);
    r.status = RequestStatus::kRejected;
    r.error = "queue full (depth " + std::to_string(opts_.max_queue) + ")";
    ++stats_.rejected;
    return ready(std::move(r));
  }

  // Cost-based admission: predict the request's footprint and shed it —
  // typed, with a retry-after hint — when it does not fit the in-flight
  // budgets, instead of letting it occupy a queue slot it cannot use.
  // Only answerable here when the dataset's shape is already known
  // (registered handle or cached parse); a cold dataset is admitted by
  // the worker right after its parse instead.
  CostEstimate est;
  bool reserved = false;
  if (opts_.admission.enabled && req.top_k == 0) {
    if (const auto shape = cache_.peek_stats(req.dataset)) {
      miners::MiningParams params;
      params.min_support_ratio = req.min_support_ratio;
      params.min_support_abs = req.min_support_abs;
      est = estimator_.estimate(
          *shape, params.resolve_min_count(shape->num_transactions));
      const AdmissionDecision d = admission_.try_admit(est);
      if (!d.admitted) {
        MiningResult r;
        r.id = std::move(req.id);
        r.status = RequestStatus::kRejectedOverload;
        r.error = d.reason;
        r.retry_after_ms = d.retry_after_ms;
        ++stats_.shed;
        return ready(std::move(r));
      }
      reserved = true;
    }
  }

  auto job = std::make_shared<Job>();
  job->request = std::move(req);
  job->enqueued_at = std::chrono::steady_clock::now();
  job->seq = next_seq_++;
  job->admitted_cost = est;
  job->cost_reserved = reserved;
  auto fut = job->promise.get_future();
  inflight_[key] = job;
  pending_.emplace(job->request.id, job);
  queue_.push_back(std::move(job));
  cv_.notify_one();
  return fut;
}

std::vector<MiningResult> MiningService::run_batch(
    std::vector<MiningRequest> requests) {
  std::vector<std::future<MiningResult>> futures;
  futures.reserve(requests.size());
  for (auto& r : requests) futures.push_back(submit(std::move(r)));
  std::vector<MiningResult> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

std::size_t MiningService::cancel(const std::string& id) {
  std::vector<std::promise<MiningResult>> detached;
  std::size_t hits = 0;
  {
    std::lock_guard lk(m_);
    auto [it, end] = pending_.equal_range(id);
    while (it != end) {
      Job& job = *it->second;
      // A follower under this id is detached and answered below; its
      // leader keeps running for the others. (Entries of the same id and
      // job are interchangeable, so which one is erased does not matter.)
      const auto f = std::find_if(
          job.followers.begin(), job.followers.end(),
          [&](const auto& follower) { return follower.first == id; });
      if (f != job.followers.end()) {
        detached.push_back(std::move(f->second));
        job.followers.erase(f);
        it = pending_.erase(it);
        ++hits;
        continue;
      }
      if (!job.cancelled) {
        job.cancelled = true;
        retire_dedup(job);  // a new twin must not inherit the cancel
        if (job.run != nullptr) job.run->request_cancel();
        ++hits;
      }
      ++it;
    }
    stats_.cancelled += hits;
  }
  for (auto& promise : detached) {
    MiningResult r;
    r.id = id;
    r.deduped = true;
    mark_cancelled(r);
    promise.set_value(std::move(r));
  }
  return hits;
}

bool MiningService::start_mine(Job& job, gpapriori::RunControl* run) {
  std::lock_guard lk(m_);
  if (job.cancelled) return false;
  job.run = run;
  return true;
}

void MiningService::retire_dedup(const Job& job) {
  const auto it = inflight_.find(dedup_key(job.request));
  if (it != inflight_.end() && it->second.get() == &job) inflight_.erase(it);
}

void MiningService::unindex(const std::string& id, const Job& job) {
  auto [it, end] = pending_.equal_range(id);
  for (; it != end; ++it) {
    if (it->second.get() == &job) {
      pending_.erase(it);
      return;
    }
  }
}

void MiningService::set_fault_plan(gpusim::FaultPlan plan) {
  std::lock_guard lk(m_);
  fault_plan_override_ = std::move(plan);
}

ServiceStats MiningService::stats() const {
  ServiceStats s;
  {
    std::lock_guard lk(m_);
    s = stats_;
  }
  s.cache = cache_.stats();
  s.admission = admission_.stats();
  return s;
}

void MiningService::shutdown() {
  {
    std::lock_guard lk(m_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();
}

void MiningService::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    bool skip_cancelled = false;
    bool skip_expired = false;
    {
      std::unique_lock lk(m_);
      cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      job = std::move(queue_.front());
      queue_.pop_front();
      skip_cancelled = job->cancelled;
      if (!skip_cancelled && stopping_) {
        // Shutdown drain: a queued request whose whole wall budget was
        // spent waiting completes as a salvage immediately instead of
        // executing with nothing left. Live traffic keeps the documented
        // contract (deadline covers execution, queue wait excluded).
        const double deadline = job->request.deadline_ms > 0
                                    ? job->request.deadline_ms
                                    : opts_.default_deadline_ms;
        if (deadline > 0 && ms_since(job->enqueued_at) >= deadline) {
          skip_expired = true;
          ++stats_.expired_in_queue;
        }
      }
    }

    const double queue_ms = ms_since(job->enqueued_at);
    if (skip_cancelled || skip_expired) {
      MiningResult r;
      r.id = job->request.id;
      r.status = RequestStatus::kTruncated;
      r.stop_reason = skip_cancelled ? "cancelled while queued"
                                     : "deadline expired while queued";
      publish(job, std::move(r), queue_ms);
      continue;
    }

    obs::ScopedSpan span(obs::SpanKind::kServe, job->request.id.empty()
                                                    ? job->request.dataset
                                                    : job->request.id);
    span.add_arg("seq", static_cast<double>(job->seq));
    span.add_arg("queue_ms", queue_ms);

    const auto exec_start = std::chrono::steady_clock::now();
    MiningResult result = execute(*job);
    result.exec_ms = ms_since(exec_start);
    span.add_arg("exec_ms", result.exec_ms);
    span.add_arg("status", static_cast<double>(exit_code(result.status)));
    publish(job, std::move(result), queue_ms);
  }
}

void MiningService::publish(const std::shared_ptr<Job>& job,
                            MiningResult result, double queue_ms) {
  result.queue_ms = queue_ms;
  if (job->cost_reserved) {
    admission_.release(job->admitted_cost);
    job->cost_reserved = false;
  }

  // Retire from the dedup and id indexes before publishing: once the
  // promises are fulfilled a new identical request must build (or
  // cache-hit) afresh, never attach to a completed job, and cancel() must
  // no longer find it. A cancel that found it first decides the status.
  std::vector<std::pair<std::string, std::promise<MiningResult>>> followers;
  {
    std::lock_guard lk(m_);
    retire_dedup(*job);
    unindex(job->request.id, *job);
    followers = std::move(job->followers);
    for (const auto& follower : followers) unindex(follower.first, *job);
    if (job->cancelled) mark_cancelled(result);
    ++stats_.completed;
    stats_.queue_wait.record(queue_ms);
    if (result.status == RequestStatus::kTruncated) ++stats_.truncated;
    if (result.status == RequestStatus::kRejectedOverload) ++stats_.shed;
    if (result.status == RequestStatus::kInvalid ||
        result.status == RequestStatus::kError)
      ++stats_.errors;
  }

  for (auto& [id, promise] : followers) {
    MiningResult copy = result;
    copy.id = id;
    copy.deduped = true;
    promise.set_value(std::move(copy));
  }
  job->promise.set_value(std::move(result));
}

bool MiningService::hedgeable(const std::string& algo) const {
  return algo != "CPU_TEST" && algo != "GPApriori" &&
         opts_.max_hedges_per_request > 0;
}

MiningResult MiningService::execute(Job& job) {
  const MiningRequest& req = job.request;
  MiningResult r;
  r.id = req.id;
  try {
    // submit() already answered every malformed request (invalid_reason).
    miners::MiningParams params;
    params.min_support_ratio = req.min_support_ratio;
    params.min_support_abs = req.min_support_abs;
    params.max_itemset_size = req.max_itemset_size;

    // -- Dataset (cached parse) -------------------------------------------
    const DatasetCache::DatasetResult ds = cache_.get_dataset(req.dataset);
    const fim::TransactionDb& db = ds.dataset->db;
    r.db_cache_hit = ds.hit;
    r.transactions = db.num_transactions();

    // -- Top-K short path --------------------------------------------------
    // A top-K mine cannot be interrupted: a cancel that lands during it is
    // applied by publish().
    if (req.top_k > 0) {
      if (!start_mine(job, nullptr)) {
        mark_cancelled(r);
        return r;
      }
      r.algo = "top-k (native)";
      const auto tk =
          gpapriori::mine_top_k_native(db, req.top_k, req.max_itemset_size);
      r.itemsets = tk.itemsets;
      r.status = RequestStatus::kOk;
    } else {
      const fim::Support min_count =
          params.resolve_min_count(db.num_transactions());

      // -- Late admission (dataset was cold at submit time) ----------------
      if (opts_.admission.enabled && !job.cost_reserved) {
        const CostEstimate est =
            estimator_.estimate(ds.dataset->stats, min_count);
        const AdmissionDecision d = admission_.try_admit(est);
        if (!d.admitted) {
          r.status = RequestStatus::kRejectedOverload;
          r.error = d.reason;
          r.retry_after_ms = d.retry_after_ms;
          return r;
        }
        job.admitted_cost = est;
        job.cost_reserved = true;
      }

      // -- Plan ------------------------------------------------------------
      gpapriori::Config cfg = opts_.base_config;
      cfg.host_threads = opts_.threads_per_request;
      {
        std::lock_guard lk(m_);
        if (fault_plan_override_) cfg.fault_plan = *fault_plan_override_;
      }
      std::string algo = req.algo;
      if (algo.empty()) {
        const PlanDecision plan = plan_driver(ds.dataset->stats, min_count);
        algo = plan.algo;
        cfg.tiled = plan.tiled;
        r.planner_reason = plan.reason;
      }
      r.algo = algo;

      // -- Layout (cached preprocess) --------------------------------------
      std::shared_ptr<const gpapriori::SharedLayout> layout;
      if (uses_shared_layout(algo)) {
        const auto lay = cache_.get_layout(ds.dataset, min_count);
        layout = lay.layout;
        r.layout_cache_hit = lay.hit;
        cfg.shared_layout = layout.get();
      }

      // -- Mine --------------------------------------------------------------
      gpapriori::RunControlOptions rco;
      rco.deadline_ms =
          req.deadline_ms > 0 ? req.deadline_ms : opts_.default_deadline_ms;
      // Arm a per-level checkpoint only when this attempt could be hedged,
      // so the retry resumes the salvaged prefix instead of recounting it.
      // The file lives as long as this execution.
      std::string checkpoint;
      if (hedgeable(algo)) {
        namespace fs = std::filesystem;
        std::error_code ec;
        const fs::path dir = opts_.hedge_checkpoint_dir.empty()
                                 ? fs::temp_directory_path(ec)
                                 : fs::path(opts_.hedge_checkpoint_dir);
        if (!ec) {
          char name[80];
          std::snprintf(name, sizeof(name), "gpapriori-svc-%zx-%llu.ckpt",
                        reinterpret_cast<std::uintptr_t>(this),
                        static_cast<unsigned long long>(job.seq));
          checkpoint = (dir / name).string();
        }
      }
      rco.checkpoint_path = checkpoint;
      ScopeExit remove_checkpoint{[&] {
        std::error_code ec;
        if (!checkpoint.empty()) std::filesystem::remove(checkpoint, ec);
      }};
      gpapriori::RunControl run(rco);
      std::optional<gpapriori::RunControl> retry;
      ScopeExit unregister{[&] {
        std::lock_guard lk(m_);
        job.run = nullptr;
      }};
      // Mines `algo` under `rc`, which cancel() can trip from here to the
      // end of the execution; nullopt when a cancel came first.
      const auto mine = [&](gpapriori::RunControl& rc)
          -> std::optional<miners::MiningOutput> {
        cfg.run_control = &rc;
        auto miner = gpapriori::make_miner(algo, cfg);
        if (!miner)
          throw std::invalid_argument("unknown algorithm '" + algo + "'");
        if (!start_mine(job, &rc)) return std::nullopt;
        return miner->mine(db, params);
      };
      std::optional<miners::MiningOutput> out;
      bool failed = false;
      try {
        out = mine(run);
      } catch (const gpusim::CancelledError&) {
        throw;
      } catch (const std::invalid_argument&) {
        throw;
      } catch (const std::exception&) {
        if (!hedgeable(algo)) throw;
        std::lock_guard lk(m_);
        if (job.cancelled ||
            (opts_.hedge_budget != 0 && stats_.hedges >= opts_.hedge_budget))
          throw;
        ++stats_.hedges;
        failed = true;
      }
      // Hedge: the failed mine's second attempt runs on CPU_TEST (which
      // never touches the device and is never hedged itself) on this
      // worker, under its own RunControl, resuming from the levels the
      // failed attempt checkpointed.
      if (failed) {
        algo = "CPU_TEST";
        r.algo = algo;
        r.planner_reason =
            "hedged retry pinned to CPU_TEST after a device-fault error";
        r.hedges = 1;
        rco.checkpoint_path.clear();
        std::error_code ec;
        if (std::filesystem::exists(checkpoint, ec))
          rco.resume_path = checkpoint;
        out = mine(retry.emplace(rco));
      }
      if (!out) {  // cancelled before its mine started
        mark_cancelled(r);
        return r;
      }
      r.itemsets = std::move(out->itemsets);
      r.host_ms = out->host_ms;
      r.device_ms = out->device_ms;
      if (out->truncated()) {
        r.status = RequestStatus::kTruncated;
        r.truncated_at_level = out->truncated_at_level;
        r.stop_reason = out->stop_reason;
      } else {
        r.status = RequestStatus::kOk;
      }

      // -- Rules -------------------------------------------------------------
      // Still inside the request's deadline and cancel: generation polls
      // the run once per frequent itemset, and a stop truncates the request.
      gpapriori::RunControl& last = retry ? *retry : run;
      if (req.rules_confidence >= 0) {
        fim::RuleParams rp;
        rp.min_confidence = req.rules_confidence;
        rp.num_transactions = db.num_transactions();
        rp.stop = [&last] {
          last.poll();
          return last.cancelled();
        };
        r.num_rules = fim::generate_rules(r.itemsets, rp).size();
        if (last.cancelled() && r.status == RequestStatus::kOk) {
          r.status = RequestStatus::kTruncated;
          r.stop_reason = gpusim::to_string(last.cause());
        }
      }
    }

    // -- Optional file output ----------------------------------------------
    if (!req.out_path.empty()) {
      std::ofstream f(req.out_path);
      if (!f) {
        r.status = RequestStatus::kError;
        r.error = "cannot open " + req.out_path;
        return r;
      }
      f << r.itemsets.to_string();
    }
    return r;
  } catch (const gpusim::CancelledError& e) {
    r.status = RequestStatus::kTruncated;
    r.stop_reason = e.what();
    return r;
  } catch (const std::invalid_argument& e) {
    r.status = RequestStatus::kInvalid;
    r.error = e.what();
    return r;
  } catch (const std::exception& e) {
    r.status = RequestStatus::kError;
    r.error = e.what();
    return r;
  }
}

}  // namespace serve
