#pragma once
// Deterministic device fault injection.
//
// A FaultPlan describes which device operations fail and how: exact
// triggers ("the 3rd H2D copy fails", "every launch from the 2nd onward
// times out") plus seeded probabilistic transient faults. The plan is
// routed through Device::alloc / copy_to_device / copy_to_host / launch so
// the whole mining stack above can be exercised against OOM, transfer
// corruption, launch timeouts and transient ECC events without a flaky
// test in sight: the same plan + seed always yields the same fault
// sequence (probabilistic draws are counter-based hashes of the seed, not
// a shared RNG stream, so unrelated operations never perturb each other).
//
// Injection sites and error types:
//   alloc  -> DeviceOomError               (kind "oom")
//   h2d    -> TransferError (transient)    (kind "fail")
//   d2h    -> TransferError (transient)    (kind "fail")
//   d2h    -> silent bit-flip in the received host buffer (kind "corrupt")
//   launch -> LaunchError (transient)      (kinds "timeout", "ecc")

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/error.hpp"

namespace gpusim {

enum class FaultOp : std::uint8_t { kAlloc, kH2D, kD2H, kLaunch };

enum class FaultKind : std::uint8_t {
  kOom,         ///< alloc fails with DeviceOomError
  kFail,        ///< transfer fails with a transient TransferError
  kCorrupt,     ///< D2H completes but a bit of the host buffer is flipped
  kTimeout,     ///< launch fails with a transient LaunchError ("timeout")
  kEcc,         ///< launch fails with a transient LaunchError ("ECC event")
};

[[nodiscard]] const char* to_string(FaultOp op);
[[nodiscard]] const char* to_string(FaultKind kind);

struct FaultPlan {
  /// Seed of the probabilistic draws (triggers are seed-independent).
  std::uint64_t seed = 0;

  /// Fail the `nth` operation of type `op` (1-based). With `sticky`, the
  /// Nth AND every later operation fails — a persistent device fault.
  /// With `last` > 0, operations nth..last (inclusive) fail — a bounded
  /// fault window, i.e. a storm that heals on its own (chaos soak drills
  /// use this to exercise the retry ladder).
  struct Trigger {
    FaultOp op = FaultOp::kAlloc;
    std::uint64_t nth = 1;
    std::uint64_t last = 0;  ///< 0 = single-shot (or open-ended if sticky)
    bool sticky = false;
    FaultKind kind = FaultKind::kOom;
  };
  std::vector<Trigger> triggers;

  /// Per-operation probabilities of a transient fault, in [0, 1].
  double p_transfer = 0;  ///< H2D/D2H transient failure
  double p_corrupt = 0;   ///< D2H silent corruption
  double p_timeout = 0;   ///< launch timeout
  double p_ecc = 0;       ///< launch transient ECC event

  [[nodiscard]] bool enabled() const {
    return !triggers.empty() || p_transfer > 0 || p_corrupt > 0 ||
           p_timeout > 0 || p_ecc > 0;
  }

  /// Parses a plan spec, e.g.
  ///   "seed=42;h2d#3=fail;alloc#1=oom;launch#2+=timeout;launch#5-20=ecc;
  ///    p_corrupt=0.01"
  /// Tokens are ';'- or ','-separated:
  ///   seed=N                      probabilistic seed
  ///   <op>#<n>[+]=<kind>          fail the n-th <op> ('+' = and all later)
  ///   <op>#<a>-<b>=<kind>         fail <op> ops a..b inclusive (a bounded
  ///                               fault window; '+' is not allowed here)
  ///   p_transfer|p_corrupt|p_timeout|p_ecc=X
  /// with <op> in {alloc,h2d,d2h,launch} and <kind> in
  /// {oom,fail,corrupt,timeout,ecc} (kind must match the op's column in
  /// the table above). Throws std::invalid_argument on a malformed spec.
  [[nodiscard]] static FaultPlan parse(const std::string& spec);
};

/// Counters of operations seen and faults injected, for reports.
struct FaultStats {
  std::uint64_t allocs = 0, h2d = 0, d2h = 0, launches = 0;
  std::uint64_t injected_oom = 0;
  std::uint64_t injected_transfer_fail = 0;
  std::uint64_t injected_corruption = 0;
  std::uint64_t injected_timeout = 0;
  std::uint64_t injected_ecc = 0;

  [[nodiscard]] std::uint64_t total_injected() const {
    return injected_oom + injected_transfer_fail + injected_corruption +
           injected_timeout + injected_ecc;
  }
};

/// Evaluates a FaultPlan at each device operation. Stateless apart from
/// per-op counters, so the fault sequence is a pure function of the plan.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan = {});

  /// Called before the arena allocation; may throw DeviceOomError.
  void on_alloc(std::size_t bytes);
  /// Called before the H2D write; may throw a transient TransferError.
  void on_h2d(std::size_t bytes);
  /// Called before the D2H read; may throw a transient TransferError.
  void on_d2h(std::size_t bytes);
  /// Called after the D2H read with the received host bytes; flips one
  /// deterministically-chosen bit when the plan injects corruption.
  void corrupt_d2h(void* data, std::size_t n);
  /// Called before the kernel runs; may throw a transient LaunchError.
  void on_launch(const std::string& kernel_name);

  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] bool enabled() const { return plan_.enabled(); }

 private:
  /// Trigger lookup for the `index`-th (1-based) operation of type `op`.
  [[nodiscard]] const FaultPlan::Trigger* match(FaultOp op,
                                                std::uint64_t index) const;
  /// Deterministic uniform draw in [0,1) for the given op instance.
  [[nodiscard]] double draw(FaultOp op, std::uint64_t index,
                            std::uint32_t salt) const;

  FaultPlan plan_;
  FaultStats stats_;
};

}  // namespace gpusim
