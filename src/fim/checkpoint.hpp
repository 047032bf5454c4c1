#pragma once
// Level-checkpoint snapshots for resumable mining (DESIGN.md §11).
//
// Apriori is level-synchronous, so the complete mining state at a level
// boundary is tiny: the frequent itemsets found so far plus the parameters
// that produced them. A snapshot holds exactly that, in a versioned binary
// format a driver writes after every completed level (--checkpoint <path>)
// and reloads with --resume <path> to continue a cancelled run bit-exactly.
// Each level's itemsets are the frequent nodes of that depth of the
// candidate trie, so a resume rebuilds the trie straight from them — no
// candidate is regenerated and nothing is counted for the saved levels.
//
// Two FNV-1a digests guard against resuming with the wrong inputs: the
// dataset digest covers the raw transaction database (every tid list), and
// the layout digest is driver-chosen — GPApriori hashes its vertical bitmap
// layout so a resume also proves the same preprocessing (item reorder,
// min-count filter) is in effect. Format v2 ends with a checksum of every
// byte before it, so a corrupted support or item is rejected instead of
// silently changing the resumed output; v1 files (no checksum) are refused.
// Snapshot writes are atomic (tmp file + rename) so a crash mid-write never
// corrupts a previous good checkpoint. All failures throw fim::IoError.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fim/result.hpp"
#include "fim/transaction_db.hpp"

namespace fim {

/// Incremental FNV-1a over arbitrary bytes. `state` starts at kFnvOffset.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
[[nodiscard]] std::uint64_t fnv1a_bytes(const void* data, std::size_t n,
                                        std::uint64_t state = kFnvOffset);

/// Digest of a transaction database: shape plus every tid list, in order.
/// Two structurally identical databases always digest equal; any edit to a
/// transaction changes it.
[[nodiscard]] std::uint64_t dataset_digest(const TransactionDb& db);

/// Per-level stats preserved across resume so a resumed run reports the
/// same LevelStats table as the uninterrupted run.
struct CheckpointLevel {
  std::uint32_t level = 0;
  std::uint64_t candidates = 0;
  std::uint64_t frequent = 0;
  double host_ms = 0;
  double device_ms = 0;
};

/// Everything in a snapshot except its itemsets.
struct CheckpointHeader {
  std::uint64_t dataset_digest = 0;  ///< fim::dataset_digest of the input
  std::uint64_t layout_digest = 0;   ///< driver-chosen layout fingerprint
  std::uint64_t min_count = 0;       ///< absolute support threshold
  std::uint32_t max_itemset_size = 0;
  std::uint32_t completed_level = 0;  ///< highest fully-counted level
  std::vector<CheckpointLevel> levels;
};

/// One resumable snapshot: everything a level-synchronous miner needs to
/// continue from `completed_level + 1`.
struct MiningCheckpoint : CheckpointHeader {
  static constexpr std::uint32_t kMagic = 0x47504143u;  // "GPAC"
  static constexpr std::uint32_t kVersion = 2;

  ItemsetCollection itemsets;  ///< frequent itemsets of levels 1..completed

  /// Serialized size in bytes (what write() will produce).
  [[nodiscard]] std::size_t byte_size() const;

  /// Atomically writes the snapshot: serializes to `path + ".tmp"`, then
  /// renames over `path`. Throws IoError on any filesystem failure.
  void write(const std::string& path) const;

  /// Reads and validates a snapshot. Throws IoError on missing file, bad
  /// magic, a version other than kVersion, truncation, trailing garbage, a
  /// record count larger than the bytes left to hold it (checked before
  /// anything is sized from it), or a checksum that does not match the
  /// bytes (checked once they are parsed).
  [[nodiscard]] static MiningCheckpoint read(const std::string& path);
};

/// Atomically writes a snapshot of `header` and `itemsets`, as
/// MiningCheckpoint::write does, without copying them into one. Returns the
/// bytes written.
std::size_t write_checkpoint(const std::string& path,
                             const CheckpointHeader& header,
                             const ItemsetCollection& itemsets);

}  // namespace fim
