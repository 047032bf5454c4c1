#include "fim/checkpoint.hpp"

#include <cstdio>
#include <cstring>

#include "fim/fimi_io.hpp"
#include "gpusim/checksum.hpp"

namespace fim {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;
/// Serialized CheckpointLevel: level u32 + four 8-byte fields.
constexpr std::size_t kLevelRecordBytes = 4 + 8 + 8 + 8 + 8;
/// The v2 trailer: a u64 checksum of every byte before it.
constexpr std::size_t kChecksumBytes = 8;

// Append helpers for the flat binary encoding. Everything is written as
// fixed-width host-endian integers; the snapshot is a local artifact (the
// simulator never ships one across machines), so portability of the byte
// order is not a goal — the version field is.
void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_f64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

class Reader {
 public:
  /// Parses the first `size` bytes of `buf`.
  Reader(const std::string& buf, std::size_t size, const std::string& path)
      : buf_(buf), size_(size), path_(path) {}

  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  double f64() { return get<double>(); }

  [[nodiscard]] bool exhausted() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  /// A record count read from the file, checked against the bytes left
  /// (`record_bytes` each) before anything is sized from it.
  std::uint64_t count(std::uint64_t n, std::size_t record_bytes,
                      const char* what) const {
    if (n > remaining() / record_bytes)
      throw IoError("checkpoint " + std::string(what) + " " +
                    std::to_string(n) + " exceeds the " +
                    std::to_string(remaining()) + " bytes left: " + path_);
    return n;
  }

 private:
  template <typename T>
  T get() {
    if (size_ - pos_ < sizeof(T))
      throw IoError("checkpoint truncated: " + path_);
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const std::string& buf_;
  std::size_t size_;
  const std::string& path_;
  std::size_t pos_ = 0;
};

std::size_t serialized_size(const CheckpointHeader& header,
                            const ItemsetCollection& itemsets) {
  std::size_t n = 4 + 4 + 8 + 8 + 8 + 4 + 4;  // header
  n += 8 + header.levels.size() * kLevelRecordBytes;
  n += 8;
  for (const FrequentItemset& fs : itemsets) n += 4 + fs.items.size() * 4 + 4;
  return n + kChecksumBytes;
}

std::string serialize(const CheckpointHeader& header,
                      const ItemsetCollection& itemsets) {
  std::string out;
  out.reserve(serialized_size(header, itemsets));
  put_u32(out, MiningCheckpoint::kMagic);
  put_u32(out, MiningCheckpoint::kVersion);
  put_u64(out, header.dataset_digest);
  put_u64(out, header.layout_digest);
  put_u64(out, header.min_count);
  put_u32(out, header.max_itemset_size);
  put_u32(out, header.completed_level);
  put_u64(out, header.levels.size());
  for (const CheckpointLevel& lv : header.levels) {
    put_u32(out, lv.level);
    put_u64(out, lv.candidates);
    put_u64(out, lv.frequent);
    put_f64(out, lv.host_ms);
    put_f64(out, lv.device_ms);
  }
  put_u64(out, itemsets.size());
  for (const FrequentItemset& fs : itemsets) {
    put_u32(out, static_cast<std::uint32_t>(fs.items.size()));
    for (Item item : fs.items) put_u32(out, item);
    put_u32(out, fs.support);
  }
  put_u64(out, gpusim::word_checksum(out.data(), out.size()));
  return out;
}

}  // namespace

std::uint64_t fnv1a_bytes(const void* data, std::size_t n,
                          std::uint64_t state) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    state ^= p[i];
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t dataset_digest(const TransactionDb& db) {
  std::uint64_t h = kFnvOffset;
  const std::uint64_t shape[2] = {db.num_transactions(), db.item_universe()};
  h = fnv1a_bytes(shape, sizeof(shape), h);
  for (std::size_t t = 0; t < db.num_transactions(); ++t) {
    auto txn = db.transaction(t);
    const std::uint64_t len = txn.size();
    h = fnv1a_bytes(&len, sizeof(len), h);
    h = fnv1a_bytes(txn.data(), txn.size() * sizeof(Item), h);
  }
  return h;
}

std::size_t MiningCheckpoint::byte_size() const {
  return serialized_size(*this, itemsets);
}

void MiningCheckpoint::write(const std::string& path) const {
  (void)write_checkpoint(path, *this, itemsets);
}

std::size_t write_checkpoint(const std::string& path,
                             const CheckpointHeader& header,
                             const ItemsetCollection& itemsets) {
  const std::string bytes = serialize(header, itemsets);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw IoError("cannot open checkpoint file: " + tmp);
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    throw IoError("short write to checkpoint file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("cannot rename checkpoint into place: " + path);
  }
  return bytes.size();
}

MiningCheckpoint MiningCheckpoint::read(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw IoError("cannot open checkpoint file: " + path);
  std::string buf;
  char chunk[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
    buf.append(chunk, got);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) throw IoError("read failure on checkpoint file: " + path);

  // The payload is everything before the checksum trailer.
  const std::size_t payload =
      buf.size() >= kChecksumBytes ? buf.size() - kChecksumBytes : 0;
  Reader r(buf, payload, path);
  if (r.u32() != kMagic)
    throw IoError("not a GPApriori checkpoint (bad magic): " + path);
  if (const std::uint32_t version = r.u32(); version != kVersion)
    throw IoError("unsupported checkpoint version " +
                  std::to_string(version) + " (this build reads version " +
                  std::to_string(kVersion) + " only): " + path);

  MiningCheckpoint cp;
  cp.dataset_digest = r.u64();
  cp.layout_digest = r.u64();
  cp.min_count = r.u64();
  cp.max_itemset_size = r.u32();
  cp.completed_level = r.u32();
  const std::uint64_t nlevels =
      r.count(r.u64(), kLevelRecordBytes, "level count");
  cp.levels.reserve(nlevels);
  for (std::uint64_t i = 0; i < nlevels; ++i) {
    CheckpointLevel lv;
    lv.level = r.u32();
    lv.candidates = r.u64();
    lv.frequent = r.u64();
    lv.host_ms = r.f64();
    lv.device_ms = r.f64();
    cp.levels.push_back(lv);
  }
  const std::uint64_t nsets = r.u64();
  for (std::uint64_t i = 0; i < nsets; ++i) {
    const auto k = static_cast<std::uint32_t>(
        r.count(r.u32(), sizeof(Item), "itemset length"));
    std::vector<Item> items;
    items.reserve(k);
    for (std::uint32_t j = 0; j < k; ++j) items.push_back(r.u32());
    const Support support = r.u32();
    cp.itemsets.add(Itemset(std::move(items)), support);
  }
  if (!r.exhausted())
    throw IoError("trailing bytes after checkpoint payload: " + path);
  std::uint64_t stored = 0;
  std::memcpy(&stored, buf.data() + payload, sizeof(stored));
  if (stored != gpusim::word_checksum(buf.data(), payload))
    throw IoError("checkpoint checksum mismatch (corrupted snapshot): " +
                  path);
  return cp;
}

}  // namespace fim
