#pragma once
// Per-block shared (on-chip) memory for the SIMT simulator.
//
// One SharedMemory instance exists per executing block; the executor zeroes
// it at block start (real shared memory is uninitialized, but deterministic
// zero-fill makes accidental use-before-set reproducible instead of flaky).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "gpusim/error.hpp"

namespace gpusim {

class SharedMemory {
 public:
  explicit SharedMemory(std::size_t bytes) : data_(bytes) {}

  void reset(std::size_t bytes) {
    data_.assign(bytes, std::byte{0});
  }

  template <typename T>
  [[nodiscard]] T load(std::size_t byte_offset) const {
    check(byte_offset, sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + byte_offset, sizeof(T));
    return v;
  }

  template <typename T>
  void store(std::size_t byte_offset, T v) {
    check(byte_offset, sizeof(T));
    std::memcpy(data_.data() + byte_offset, &v, sizeof(T));
  }

  [[nodiscard]] std::size_t size() const { return data_.size(); }

 private:
  void check(std::size_t off, std::size_t n) const {
    if (off + n > data_.size())
      throw SimError("SharedMemory: access beyond block shared allocation");
  }

  std::vector<std::byte> data_;
};

}  // namespace gpusim
