// Append-only chunked storage with stable element addresses — the memory
// primitive behind epoch-snapshot isolation. A single writer appends while
// any number of readers traverse already-published elements without locks:
// elements live in geometrically growing chunks that are never moved or
// freed, and the element count is published with a release store so a
// reader that acquire-loads the size can safely read every element below
// it. (std::vector push_back reallocates and std::deque::operator[] reads
// a block map the writer mutates; neither survives concurrent readers.)

#ifndef NEWSLINK_IR_APPEND_ONLY_H_
#define NEWSLINK_IR_APPEND_ONLY_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <span>
#include <utility>

namespace newslink {
namespace ir {

/// \brief Single-writer / multi-reader append-only array.
///
/// Chunk c holds (1 << (kBaseLog2 + c)) elements, so kMaxChunks chunks
/// address 2^kBaseLog2 * (2^kMaxChunks - 1) elements through a fixed
/// directory — no directory reallocation, ever. Readers may call size()
/// (acquire) and At(i) for any i below a size they previously observed.
/// Append / EnsureSize are writer-only. Move is a writer-side operation
/// (setup-time transfer, not safe concurrently with readers).
template <typename T, size_t kBaseLog2 = 6, size_t kMaxChunks = 26>
class AppendOnlyStore {
 public:
  AppendOnlyStore() = default;

  AppendOnlyStore(AppendOnlyStore&& other) noexcept { StealFrom(&other); }
  AppendOnlyStore& operator=(AppendOnlyStore&& other) noexcept {
    if (this != &other) {
      Free();
      StealFrom(&other);
    }
    return *this;
  }
  AppendOnlyStore(const AppendOnlyStore&) = delete;
  AppendOnlyStore& operator=(const AppendOnlyStore&) = delete;

  ~AppendOnlyStore() { Free(); }

  /// Published element count (acquire: everything below it is readable).
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Element i; i must be below a size() the caller has already observed
  /// (or the caller is the writer).
  const T& At(size_t i) const { return *Slot(i); }

  /// The contiguous run of elements [i, min(end of i's chunk, limit)); i
  /// must be below `limit`, and `limit` at most a size() the caller has
  /// already observed. Sequential readers walk a run with plain pointer
  /// arithmetic and pay the chunk lookup once per chunk instead of once
  /// per element.
  std::span<const T> Run(size_t i, size_t limit) const {
    size_t c, off;
    Locate(i, &c, &off);
    const size_t end = std::min(ChunkStart(c) + ChunkCapacity(c), limit);
    return {chunks_[c].load(std::memory_order_acquire) + off, end - i};
  }

  /// Writer only: append one element and publish the new size.
  void Append(T value) {
    const size_t i = size_.load(std::memory_order_relaxed);
    *MutableSlot(i) = std::move(value);
    size_.store(i + 1, std::memory_order_release);
  }

  /// Writer only: grow to n default-constructed elements (no-op if already
  /// that large). Used for id spaces with holes (e.g. sparse node ids).
  void EnsureSize(size_t n) {
    const size_t old = size_.load(std::memory_order_relaxed);
    if (n <= old) return;
    MutableSlot(n - 1);  // allocate every chunk up to the last slot
    size_.store(n, std::memory_order_release);
  }

  /// Writer only: mutable access (e.g. to grow an element in place).
  T* Mutable(size_t i) { return MutableSlot(i); }

 private:
  static constexpr size_t ChunkCapacity(size_t c) {
    return size_t{1} << (kBaseLog2 + c);
  }
  static constexpr size_t ChunkStart(size_t c) {
    return (size_t{1} << (kBaseLog2 + c)) - (size_t{1} << kBaseLog2);
  }
  static void Locate(size_t i, size_t* chunk, size_t* offset) {
    const size_t t = (i >> kBaseLog2) + 1;
    *chunk = static_cast<size_t>(std::bit_width(t)) - 1;
    *offset = i - ChunkStart(*chunk);
  }

  const T* Slot(size_t i) const {
    size_t c, off;
    Locate(i, &c, &off);
    return chunks_[c].load(std::memory_order_acquire) + off;
  }

  T* MutableSlot(size_t i) {
    size_t c, off;
    Locate(i, &c, &off);
    // Allocate every chunk up to c so EnsureSize leaves no holes.
    for (size_t k = 0; k <= c; ++k) {
      if (chunks_[k].load(std::memory_order_relaxed) == nullptr) {
        chunks_[k].store(new T[ChunkCapacity(k)](),
                         std::memory_order_release);
      }
    }
    return chunks_[c].load(std::memory_order_relaxed) + off;
  }

  void Free() {
    for (size_t c = 0; c < kMaxChunks; ++c) {
      delete[] chunks_[c].load(std::memory_order_relaxed);
      chunks_[c].store(nullptr, std::memory_order_relaxed);
    }
    size_.store(0, std::memory_order_relaxed);
  }

  void StealFrom(AppendOnlyStore* other) {
    for (size_t c = 0; c < kMaxChunks; ++c) {
      chunks_[c].store(other->chunks_[c].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      other->chunks_[c].store(nullptr, std::memory_order_relaxed);
    }
    size_.store(other->size_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    other->size_.store(0, std::memory_order_relaxed);
  }

  std::atomic<T*> chunks_[kMaxChunks] = {};
  std::atomic<size_t> size_{0};
};

}  // namespace ir
}  // namespace newslink

#endif  // NEWSLINK_IR_APPEND_ONLY_H_
