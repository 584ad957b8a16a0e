// Copy-on-write cell storage of one RelativePrefixSum: one refcounted
// chunk per box row (OverlayGeometry::BoxRow), holding the row's RP
// cells followed by its boxes' overlay values.
//
// Copying a store shares every chunk, O(box rows), and gives both the
// source and the copy fresh owner tokens. A chunk records the token of
// the store that created it and is written in place only by that store;
// any other store copies it on its first write (MutableCells). So a
// write copies only the chunks it reaches, and neither copy sees the
// other's later writes -- also when the source keeps writing after it
// was copied (DurableRps::FreezeImage copies the live structure).

#ifndef RPS_CORE_BOX_ROW_STORE_H_
#define RPS_CORE_BOX_ROW_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "core/overlay.h"
#include "util/check.h"

namespace rps {

namespace internal_box_rows {

// Allocates whole cache lines. A writer hits a chunk's last line on most
// updates (the row's last box), so no other heap object, such as one a
// reader loads on every query, may share it.
template <typename T>
struct LineAllocator {
  using value_type = T;
  LineAllocator() = default;
  template <typename U>
  explicit LineAllocator(const LineAllocator<U>&) {}
  static size_t Bytes(size_t n) { return (n * sizeof(T) + 63) / 64 * 64; }
  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(Bytes(n), std::align_val_t{64}));
  }
  void deallocate(T* p, size_t n) {
    ::operator delete(p, Bytes(n), std::align_val_t{64});
  }
  friend bool operator==(const LineAllocator&, const LineAllocator&) {
    return true;
  }
};

}  // namespace internal_box_rows

template <typename T>
class BoxRowStore {
 public:
  BoxRowStore() = default;

  /// One chunk per box row of `geometry`, owned by this store, filled
  /// from `rp` (the RP array in row-major order) and `overlay` (the
  /// overlay values in slot order; zeros when null).
  BoxRowStore(const OverlayGeometry& geometry, const T* rp, const T* overlay)
      : token_(FreshToken()) {
    rows_.reserve(static_cast<size_t>(geometry.num_box_rows()));
    for (int64_t r = 0; r < geometry.num_box_rows(); ++r) {
      const OverlayGeometry::BoxRow& row = geometry.box_row(r);
      auto chunk = std::make_shared<Chunk>();
      chunk->owner = token_.load(std::memory_order_relaxed);
      chunk->cells.reserve(static_cast<size_t>(row.cells()));
      chunk->cells.insert(chunk->cells.end(), rp + row.rp_begin,
                          rp + row.rp_begin + row.rp_cells);
      if (overlay != nullptr) {
        chunk->cells.insert(chunk->cells.end(), overlay + row.slot_begin,
                            overlay + row.slot_begin + row.slots);
      } else {
        chunk->cells.resize(static_cast<size_t>(row.cells()), T{});
      }
      rows_.push_back(Row{chunk, chunk->cells.data(), chunk->owner});
    }
  }

  BoxRowStore(const BoxRowStore& other)
      : rows_(other.rows_), token_(FreshToken()) {
    other.token_.store(FreshToken(), std::memory_order_relaxed);
  }
  BoxRowStore& operator=(const BoxRowStore& other) {
    rows_ = other.rows_;
    token_.store(FreshToken(), std::memory_order_relaxed);
    other.token_.store(FreshToken(), std::memory_order_relaxed);
    return *this;
  }
  BoxRowStore(BoxRowStore&& other) noexcept
      : rows_(std::move(other.rows_)),
        token_(other.token_.load(std::memory_order_relaxed)) {}
  BoxRowStore& operator=(BoxRowStore&& other) noexcept {
    rows_ = std::move(other.rows_);
    token_.store(other.token_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  int64_t num_rows() const { return static_cast<int64_t>(rows_.size()); }
  /// Cells of box row `r`'s chunk.
  int64_t row_cells(int64_t r) const {
    return static_cast<int64_t>(row(r).chunk->cells.size());
  }

  /// Box row `r`'s chunk, for reading.
  const T* cells(int64_t r) const { return row(r).cells; }

  /// Box row `r`'s chunk, for writing: copied first unless this store
  /// created it.
  T* MutableCells(int64_t r) {
    Row& entry = row(r);
    const uint64_t token = token_.load(std::memory_order_relaxed);
    if (entry.owner != token) Unshare(entry, token);
    return entry.cells;
  }

  /// Cells in the chunks this store created: what it copied since it
  /// was last copied (everything, for a store built from arrays).
  int64_t UnsharedCells() const {
    const uint64_t token = token_.load(std::memory_order_relaxed);
    int64_t cells = 0;
    for (const Row& entry : rows_) {
      if (entry.owner == token) {
        cells += static_cast<int64_t>(entry.chunk->cells.size());
      }
    }
    return cells;
  }

 private:
  // Cache-line aligned, so the reference counts every Clone bumps
  // share no line with what readers load.
  struct alignas(64) Chunk {
    uint64_t owner = 0;  // token of the store that created the chunk
    std::vector<T, internal_box_rows::LineAllocator<T>> cells;
  };
  struct Row {
    std::shared_ptr<Chunk> chunk;
    T* cells;        // chunk->cells.data()
    uint64_t owner;  // chunk->owner, beside the pointer writes load
  };

  // Replaces `entry`'s chunk with a copy owned by `token`; out of line,
  // so the owned case of MutableCells stays small enough to inline.
  [[gnu::noinline]] static void Unshare(Row& entry, uint64_t token) {
    auto copy = std::make_shared<Chunk>();
    copy->owner = token;
    copy->cells = entry.chunk->cells;
    entry = Row{copy, copy->cells.data(), token};
  }

  // Tokens are never reused, so a chunk's owner names one store.
  static uint64_t FreshToken() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  const Row& row(int64_t r) const {
    RPS_DCHECK(r >= 0 && r < num_rows());
    return rows_[static_cast<size_t>(r)];
  }
  Row& row(int64_t r) {
    RPS_DCHECK(r >= 0 && r < num_rows());
    return rows_[static_cast<size_t>(r)];
  }

  std::vector<Row> rows_;
  // Atomic and mutable: copying a store renews the source's token, and
  // a const structure may be copied by several readers at once. On its
  // own cache line: a published structure's token is renewed at every
  // clone while readers load rows_ beside it.
  alignas(64) mutable std::atomic<uint64_t> token_{0};
};

}  // namespace rps

#endif  // RPS_CORE_BOX_ROW_STORE_H_
