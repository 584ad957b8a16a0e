// Disk-resident relative prefix sums (Section 4.4).
//
// The RP array lives on pages behind a buffer pool; the overlay is
// kept either in main memory (the configuration the paper argues for:
// overlay boxes need k^d - (k-1)^d cells, under 2% of the covered RP
// region at k=100, d=2) or on its own page range for the
// both-on-disk comparison. All query/update algorithms are identical
// to the in-memory RelativePrefixSum; only cell access is paged, and
// every page access is counted.

#ifndef RPS_STORAGE_PAGED_RPS_H_
#define RPS_STORAGE_PAGED_RPS_H_

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "core/relative_prefix_sum.h"
#include "storage/paged_array.h"

namespace rps {

/// Magic bytes of the PagedRps metadata page (page 0).
inline constexpr char kPagedRpsMagic[8] = {'R', 'P', 'S', 'P',
                                           'A', 'G', 'E', 'D'};

template <typename T>
class PagedRps {
 public:
  struct Options {
    /// Overlay box sizes; empty -> RecommendedBoxSize(shape).
    CellIndex box_size;
    /// RP page layout. kBoxClustered aligns each overlay box's RP
    /// region to page boundaries, the paper's preferred setting.
    PageLayout rp_layout = PageLayout::kBoxClustered;
    /// Keep overlay values on pages too (Section 4.4's second
    /// configuration) instead of in main memory.
    bool overlay_on_disk = false;
    int64_t page_size = kDefaultPageSize;
    int64_t pool_frames = 64;
  };

  /// Builds the structure from `source` into fresh pages on `pager`
  /// (owned). Page 0 holds metadata; the RP pages follow, then an
  /// overlay page region (live in overlay_on_disk mode, otherwise the
  /// persistence area written by Persist()). The build computes RP
  /// and overlay in memory first, then bulk-loads.
  static Result<std::unique_ptr<PagedRps>> Build(const NdArray<T>& source,
                                                 std::unique_ptr<Pager> pager,
                                                 Options options) {
    if (options.box_size.dims() == 0) {
      options.box_size = RecommendedBoxSize(source.shape());
    }
    if (pager->page_size() < kMinPageSize) {
      return Status::InvalidArgument("PagedRps needs pages >= 256 bytes");
    }
    auto paged = std::unique_ptr<PagedRps>(
        new PagedRps(std::move(pager), source.shape(), options));
    RPS_RETURN_IF_ERROR(paged->pool_.pager()->Grow(1));  // metadata page

    // In-memory build, then bulk load.
    RelativePrefixSum<T> built(source, options.box_size);
    RPS_RETURN_IF_ERROR(paged->AttachArrays());
    RPS_RETURN_IF_ERROR(paged->rp_pages_->LoadFrom(built.MaterializeRp()));

    const std::vector<T> overlay = built.MaterializeOverlay();
    const auto num_slots = static_cast<int64_t>(overlay.size());
    if (options.overlay_on_disk) {
      for (int64_t slot = 0; slot < num_slots; ++slot) {
        RPS_RETURN_IF_ERROR(paged->overlay_pages_->Set(
            CellIndex{slot}, overlay[static_cast<size_t>(slot)]));
      }
      RPS_RETURN_IF_ERROR(paged->pool_.FlushAll());
    } else {
      paged->overlay_ram_ = std::make_unique<Overlay<T>>(
          source.shape(), options.box_size);
      for (int64_t slot = 0; slot < num_slots; ++slot) {
        paged->overlay_ram_->at_slot(slot) = overlay[static_cast<size_t>(slot)];
      }
    }
    RPS_RETURN_IF_ERROR(paged->Persist());
    paged->pool_.ResetStats();
    paged->pool_.pager()->ResetStats();
    return paged;
  }

  /// Reopens a structure previously written by Build() + Persist()
  /// from the pages on `pager` (owned).
  static Result<std::unique_ptr<PagedRps>> OpenExisting(
      std::unique_ptr<Pager> pager, int64_t pool_frames = 64) {
    if (pager->num_pages() < 1) {
      return Status::IoError("no metadata page");
    }
    // Read metadata straight from the pager (no pool yet).
    std::vector<std::byte> meta(static_cast<size_t>(pager->page_size()));
    RPS_RETURN_IF_ERROR(pager->ReadPage(0, meta.data()));
    size_t at = 0;
    auto read_bytes = [&](void* out, size_t size) {
      std::memcpy(out, meta.data() + at, size);
      at += size;
    };
    char magic[8];
    read_bytes(magic, 8);
    if (std::memcmp(magic, kPagedRpsMagic, 8) != 0) {
      return Status::IoError("page 0 is not PagedRps metadata");
    }
    uint32_t value_size;
    read_bytes(&value_size, sizeof(value_size));
    if (value_size != sizeof(T)) {
      return Status::IoError("paged value size mismatch");
    }
    int32_t dims;
    read_bytes(&dims, sizeof(dims));
    if (dims < 1 || dims > kMaxDims) {
      return Status::IoError("corrupt paged metadata (dims)");
    }
    std::vector<int64_t> extents(static_cast<size_t>(dims));
    for (auto& e : extents) {
      read_bytes(&e, sizeof(e));
      if (e < 1) return Status::IoError("corrupt paged metadata (extent)");
    }
    const Shape shape = Shape::FromExtents(extents);
    Options options;
    options.box_size = CellIndex::Filled(dims, 1);
    for (int j = 0; j < dims; ++j) {
      int64_t k;
      read_bytes(&k, sizeof(k));
      if (k < 1 || k > shape.extent(j)) {
        return Status::IoError("corrupt paged metadata (box)");
      }
      options.box_size[j] = k;
    }
    uint8_t layout;
    uint8_t overlay_on_disk;
    read_bytes(&layout, 1);
    read_bytes(&overlay_on_disk, 1);
    options.rp_layout =
        layout == 0 ? PageLayout::kLinear : PageLayout::kBoxClustered;
    options.overlay_on_disk = overlay_on_disk != 0;
    options.page_size = pager->page_size();
    options.pool_frames = pool_frames;

    auto paged = std::unique_ptr<PagedRps>(
        new PagedRps(std::move(pager), shape, options));
    RPS_RETURN_IF_ERROR(paged->AttachArrays());
    if (!options.overlay_on_disk) {
      // Load the persisted overlay region into RAM.
      paged->overlay_ram_ =
          std::make_unique<Overlay<T>>(shape, options.box_size);
      const int64_t slots = paged->geometry_.total_stored_cells();
      for (int64_t slot = 0; slot < slots; ++slot) {
        RPS_ASSIGN_OR_RETURN(const T value,
                             paged->overlay_pages_->Get(CellIndex{slot}));
        paged->overlay_ram_->at_slot(slot) = value;
      }
    }
    paged->pool_.ResetStats();
    paged->pool_.pager()->ResetStats();
    return paged;
  }

  /// Writes metadata and (in overlay-in-RAM mode) the overlay values
  /// to their page region, then flushes every dirty page, making the
  /// pager contents sufficient for OpenExisting().
  Status Persist() {
    // Metadata page.
    std::vector<std::byte> meta(
        static_cast<size_t>(pager_->page_size()), std::byte{0});
    size_t at = 0;
    auto write_bytes = [&](const void* data, size_t size) {
      std::memcpy(meta.data() + at, data, size);
      at += size;
    };
    write_bytes(kPagedRpsMagic, 8);
    const uint32_t value_size = sizeof(T);
    write_bytes(&value_size, sizeof(value_size));
    const Shape& shape = geometry_.cube_shape();
    const int32_t dims = shape.dims();
    write_bytes(&dims, sizeof(dims));
    for (int j = 0; j < dims; ++j) {
      const int64_t extent = shape.extent(j);
      write_bytes(&extent, sizeof(extent));
    }
    for (int j = 0; j < dims; ++j) {
      const int64_t k = geometry_.box_size()[j];
      write_bytes(&k, sizeof(k));
    }
    const uint8_t layout =
        rp_layout_ == PageLayout::kLinear ? uint8_t{0} : uint8_t{1};
    const uint8_t overlay_on_disk_flag =
        overlay_ram_ == nullptr ? uint8_t{1} : uint8_t{0};
    write_bytes(&layout, 1);
    write_bytes(&overlay_on_disk_flag, 1);
    RPS_RETURN_IF_ERROR(pager_->WritePage(0, meta.data()));

    if (overlay_ram_ != nullptr) {
      for (int64_t slot = 0; slot < overlay_ram_->num_values(); ++slot) {
        RPS_RETURN_IF_ERROR(overlay_pages_->Set(
            CellIndex{slot}, overlay_ram_->at_slot(slot)));
      }
    }
    return pool_.FlushAll();
  }

  const Shape& shape() const { return geometry_.cube_shape(); }
  const OverlayGeometry& geometry() const { return geometry_; }
  bool overlay_on_disk() const { return overlay_ram_ == nullptr; }

  /// P[t] assembled from the cells RelativePrefixSum::PrefixSum reads
  /// (OverlayGeometry::Corner), with RP (and optionally overlay) reads
  /// going through the pool.
  Result<T> PrefixSum(const CellIndex& target) const {
    int64_t at[kMaxDims];
    for (int j = 0; j < target.dims(); ++j) at[j] = target[j];
    std::vector<int64_t> borders;
    const OverlayGeometry::CornerCells cells = geometry_.Corner(
        at, [&](int64_t slot) { borders.push_back(slot); });
    RPS_ASSIGN_OR_RETURN(T total, ReadOverlaySlot(cells.anchor_slot));
    RPS_ASSIGN_OR_RETURN(const T rp, rp_pages_->Get(target));
    total += rp;
    for (const int64_t slot : borders) {
      RPS_ASSIGN_OR_RETURN(const T border, ReadOverlaySlot(slot));
      total += border;
    }
    return total;
  }

  Result<T> RangeSum(const Box& range) const {
    const int d = shape().dims();
    RPS_CHECK(range.Within(shape()));
    T total{};
    CellIndex corner = CellIndex::Filled(d, 0);
    for (uint32_t mask = 0; mask < (1u << d); ++mask) {
      bool skip = false;
      int low_picks = 0;
      for (int j = 0; j < d; ++j) {
        if (mask & (1u << j)) {
          ++low_picks;
          if (range.lo()[j] == 0) {
            skip = true;
            break;
          }
          corner[j] = range.lo()[j] - 1;
        } else {
          corner[j] = range.hi()[j];
        }
      }
      if (skip) continue;
      RPS_ASSIGN_OR_RETURN(const T prefix, PrefixSum(corner));
      if (low_picks % 2 == 0) {
        total += prefix;
      } else {
        total -= prefix;
      }
    }
    return total;
  }

  /// Point update: the cells RelativePrefixSum::Add writes
  /// (OverlayGeometry::Scatter), with RP (and optionally overlay)
  /// writes going through the pool.
  Result<UpdateStats> Add(const CellIndex& cell, T delta) {
    RPS_CHECK(shape().Contains(cell));
    const int d = shape().dims();
    int64_t at[kMaxDims];
    for (int j = 0; j < d; ++j) at[j] = cell[j];
    UpdateStats stats;
    Status status;
    geometry_.Scatter(
        at,
        [&](int64_t start, int64_t len) {
          CellIndex t = shape().Delinearize(start);
          for (int64_t i = 0; i < len && status.ok(); ++i, ++t[d - 1]) {
            status = rp_pages_->Add(t, delta);
          }
          stats.primary_cells += len;
        },
        [&](int64_t slot, int64_t len) {
          for (int64_t i = 0; i < len && status.ok(); ++i) {
            status = AddOverlaySlot(slot + i, delta);
          }
          stats.aux_cells += len;
        },
        [&](int64_t box, int64_t count) {
          for (int64_t i = 0; i < count && status.ok(); ++i) {
            status = AddOverlaySlot(geometry_.AnchorSlotOfLinear(box + i),
                                    delta);
          }
          stats.aux_cells += count;
        });
    RPS_RETURN_IF_ERROR(status);
    return stats;
  }

  /// Writes back all dirty pages.
  Status Flush() { return pool_.FlushAll(); }

  /// Physical page accesses since the last reset (buffer pool misses
  /// cause reads; evictions and flushes cause writes).
  PagerStats page_io() const { return pager_->stats(); }
  BufferPoolStats pool_stats() const { return pool_.stats(); }
  void ResetCounters() {
    pager_->ResetStats();
    pool_.ResetStats();
  }

  int64_t rp_pages_per_box() const { return rp_pages_->pages_per_box(); }

 private:
  /// Room the metadata needs: 8 magic + 4 + 4 + 16*kMaxDims + 2.
  static constexpr int64_t kMinPageSize = 256;

  PagedRps(std::unique_ptr<Pager> pager, const Shape& shape,
           const Options& options)
      : pager_(std::move(pager)),
        pool_(pager_.get(), options.pool_frames),
        geometry_(shape, options.box_size),
        rp_layout_(options.rp_layout) {}

  /// Creates the RP page array (after the metadata page) and the
  /// overlay page region (after the RP pages), growing the pager.
  Status AttachArrays() {
    RPS_ASSIGN_OR_RETURN(
        rp_pages_,
        PagedArray<T>::Create(&pool_, geometry_.cube_shape(), rp_layout_,
                              geometry_.box_size(), /*base_page=*/1));
    const int64_t slots = geometry_.total_stored_cells();
    RPS_ASSIGN_OR_RETURN(
        overlay_pages_,
        PagedArray<T>::Create(&pool_, Shape{slots}, PageLayout::kLinear,
                              CellIndex{},
                              /*base_page=*/rp_pages_->end_page()));
    return Status::Ok();
  }

  Result<T> ReadOverlaySlot(int64_t slot) const {
    if (overlay_ram_ != nullptr) return overlay_ram_->at_slot(slot);
    return overlay_pages_->Get(CellIndex{slot});
  }

  Status AddOverlaySlot(int64_t slot, T delta) {
    if (overlay_ram_ != nullptr) {
      overlay_ram_->at_slot(slot) += delta;
      return Status::Ok();
    }
    return overlay_pages_->Add(CellIndex{slot}, delta);
  }

  std::unique_ptr<Pager> pager_;
  mutable BufferPool pool_;
  OverlayGeometry geometry_;
  PageLayout rp_layout_;
  std::unique_ptr<PagedArray<T>> rp_pages_;
  // Always present: live storage in overlay-on-disk mode, otherwise
  // the persistence region written by Persist().
  std::unique_ptr<PagedArray<T>> overlay_pages_;
  std::unique_ptr<Overlay<T>> overlay_ram_;  // overlay-in-RAM mode
};

}  // namespace rps

#endif  // RPS_STORAGE_PAGED_RPS_H_
