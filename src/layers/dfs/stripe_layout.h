// Stripe placement for the striped DFS (DESIGN.md §14, §15): the one
// statement of where each byte of a striped file lives. The metadata
// server (map building, rebuild) and the striped client (fan-out, recall
// translation) both derive every placement decision from it.
//
// RAID-0 with rotated replicas: stripe s covers logical bytes
// [s * stripe_size, (s + 1) * stripe_size). Its primary copy lives on
// target s % width, at local offset (s / width) * stripe_size of that
// target's lane-0 object. Replica r lives on target (s % width + r) % width,
// in that target's lane-r object, at the SAME local offset. So the lane-r
// object on target t is byte-identical to the lane-0 object on target
// PrimaryOf(t, r), which is what makes rebuild a whole-object copy.

#ifndef SPRINGFS_LAYERS_DFS_STRIPE_LAYOUT_H_
#define SPRINGFS_LAYERS_DFS_STRIPE_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace springfs::dfs {

// One stripe extent of a logical request: the unit of fan-out (one
// kPageInRange / kWrite / kPageOut submission).
struct StripeExtent {
  size_t target = 0;          // the primary target (index into the map)
  uint64_t logical_offset = 0;
  uint64_t local_offset = 0;  // offset within the target's stripe object
  uint64_t size = 0;
};

class StripeLayout {
 public:
  // `replicas` is clamped to [1, width].
  StripeLayout(uint64_t stripe_size, size_t width, uint32_t replicas = 1);

  uint64_t stripe_size() const { return stripe_size_; }
  size_t width() const { return width_; }
  uint32_t replicas() const { return replicas_; }

  // Splits [offset, offset + size) into per-stripe-unit extents. Empty
  // when the request or the geometry is empty.
  std::vector<StripeExtent> Extents(uint64_t offset, uint64_t size) const;

  // Bytes of a logical `length`-byte file held by the lane-`lane` object
  // on `target`.
  uint64_t LocalLength(size_t target, uint64_t length, size_t lane = 0) const;

  // The target holding replica lane `lane` of the stripes whose primary is
  // `primary`.
  size_t ReplicaTarget(size_t primary, size_t lane) const;

  // The inverse: the primary target whose stripes the lane-`lane` object
  // on `target` mirrors.
  size_t PrimaryOf(size_t target, size_t lane) const;

  // The logical stripe stored as local stripe `local_stripe` of the
  // lane-`lane` object on `target` (the recall translation).
  uint64_t LogicalStripe(size_t target, size_t lane,
                         uint64_t local_stripe) const;

  // Durable name of a file's stripe objects, "stripe-<fnv1a64(path)>":
  // stable across metadata- and data-server restarts, and the same on
  // every data server.
  static std::string ObjectName(const std::string& path);

  // Lane `lane`'s object: the bare object name for lane 0 (so single-lane
  // clusters keep their names), "<object>-r<lane>" above.
  static std::string LaneObjectName(const std::string& object_name,
                                    size_t lane);

 private:
  uint64_t stripe_size_;
  size_t width_;
  uint32_t replicas_;
};

}  // namespace springfs::dfs

#endif  // SPRINGFS_LAYERS_DFS_STRIPE_LAYOUT_H_
