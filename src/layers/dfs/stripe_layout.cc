#include "src/layers/dfs/stripe_layout.h"

#include <algorithm>
#include <cstdio>

#include "src/support/bytes.h"

namespace springfs::dfs {

StripeLayout::StripeLayout(uint64_t stripe_size, size_t width,
                           uint32_t replicas)
    : stripe_size_(stripe_size), width_(width),
      replicas_(static_cast<uint32_t>(
          std::min<size_t>(std::max<uint32_t>(replicas, 1), width))) {}

std::vector<StripeExtent> StripeLayout::Extents(uint64_t offset,
                                                uint64_t size) const {
  std::vector<StripeExtent> out;
  if (size == 0 || stripe_size_ == 0 || width_ == 0) {
    return out;
  }
  uint64_t end = offset + size;
  for (uint64_t s = offset / stripe_size_; s * stripe_size_ < end; ++s) {
    uint64_t log_start = std::max(offset, s * stripe_size_);
    uint64_t log_end = std::min(end, (s + 1) * stripe_size_);
    StripeExtent ext;
    ext.target = static_cast<size_t>(s % width_);
    ext.logical_offset = log_start;
    ext.local_offset =
        (s / width_) * stripe_size_ + (log_start - s * stripe_size_);
    ext.size = log_end - log_start;
    out.push_back(ext);
  }
  return out;
}

uint64_t StripeLayout::LocalLength(size_t target, uint64_t length,
                                   size_t lane) const {
  if (length == 0 || stripe_size_ == 0 || width_ == 0) {
    return 0;
  }
  size_t primary = PrimaryOf(target, lane);
  uint64_t s_last = (length - 1) / stripe_size_;
  if (s_last < primary) {
    return 0;  // the file ends before this object's first stripe
  }
  // Highest stripe owned by `primary` at or below s_last.
  uint64_t s_own = s_last - ((s_last - primary) % width_);
  uint64_t stripe_end = std::min(length, (s_own + 1) * stripe_size_);
  return (s_own / width_) * stripe_size_ + (stripe_end - s_own * stripe_size_);
}

size_t StripeLayout::ReplicaTarget(size_t primary, size_t lane) const {
  return (primary + lane) % width_;
}

size_t StripeLayout::PrimaryOf(size_t target, size_t lane) const {
  return (target + width_ - lane % width_) % width_;
}

uint64_t StripeLayout::LogicalStripe(size_t target, size_t lane,
                                     uint64_t local_stripe) const {
  return local_stripe * width_ + PrimaryOf(target, lane);
}

std::string StripeLayout::ObjectName(const std::string& path) {
  uint64_t h = Fnv1a64(
      ByteSpan(reinterpret_cast<const uint8_t*>(path.data()), path.size()));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "stripe-%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string StripeLayout::LaneObjectName(const std::string& object_name,
                                         size_t lane) {
  return lane == 0 ? object_name : object_name + "-r" + std::to_string(lane);
}

}  // namespace springfs::dfs
