// Cached-file conformance checks, run over every stack whose top layer
// exports the shared client half of a caching layer (src/fs/cached_file.h):
// SFS in one domain and in two, CRYPTFS, PASSFS, and COMPFS in Figure 5 and
// Figure 6 mode.
//
// Each check creates the files it needs through `root`, the layer under
// test, and drives them directly, through a client VMM mapping, and
// through an attribute-caching coherency layer stacked on top. Call each on
// a fresh stack.

#ifndef SPRINGFS_TESTS_CACHED_FILE_CONFORMANCE_H_
#define SPRINGFS_TESTS_CACHED_FILE_CONFORMANCE_H_

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>

#include "src/fs/fs_objects.h"
#include "src/layers/coherent/coherency_layer.h"
#include "src/naming/context.h"
#include "src/vmm/vmm.h"

namespace springfs::cached_file_conformance {

// Builds a fresh stack of the kind under test over the same stores; what
// the old stack synced must be visible through it.
using ReopenFn = std::function<sp<StackableFs>()>;

inline Buffer Pattern(size_t size, uint8_t seed) {
  Buffer data(size);
  for (size_t i = 0; i < size; ++i) {
    data.data()[i] = static_cast<uint8_t>(seed + i * 7 + 1);
  }
  return data;
}

inline sp<File> MakeFile(const sp<StackableFs>& root, const char* name,
                         size_t size) {
  Result<sp<File>> file = root->CreateFile(Name::Single(name),
                                           Credentials::System());
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  if (!file.ok()) {
    return nullptr;
  }
  Buffer data = Pattern(size, 3);
  EXPECT_TRUE((*file)->Write(0, data.span()).ok());
  return *file;
}

// The upper view's size and times equal the file's own.
inline void ExpectSameAttrs(const sp<File>& upper, const sp<File>& file,
                            const char* after) {
  Result<FileAttributes> seen = upper->Stat();
  Result<FileAttributes> truth = file->Stat();
  ASSERT_TRUE(seen.ok()) << seen.status().ToString();
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  EXPECT_EQ(seen->size, truth->size) << "after a direct " << after;
  EXPECT_EQ(seen->atime_ns, truth->atime_ns) << "after a direct " << after;
  EXPECT_EQ(seen->mtime_ns, truth->mtime_ns) << "after a direct " << after;
}

// An attribute-caching layer stacked on top, bound to the file by a first
// read, sees the new size and times after a direct Write, SetLength or
// SetTimes on the file: the layer invalidates the attributes the caches
// above it hold.
inline void ExpectUpperSeesDirectAttrChanges(const sp<StackableFs>& root) {
  Credentials sys = Credentials::System();
  sp<File> file = MakeFile(root, "f", 100);
  ASSERT_NE(file, nullptr);
  sp<CoherencyLayer> upper = CoherencyLayer::Create(Domain::Create("upper"));
  ASSERT_TRUE(upper->StackOn(root).ok());
  Result<sp<File>> view = ResolveAs<File>(upper, "f", sys);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  Buffer probe(10);
  ASSERT_TRUE((*view)->Read(0, probe.mutable_span()).ok());
  ASSERT_EQ((*view)->Stat()->size, 100u);

  Buffer big = Pattern(5000, 9);
  ASSERT_TRUE(file->Write(0, big.span()).ok());
  ExpectSameAttrs(*view, file, "Write");
  EXPECT_EQ((*view)->Stat()->size, 5000u);
  ASSERT_TRUE(file->SetLength(7).ok());
  ExpectSameAttrs(*view, file, "SetLength");
  EXPECT_EQ((*view)->Stat()->size, 7u);
  ASSERT_TRUE(file->SetTimes(1111, 2222).ok());
  ExpectSameAttrs(*view, file, "SetTimes");
  EXPECT_EQ((*view)->Stat()->mtime_ns, 2222u);
}

// A truncate zeroes the tail of the page holding the new EOF in a client
// that has the page mapped: extending again reads zeros past the cut,
// through the mapping and through the file.
inline void ExpectTruncateZeroesMappedTail(const sp<StackableFs>& root) {
  sp<File> file = MakeFile(root, "t", 3000);
  ASSERT_NE(file, nullptr);
  sp<Vmm> vmm = Vmm::Create(Domain::Create("client"), "vmm");
  Result<sp<MappedRegion>> region = vmm->Map(file, AccessRights::kReadWrite);
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  Buffer before(3000);
  ASSERT_TRUE((*region)->Read(0, before.mutable_span()).ok());
  ASSERT_EQ(before, Pattern(3000, 3));

  ASSERT_TRUE(file->SetLength(100).ok());
  ASSERT_TRUE(file->SetLength(3000).ok());
  Buffer expect = Pattern(3000, 3);
  std::memset(expect.data() + 100, 0, 2900);
  Buffer via_region(3000);
  ASSERT_TRUE((*region)->Read(0, via_region.mutable_span()).ok());
  EXPECT_EQ(via_region, expect) << "through the mapping";
  Buffer via_file(3000);
  ASSERT_EQ(*file->Read(0, via_file.mutable_span()), 3000u);
  EXPECT_EQ(via_file, expect) << "through the file";
}

// A page dirtied through a client mapping is recalled by SyncFile, stored
// below, and read back through a fresh stack over the same stores.
inline void ExpectDirtyMappedPageSurvivesSync(const sp<StackableFs>& root,
                                              const ReopenFn& reopen) {
  sp<File> file = MakeFile(root, "m", 2 * kPageSize);
  ASSERT_NE(file, nullptr);
  ASSERT_TRUE(file->SyncFile().ok());
  sp<Vmm> vmm = Vmm::Create(Domain::Create("client"), "vmm");
  Result<sp<MappedRegion>> region = vmm->Map(file, AccessRights::kReadWrite);
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  Buffer dirty(std::string("MAPPED-DIRTY"));
  ASSERT_TRUE((*region)->Write(kPageSize + 100, dirty.span()).ok());
  ASSERT_TRUE(file->SyncFile().ok());

  sp<StackableFs> fresh = reopen();
  ASSERT_NE(fresh, nullptr);
  Result<sp<File>> again = ResolveAs<File>(fresh, "m", Credentials::System());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->Stat()->size, 2 * kPageSize);
  Buffer out(dirty.size());
  ASSERT_EQ(*(*again)->Read(kPageSize + 100, out.mutable_span()), out.size());
  EXPECT_EQ(out, dirty);
  Buffer head(100);
  ASSERT_EQ(*(*again)->Read(0, head.mutable_span()), head.size());
  EXPECT_EQ(head, Buffer(Pattern(2 * kPageSize, 3).subspan(0, 100)));
}

// Attributes set with no read or write of the file (so the layer never
// bound it below) are stored by SyncFile and read back through a fresh
// stack over the same stores.
inline void ExpectAttrsSetWithoutIoSurviveSync(const sp<StackableFs>& root,
                                               const ReopenFn& reopen) {
  Result<sp<File>> file =
      root->CreateFile(Name::Single("a"), Credentials::System());
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_TRUE((*file)->SetLength(3000).ok());
  ASSERT_TRUE((*file)->SetTimes(111, 222).ok());
  ASSERT_TRUE((*file)->SyncFile().ok());

  sp<StackableFs> fresh = reopen();
  ASSERT_NE(fresh, nullptr);
  Result<sp<File>> again = ResolveAs<File>(fresh, "a", Credentials::System());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  Result<FileAttributes> attrs = (*again)->Stat();
  ASSERT_TRUE(attrs.ok()) << attrs.status().ToString();
  EXPECT_EQ(attrs->size, 3000u);
  EXPECT_EQ(attrs->atime_ns, 111u);
  EXPECT_EQ(attrs->mtime_ns, 222u);
}

// A direct Read recalls the dirty pages a client holds and folds them in.
inline void ExpectDirectReadRecallsMappedWrites(const sp<StackableFs>& root) {
  sp<File> file = MakeFile(root, "r", kPageSize);
  ASSERT_NE(file, nullptr);
  sp<Vmm> vmm = Vmm::Create(Domain::Create("client"), "vmm");
  Result<sp<MappedRegion>> region = vmm->Map(file, AccessRights::kReadWrite);
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  Buffer mapped(std::string("MAPPED"));
  ASSERT_TRUE((*region)->Write(10, mapped.span()).ok());
  Buffer out(mapped.size());
  ASSERT_EQ(*file->Read(10, out.mutable_span()), out.size());
  EXPECT_EQ(out, mapped);
  Buffer around(4);
  ASSERT_EQ(*file->Read(6, around.mutable_span()), around.size());
  EXPECT_EQ(around, Buffer(Pattern(kPageSize, 3).subspan(6, 4)));
}

}  // namespace springfs::cached_file_conformance

#endif  // SPRINGFS_TESTS_CACHED_FILE_CONFORMANCE_H_
