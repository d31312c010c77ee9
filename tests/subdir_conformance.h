// Sub-directory conformance checks shared by the local-stack suite
// (fs_framework_test) and the DFS/CFS suite (dfs_test).
//
// A held directory context "d" of a layer must answer every naming op the
// way the layer's root answers it with "d/" prefixed: the same object type
// for a resolve, the same hidden shadow files in a listing, the same fresh
// file after unbind and re-create, and the same status for a bind of the
// layer's own file. A layer with shadow files refuses their names through
// "d" as through the root. Each check builds "d" (and what it needs below it)
// itself, so call each on a fresh stack.

#ifndef SPRINGFS_TESTS_SUBDIR_CONFORMANCE_H_
#define SPRINGFS_TESTS_SUBDIR_CONFORMANCE_H_

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <typeinfo>
#include <vector>

#include "src/fs/fs_objects.h"
#include "src/fs/xattr.h"
#include "src/naming/context.h"

namespace springfs::subdir_conformance {

// Creates a regular file at a root-relative name of the stack under test.
using CreateFn = std::function<Result<sp<File>>(const Name&)>;

inline Name N(std::string_view path) { return *Name::Parse(path); }

inline std::vector<std::string> Names(
    const Result<std::vector<BindingInfo>>& list) {
  std::vector<std::string> names;
  if (list.ok()) {
    for (const BindingInfo& entry : *list) {
      names.push_back(entry.name);
    }
  }
  return names;
}

// The file's size, or ~0 when Stat fails.
inline uint64_t SizeOf(const sp<File>& file) {
  Result<FileAttributes> attrs = file->Stat();
  EXPECT_TRUE(attrs.ok()) << attrs.status().ToString();
  return attrs.ok() ? attrs->size : ~uint64_t{0};
}

// Creates "d" through the root and returns its context as the root
// resolves it.
inline sp<Context> MakeDir(const sp<Context>& root) {
  Credentials sys = Credentials::System();
  Result<sp<Context>> created = root->CreateContext(N("d"), sys);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  Result<sp<Object>> resolved = root->Resolve(N("d"), sys);
  EXPECT_TRUE(resolved.ok()) << resolved.status().ToString();
  if (!resolved.ok()) {
    return nullptr;
  }
  sp<Context> dir = narrow<Context>(*resolved);
  EXPECT_NE(dir, nullptr) << "'d' does not narrow to a context";
  if (created.ok() && dir) {
    EXPECT_EQ(typeid(**created), typeid(*dir))
        << "CreateContext and Resolve hand out different context types";
  }
  return dir;
}

// Writes some bytes (and an attribute, where the file has attributes) so
// that every layer materializes its per-file state and shadow files.
inline void Touch(const sp<File>& file) {
  Buffer data(std::string("twelve bytes"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  if (sp<XattrFile> xfile = narrow<XattrFile>(file)) {
    Buffer value(std::string("v"));
    ASSERT_TRUE(xfile->SetXattr("user.tag", value.span()).ok());
  }
  ASSERT_TRUE(file->SyncFile().ok());
}

// Resolve("f") through "d" narrows to the type Resolve("d/f") gives at the
// root, and reaches the same bytes.
inline void ExpectResolveMatchesRoot(const sp<Context>& root,
                                     const CreateFn& create) {
  Credentials sys = Credentials::System();
  sp<Context> dir = MakeDir(root);
  ASSERT_NE(dir, nullptr);
  Result<sp<File>> file = create(N("d/f"));
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  Touch(*file);

  Result<sp<Object>> via_root = root->Resolve(N("d/f"), sys);
  Result<sp<Object>> via_dir = dir->Resolve(N("f"), sys);
  ASSERT_TRUE(via_root.ok()) << via_root.status().ToString();
  ASSERT_TRUE(via_dir.ok()) << via_dir.status().ToString();
  EXPECT_EQ(typeid(**via_root), typeid(**via_dir))
      << "root: " << typeid(**via_root).name()
      << " dir: " << typeid(**via_dir).name();
  sp<File> dir_file = narrow<File>(*via_dir);
  ASSERT_NE(dir_file, nullptr);
  EXPECT_EQ(SizeOf(dir_file), 12u);
}

// List through "d" hides the layer's shadow files, as List at the root does.
inline void ExpectListMatchesRoot(const sp<Context>& root,
                                  const CreateFn& create) {
  Credentials sys = Credentials::System();
  sp<Context> dir = MakeDir(root);
  ASSERT_NE(dir, nullptr);
  for (const char* path : {"f", "d/f"}) {
    Result<sp<File>> file = create(N(path));
    ASSERT_TRUE(file.ok()) << path << ": " << file.status().ToString();
    Touch(*file);
  }
  EXPECT_EQ(Names(root->List(sys)), (std::vector<std::string>{"d", "f"}));
  EXPECT_EQ(Names(dir->List(sys)), (std::vector<std::string>{"f"}));
}

// Unbinding "f" and creating it again gives a fresh file (size 0, no
// attributes) through "d" exactly as through the root, also after the
// layer syncs whatever it still caches.
inline void ExpectUnbindRecreateMatchesRoot(const sp<Context>& root,
                                            const CreateFn& create) {
  Credentials sys = Credentials::System();
  sp<Context> dir = MakeDir(root);
  ASSERT_NE(dir, nullptr);
  struct Case {
    sp<Context> ctx;
    const char* full;
  };
  for (const Case& c : {Case{root, "f"}, Case{dir, "d/f"}}) {
    SCOPED_TRACE(c.full);
    Result<sp<File>> file = create(N(c.full));
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    Touch(*file);
    ASSERT_TRUE(c.ctx->Unbind(N("f"), sys).ok());
    EXPECT_EQ(c.ctx->Resolve(N("f"), sys).code(), ErrorCode::kNotFound);

    Result<sp<File>> again = create(N(c.full));
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(SizeOf(*again), 0u);
    if (sp<XattrFile> xfile = narrow<XattrFile>(*again)) {
      EXPECT_TRUE(xfile->ListXattrs()->empty());
    }
    if (sp<Fs> fs = narrow<Fs>(root)) {
      ASSERT_TRUE(fs->SyncFs().ok());
    }
    Result<sp<File>> fresh = ResolveAs<File>(c.ctx, "f", sys);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(SizeOf(*fresh), 0u);
    if (sp<XattrFile> xfile = narrow<XattrFile>(*fresh)) {
      EXPECT_TRUE(xfile->ListXattrs()->empty());
    }
  }
}

// Binding the layer's own file under a new name returns the same status
// through "d" as through the root, and a successful bind is a link to the
// same bytes.
inline void ExpectBindMatchesRoot(const sp<Context>& root,
                                  const CreateFn& create) {
  Credentials sys = Credentials::System();
  sp<Context> dir = MakeDir(root);
  ASSERT_NE(dir, nullptr);
  Result<sp<File>> file = create(N("d/f"));
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  Touch(*file);
  sp<File> own = *ResolveAs<File>(root, "d/f", sys);

  Status via_root = root->Bind(N("d/g"), own, sys);
  Status via_dir = dir->Bind(N("h"), own, sys);
  EXPECT_EQ(via_root.code(), via_dir.code())
      << "root: " << via_root.ToString() << " dir: " << via_dir.ToString();
  if (via_dir.ok()) {
    Result<sp<File>> linked = ResolveAs<File>(root, "d/h", sys);
    ASSERT_TRUE(linked.ok()) << linked.status().ToString();
    EXPECT_EQ(SizeOf(*linked), 12u);
  }
}

// A shadow name (the layer's per-file state below, `f` + `suffix`) is
// refused by every op through the root and through "d": Resolve and
// Unbind find nothing there, Bind, CreateContext and CreateFile make
// nothing. `f` keeps its bytes and attributes, also in a new stack over the
// same storage (`reopen`) after the layer syncs.
inline void ExpectShadowNamesRefused(
    const sp<Context>& root, const CreateFn& create, const std::string& suffix,
    const std::function<sp<Context>()>& reopen) {
  Credentials sys = Credentials::System();
  sp<Context> dir = MakeDir(root);
  ASSERT_NE(dir, nullptr);
  Buffer data(5000);
  for (size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  Buffer value(std::string("v"));
  // The bytes and attribute `path` holds through `ctx`.
  auto expect_intact = [&](const sp<Context>& ctx, std::string_view path) {
    Result<sp<File>> file = ResolveAs<File>(ctx, path, sys);
    ASSERT_TRUE(file.ok()) << path << ": " << file.status().ToString();
    EXPECT_EQ(SizeOf(*file), data.size()) << path;
    Buffer out(data.size());
    ASSERT_TRUE((*file)->Read(0, out.mutable_span()).ok());
    EXPECT_EQ(out, data) << path;
    if (sp<XattrFile> xfile = narrow<XattrFile>(*file)) {
      Result<Buffer> got = xfile->GetXattr("user.tag");
      ASSERT_TRUE(got.ok()) << path << ": " << got.status().ToString();
      EXPECT_EQ(*got, value) << path;
    }
  };
  struct Case {
    sp<Context> ctx;
    std::string prefix;
  };
  for (const Case& c : {Case{root, ""}, Case{dir, "d/"}}) {
    SCOPED_TRACE(c.prefix + "f");
    Result<sp<File>> file = create(N(c.prefix + "f"));
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_TRUE((*file)->Write(0, data.span()).ok());
    if (sp<XattrFile> xfile = narrow<XattrFile>(*file)) {
      ASSERT_TRUE(xfile->SetXattr("user.tag", value.span()).ok());
    }
    ASSERT_TRUE((*file)->SyncFile().ok());

    EXPECT_EQ(c.ctx->Resolve(N("f" + suffix), sys).code(),
              ErrorCode::kNotFound);
    EXPECT_EQ(c.ctx->Unbind(N("f" + suffix), sys).code(),
              ErrorCode::kNotFound);
    EXPECT_EQ(c.ctx->Bind(N("g" + suffix), *file, sys).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(c.ctx->CreateContext(N("h" + suffix), sys).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(create(N(c.prefix + "h" + suffix)).code(),
              ErrorCode::kInvalidArgument);
    expect_intact(c.ctx, "f");
  }
  if (sp<Fs> fs = narrow<Fs>(root)) {
    ASSERT_TRUE(fs->SyncFs().ok());
  }
  sp<Context> fresh = reopen();
  ASSERT_NE(fresh, nullptr);
  expect_intact(fresh, "f");
  expect_intact(fresh, "d/f");
}

}  // namespace springfs::subdir_conformance

#endif  // SPRINGFS_TESTS_SUBDIR_CONFORMANCE_H_
