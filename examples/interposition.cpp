// Per-file interposition (paper section 5): watchdog-style semantic
// extension of individual files by name-space manipulation — resolve the
// context, unbind it, bind an interposer in its place, and selectively
// substitute objects at name-resolution time.
//
//   ./build/examples/interposition

#include <cstdio>

#include "src/layers/sfs/sfs.h"
#include "src/naming/views.h"
#include "src/support/logging.h"

using namespace springfs;

// A watchdog file: counts operations and upcases everything read from the
// original file (the section 5 "implement the operation itself, or forward
// the call to the original file object" pattern).
class ShoutingFile : public File {
 public:
  explicit ShoutingFile(sp<File> original) : original_(std::move(original)) {}

  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights access) override {
    return original_->Bind(caller, access);
  }
  Result<Offset> GetLength() override { return original_->GetLength(); }
  Status SetLength(Offset length) override {
    return original_->SetLength(length);
  }
  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    ++reads;
    Result<size_t> n = original_->Read(offset, out);
    if (n.ok()) {
      for (size_t i = 0; i < *n; ++i) {
        if (out[i] >= 'a' && out[i] <= 'z') {
          out[i] = static_cast<uint8_t>(out[i] - 'a' + 'A');
        }
      }
    }
    return n;
  }
  Result<size_t> Write(Offset offset, ByteSpan data) override {
    ++writes;
    return original_->Write(offset, data);
  }
  Result<FileAttributes> Stat() override { return original_->Stat(); }
  Status SetTimes(uint64_t a, uint64_t m) override {
    return original_->SetTimes(a, m);
  }
  Status SyncFile() override { return original_->SyncFile(); }

  int reads = 0;
  int writes = 0;

 private:
  sp<File> original_;
};

int main() {
  Credentials creds = Credentials::System();
  sp<Domain> domain = Domain::Create("admin");

  // A name space with an SFS bound under /vol.
  MemBlockDevice device(ufs::kBlockSize, 8192);
  Sfs sfs = CreateSfs(&device, SfsOptions{}).take_value();
  sp<MemContext> root = MemContext::Create(domain);
  SPRINGFS_CHECK_OK(root->Bind(Name::Single("vol"), sfs.root, creds));

  // Populate /vol with two files.
  sp<StackableFs> vol = ResolveAs<StackableFs>(root, "vol", creds).take_value();
  sp<File> watched = vol->CreateFile(*Name::Parse("watched"), creds).take_value();
  sp<File> plain = vol->CreateFile(*Name::Parse("plain"), creds).take_value();
  Buffer content(std::string("quiet lowercase text"));
  watched->Write(0, content.span()).take_value();
  plain->Write(0, content.span()).take_value();

  // Interpose on /vol: substitute a ShoutingFile for "watched" only.
  auto shouting = std::make_shared<ShoutingFile>(watched);
  InterposeOnContext(
      root, "vol",
      [&](const std::string& component,
          sp<Object> original) -> Result<sp<Object>> {
        if (component == "watched") {
          std::printf("[interposer] intercepting '%s'\n", component.c_str());
          return sp<Object>(shouting);
        }
        return original;
      },
      creds, domain)
      .take_value();

  // All naming traffic now flows through the interposer.
  sp<File> via_ns = ResolveAs<File>(root, "vol/watched", creds).take_value();
  Buffer out(content.size());
  via_ns->Read(0, out.mutable_span()).take_value();
  std::printf("watched file reads as : %s\n", out.ToString().c_str());

  sp<File> plain_ns = ResolveAs<File>(root, "vol/plain", creds).take_value();
  plain_ns->Read(0, out.mutable_span()).take_value();
  std::printf("plain file reads as   : %s\n", out.ToString().c_str());

  std::printf("watchdog counters     : %d reads, %d writes\n",
              shouting->reads, shouting->writes);
  std::printf("ok\n");
  return 0;
}
