// Section 5 — per-file interposition overhead.
//
// Interposing at name-resolution time substitutes a watchdog object for
// selected files; unwatched files pass through. This bench measures:
//   * resolve cost: plain context vs interposed context (watched and
//     unwatched names),
//   * per-operation cost on the interposed file when the interposer
//     forwards the call vs implements it itself.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/layers/sfs/sfs.h"
#include "src/naming/views.h"
#include "src/support/logging.h"
#include "src/support/rng.h"

using namespace springfs;
using bench::Measurement;
using bench::TimeOp;

namespace {

// Forwarding watchdog: counts calls, delegates everything.
class ForwardingFile : public File {
 public:
  explicit ForwardingFile(sp<File> original) : original_(std::move(original)) {}

  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights access) override {
    return original_->Bind(caller, access);
  }
  Result<Offset> GetLength() override { return original_->GetLength(); }
  Status SetLength(Offset length) override {
    return original_->SetLength(length);
  }
  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    ++calls;
    return original_->Read(offset, out);
  }
  Result<size_t> Write(Offset offset, ByteSpan data) override {
    ++calls;
    return original_->Write(offset, data);
  }
  Result<FileAttributes> Stat() override {
    ++calls;
    return original_->Stat();
  }
  Status SetTimes(uint64_t a, uint64_t m) override {
    return original_->SetTimes(a, m);
  }
  Status SyncFile() override { return original_->SyncFile(); }

  uint64_t calls = 0;

 private:
  sp<File> original_;
};

}  // namespace

int main() {
  Credentials creds = Credentials::System();
  sp<Domain> domain = Domain::Create("admin");

  MemBlockDevice device(ufs::kBlockSize, 8192);
  Sfs sfs = CreateSfs(&device, SfsOptions{}).take_value();
  sp<MemContext> root = MemContext::Create(domain);
  SPRINGFS_CHECK_OK(root->Bind(Name::Single("vol"), sfs.root, creds));

  sp<StackableFs> vol = ResolveAs<StackableFs>(root, "vol", creds).take_value();
  sp<File> watched = vol->CreateFile(*Name::Parse("watched"), creds)
                         .take_value();
  vol->CreateFile(*Name::Parse("plain"), creds).take_value();
  Rng rng(3);
  Buffer page = rng.RandomBuffer(kPageSize);
  watched->Write(0, page.span()).take_value();

  // Baseline resolve cost before interposing.
  Measurement resolve_before = TimeOp(
      [&] { (void)*root->Resolve(*Name::Parse("vol/plain"), creds); }, 10000);

  auto watchdog = std::make_shared<ForwardingFile>(watched);
  sp<InterposerContext> interposer =
      InterposeOnContext(
          root, "vol",
          [&](const std::string& component,
              sp<Object> original) -> Result<sp<Object>> {
            if (component == "watched") {
              return sp<Object>(watchdog);
            }
            return original;
          },
          creds, domain)
          .take_value();

  Measurement resolve_unwatched = TimeOp(
      [&] { (void)*root->Resolve(*Name::Parse("vol/plain"), creds); }, 10000);
  Measurement resolve_watched = TimeOp(
      [&] { (void)*root->Resolve(*Name::Parse("vol/watched"), creds); },
      10000);

  // Operation cost through the watchdog vs direct.
  sp<File> via_ns =
      ResolveAs<File>(root, "vol/watched", creds).take_value();
  Buffer out(kPageSize);
  Measurement direct_read =
      TimeOp([&] { (void)*watched->Read(0, out.mutable_span()); }, 10000);
  Measurement watched_read =
      TimeOp([&] { (void)*via_ns->Read(0, out.mutable_span()); }, 10000);

  std::printf("Section 5: per-file interposition overhead (us/op)\n");
  bench::PrintRule(64);
  std::printf("resolve, no interposer        : %9.3f\n",
              resolve_before.mean_us);
  std::printf("resolve, unwatched file       : %9.3f (+%.0f%%)\n",
              resolve_unwatched.mean_us,
              100.0 * (resolve_unwatched.mean_us / resolve_before.mean_us -
                       1.0));
  std::printf("resolve, watched file         : %9.3f (+%.0f%%)\n",
              resolve_watched.mean_us,
              100.0 * (resolve_watched.mean_us / resolve_before.mean_us -
                       1.0));
  std::printf("4KB read, direct file object  : %9.3f\n", direct_read.mean_us);
  std::printf("4KB read, through watchdog    : %9.3f (+%.0f%%)\n",
              watched_read.mean_us,
              100.0 * (watched_read.mean_us / direct_read.mean_us - 1.0));
  std::printf("interposer intercepts: %llu; watchdog calls: %llu\n",
              static_cast<unsigned long long>(interposer->intercept_count()),
              static_cast<unsigned long long>(watchdog->calls));
  bench::PrintRule(64);
  std::printf("shape: interposition costs one extra resolution hop per name "
              "and one\nforwarded call per intercepted operation — "
              "negligible next to I/O\n");
  return 0;
}
