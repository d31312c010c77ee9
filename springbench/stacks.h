// Assembly of the benchmark's stacks from the library's public factories,
// with or without the measuring wrappers of tracing.h.

#ifndef SPRINGBENCH_STACKS_H_
#define SPRINGBENCH_STACKS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/blockdev/decorators.h"
#include "src/layers/coherent/coherency_layer.h"
#include "src/layers/compfs/comp_layer.h"
#include "src/layers/dfs/dfs_client.h"
#include "src/layers/dfs/dfs_server.h"
#include "src/layers/disklayer/disk_layer.h"
#include "src/net/network.h"
#include "src/posix/posix_shim.h"
#include "src/vmm/vmm.h"
#include "tracing.h"
#include "workload.h"

namespace springbench {

// Door-call cost charged per cross-domain invocation (virtual time).
inline constexpr uint64_t kCrossCallNs = 500;
// One-way latency of the remote stack's link (virtual time).
inline constexpr uint64_t kLinkLatencyNs = 100'000;

// The measuring wrappers of a traced stack.
struct Probes {
  explicit Probes(springfs::Clock* base)
      : wire_clock(base), door_clock(base),
        tracer(1'000'000), transport(kCrossCallNs, &door_clock, &tracer),
        posix(&tracer, SeamId::kPosix), coh_disk(&tracer, SeamId::kCohDisk),
        dfs_comp(&tracer, SeamId::kDfsComp),
        comp_sfs(&tracer, SeamId::kCompSfs) {}

  SeamClock wire_clock;
  SeamClock door_clock;
  Tracer tracer;
  TimingTransport transport;
  Seam posix;
  Seam coh_disk;
  Seam dfs_comp;
  Seam comp_sfs;
  std::unique_ptr<CountingBlockDevice> counting;
};

// One assembled stack. The destructor releases the layers (and the seams'
// references to them) first, so a mounted UFS unmounts while the devices
// and clocks it uses still exist.
class Stack {
 public:
  // Builds the stack for `spec` over a fresh, formatted device.
  static springfs::Result<std::unique_ptr<Stack>> Build(
      const WorkloadSpec& spec, bool traced);

  ~Stack();

  // Pushes the SFS to the device (SyncFs), then drops every layer
  // reference so the device can be checked and remounted. Layers above the
  // SFS must have synced their files first (COMPFS SyncFs compacts, which
  // deadlocks in Figure 6 mode, so the remote stack syncs file by file).
  springfs::Status SyncAndRelease();

  // Offline fsck of the device, then a fresh mount (for the remote stack a
  // fresh COMPFS over it) whose root context is returned for reading back.
  springfs::Result<sp<springfs::Context>> RemountForCheck();

  // Whether the original disk layer was still referenced after
  // SyncAndRelease, so its UFS stayed mounted. The library's stacked
  // coherency layer and the objects it hands out reference each other, so
  // today it always is; the check reads the device SyncFs left behind.
  bool disk_outlived_release() const { return disk_outlived_release_; }

  springfs::FakeClock& clock() { return clock_; }
  Probes* probes() { return probes_.get(); }
  springfs::BlockDevice* device() { return device_; }
  // Simulated time the device has charged so far.
  uint64_t device_sim_ns() const { return latency_device_->total_latency_ns(); }

  // What the generator drives.
  springfs::posix::Process& process() { return *process_; }
  springfs::posix::Process* writer() { return writer_.get(); }  // c2
  const sp<springfs::Context>& client_root() const { return client_root_; }
  const sp<springfs::Vmm>& vmm() const { return vmm_; }
  const sp<springfs::Domain>& client_domain() const { return client_domain_; }
  const sp<springfs::Domain>& writer_domain() const { return writer_domain_; }

  const sp<springfs::dfs::DfsServer>& server() const { return server_; }
  // The file system files are seeded through (server-side for remote).
  const sp<springfs::StackableFs>& seed_root() const { return seed_root_; }

 private:
  explicit Stack(const WorkloadSpec& spec) : spec_(spec) {}

  void ReleaseLayers();

  springfs::Status BuildSfs(springfs::Clock* clock, springfs::Transport* t);
  springfs::Status BuildRemote(springfs::Clock* wire_clock,
                               springfs::Transport* t);
  sp<springfs::Domain> NewDomain(const std::string& name,
                                 springfs::Transport* t);

  WorkloadSpec spec_;
  bool disk_outlived_release_ = false;
  springfs::FakeClock clock_;
  std::unique_ptr<Probes> probes_;
  std::unique_ptr<springfs::LatencyBlockDevice> latency_device_;
  springfs::BlockDevice* device_ = nullptr;
  springfs::SpinTransport spin_{kCrossCallNs, &clock_};
  std::unique_ptr<springfs::net::Network> network_;

  std::vector<sp<springfs::Domain>> domains_;
  sp<springfs::DiskLayer> disk_;
  sp<springfs::CoherencyLayer> coherency_;
  sp<springfs::CompLayer> compfs_;
  sp<springfs::dfs::DfsServer> server_;
  sp<springfs::dfs::DfsClient> c1_;
  sp<springfs::dfs::DfsClient> c2_;
  sp<springfs::StackableFs> seed_root_;
  sp<springfs::Context> client_root_;
  sp<springfs::Domain> client_domain_;
  sp<springfs::Domain> writer_domain_;
  sp<springfs::Vmm> vmm_;
  std::unique_ptr<springfs::posix::Process> process_;
  std::unique_ptr<springfs::posix::Process> writer_;
};

}  // namespace springbench

#endif  // SPRINGBENCH_STACKS_H_
