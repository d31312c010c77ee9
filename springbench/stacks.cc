#include "stacks.h"

#include "src/ufs/checker.h"
#include "src/ufs/layout.h"

namespace springbench {

using namespace springfs;

Result<std::unique_ptr<Stack>> Stack::Build(const WorkloadSpec& spec,
                                            bool traced) {
  std::unique_ptr<Stack> stack(new Stack(spec));
  Clock* wire_clock = &stack->clock_;
  Transport* transport = &stack->spin_;
  if (traced) {
    stack->probes_ = std::make_unique<Probes>(&stack->clock_);
    wire_clock = &stack->probes_->wire_clock;
    transport = &stack->probes_->transport;
  }
  stack->latency_device_ = std::make_unique<LatencyBlockDevice>(
      std::make_unique<MemBlockDevice>(ufs::kBlockSize, spec.device_blocks),
      DiskLatencyModel{}, &stack->clock_);
  stack->device_ = stack->latency_device_.get();
  if (traced) {
    stack->probes_->counting =
        std::make_unique<CountingBlockDevice>(stack->latency_device_.get());
    stack->device_ = stack->probes_->counting.get();
  }
  RETURN_IF_ERROR(stack->BuildSfs(&stack->clock_, transport));
  if (spec.stack == StackKind::kRemote) {
    RETURN_IF_ERROR(stack->BuildRemote(wire_clock, transport));
  }
  VmmOptions vmm_options;
  vmm_options.max_pages = spec.vmm_max_pages;
  stack->vmm_ = Vmm::Create(stack->client_domain_, "client", vmm_options);
  stack->process_ = std::make_unique<posix::Process>(stack->client_root_);
  return stack;
}

// Layers first: a mounted UFS syncs to the device when released.
Stack::~Stack() { ReleaseLayers(); }

sp<Domain> Stack::NewDomain(const std::string& name, Transport* t) {
  sp<Domain> domain = Domain::Create(name, t);
  domains_.push_back(domain);
  return domain;
}

// SFS assembled by hand (paper Figure 10): the coherency layer stacked on
// the disk layer, through the coherent>disklayer seam when traced.
Status Stack::BuildSfs(Clock* clock, Transport* t) {
  sp<Domain> disk_domain = NewDomain("sfs-disk", t);
  sp<Domain> top_domain =
      spec_.two_domains ? NewDomain("sfs-coherency", t) : disk_domain;
  ASSIGN_OR_RETURN(disk_, DiskLayer::Format(disk_domain, device_, clock));
  CoherencyLayerOptions options;
  options.cache_data = spec_.coherency_caches;
  options.cache_attrs = spec_.coherency_caches;
  coherency_ = CoherencyLayer::Create(top_domain, options, clock);
  sp<StackableFs> below = disk_;
  if (probes_) {
    below = probes_->coh_disk.WrapFs(below);
  }
  RETURN_IF_ERROR(coherency_->StackOn(below));
  // A local client runs in the coherency layer's domain, so every crossing
  // counted is one between stacked layers.
  seed_root_ = coherency_;
  client_domain_ = top_domain;
  client_root_ = probes_ ? sp<Context>(probes_->posix.WrapFs(coherency_))
                         : sp<Context>(coherency_);
  return Status::Ok();
}

// Figure 9: DFS server -> COMPFS (coherent, Figure 6 mode) -> SFS, with
// two clients on their own nodes.
Status Stack::BuildRemote(Clock* wire_clock, Transport* t) {
  network_ = std::make_unique<net::Network>(wire_clock, kLinkLatencyNs);
  sp<net::Node> server_node =
      network_->AddNode("server", NewDomain("node:server", t));
  sp<net::Node> c1_node = network_->AddNode("c1", NewDomain("node:c1", t));
  sp<net::Node> c2_node = network_->AddNode("c2", NewDomain("node:c2", t));

  CompLayerOptions comp_options;
  comp_options.coherent_lower = true;
  compfs_ = CompLayer::Create(server_node->domain(), comp_options, &clock_);
  sp<StackableFs> sfs = coherency_;
  if (probes_) {
    sfs = probes_->comp_sfs.WrapFs(sfs);
  }
  RETURN_IF_ERROR(compfs_->StackOn(sfs));
  seed_root_ = compfs_;
  sp<StackableFs> exported = compfs_;
  if (probes_) {
    exported = probes_->dfs_comp.WrapFs(exported);
  }
  ASSIGN_OR_RETURN(server_, dfs::DfsServer::Create(server_node, network_.get(),
                                                   "dfs", exported, &clock_));
  ASSIGN_OR_RETURN(c1_, dfs::DfsClient::Mount(c1_node, network_.get(),
                                              "server", "dfs", wire_clock));
  ASSIGN_OR_RETURN(c2_, dfs::DfsClient::Mount(c2_node, network_.get(),
                                              "server", "dfs", wire_clock));
  client_domain_ = c1_node->domain();
  writer_domain_ = c2_node->domain();
  client_root_ = c1_;
  sp<Context> writer_root = c2_;
  if (probes_) {
    client_root_ = probes_->posix.WrapContext(client_root_);
    writer_root = probes_->posix.WrapContext(writer_root);
  }
  writer_ = std::make_unique<posix::Process>(writer_root);
  return Status::Ok();
}

Status Stack::SyncAndRelease() {
  RETURN_IF_ERROR(coherency_->SyncFs());
  std::weak_ptr<DiskLayer> disk = disk_;
  ReleaseLayers();
  disk_outlived_release_ = !disk.expired();
  return Status::Ok();
}

void Stack::ReleaseLayers() {
  if (probes_) {
    for (Seam* seam : {&probes_->posix, &probes_->coh_disk,
                       &probes_->dfs_comp, &probes_->comp_sfs}) {
      seam->Clear();
    }
  }
  process_.reset();
  writer_.reset();
  vmm_.reset();
  client_root_.reset();
  seed_root_.reset();
  c1_.reset();
  c2_.reset();
  server_.reset();
  compfs_.reset();
  coherency_.reset();
  disk_.reset();
  client_domain_.reset();
  writer_domain_.reset();
  domains_.clear();
}

Result<sp<Context>> Stack::RemountForCheck() {
  ufs::Checker checker(device_);
  ASSIGN_OR_RETURN(ufs::CheckReport report, checker.Check());
  if (!report.clean()) {
    return ErrCorrupted("fsck: " + report.Summary());
  }
  sp<Domain> domain = NewDomain("remount", &spin_);
  ASSIGN_OR_RETURN(disk_, DiskLayer::Mount(domain, device_, &clock_));
  coherency_ = CoherencyLayer::Create(domain, {}, &clock_);
  RETURN_IF_ERROR(coherency_->StackOn(disk_));
  if (spec_.stack != StackKind::kRemote) {
    return sp<Context>(coherency_);
  }
  compfs_ = CompLayer::Create(domain, {}, &clock_);
  RETURN_IF_ERROR(compfs_->StackOn(coherency_));
  return sp<Context>(compfs_);
}

}  // namespace springbench
