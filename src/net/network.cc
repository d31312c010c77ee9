#include "src/net/network.h"

namespace springfs::net {
namespace {

// Wire header layout, shared by Serialize, Deserialize and
// StampTraceContext. All fields are little-endian; the payload follows.
constexpr size_t kTypeAt = 0;           // u32
constexpr size_t kStatusAt = 4;         // u32
constexpr size_t kRequestIdAt = 8;      // u64
constexpr size_t kEpochAt = 16;         // u64
constexpr size_t kTraceIdAt = 24;       // u64
constexpr size_t kParentSpanIdAt = 32;  // u64
constexpr size_t kTagAt = 40;           // u64
constexpr size_t kPayloadLenAt = 48;    // u64
constexpr size_t kHeaderSize = 56;

void PutU32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}
void PutU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}
uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

}  // namespace

Buffer Frame::Serialize() const {
  Buffer wire(kHeaderSize + payload.size());
  uint8_t* p = wire.data();
  PutU32(p + kTypeAt, type);
  PutU32(p + kStatusAt, static_cast<uint32_t>(status));
  PutU64(p + kRequestIdAt, request_id);
  PutU64(p + kEpochAt, epoch);
  PutU64(p + kTraceIdAt, trace_id);
  PutU64(p + kParentSpanIdAt, parent_span_id);
  PutU64(p + kTagAt, tag);
  PutU64(p + kPayloadLenAt, payload.size());
  wire.WriteAt(kHeaderSize, payload.span());
  return wire;
}

Result<Frame> Frame::Deserialize(ByteSpan wire) {
  if (wire.size() < kHeaderSize) {
    return ErrCorrupted("frame shorter than header");
  }
  Frame frame;
  const uint8_t* p = wire.data();
  frame.type = GetU32(p + kTypeAt);
  frame.status = static_cast<int32_t>(GetU32(p + kStatusAt));
  frame.request_id = GetU64(p + kRequestIdAt);
  frame.epoch = GetU64(p + kEpochAt);
  frame.trace_id = GetU64(p + kTraceIdAt);
  frame.parent_span_id = GetU64(p + kParentSpanIdAt);
  frame.tag = GetU64(p + kTagAt);
  uint64_t payload_len = GetU64(p + kPayloadLenAt);
  if (wire.size() != kHeaderSize + payload_len) {
    return ErrCorrupted("frame payload length mismatch");
  }
  frame.payload = Buffer(wire.subspan(kHeaderSize, payload_len));
  return frame;
}

Frame Frame::Error(ErrorCode code) {
  Frame frame;
  frame.status = static_cast<int32_t>(code);
  return frame;
}

void StampTraceContext(Buffer& wire, const trace::TraceContext& ctx) {
  // Patching the serialized header (rather than copying the Frame) keeps
  // the hot path to the single Serialize allocation.
  PutU64(wire.data() + kTraceIdAt, ctx.trace_id);
  PutU64(wire.data() + kParentSpanIdAt, ctx.parent_span_id);
}

void Node::RegisterService(const std::string& service, Handler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  services_[service] = std::move(handler);
}

void Node::UnregisterService(const std::string& service) {
  std::lock_guard<std::mutex> lock(mutex_);
  services_.erase(service);
}

Network::Network(Clock* clock, uint64_t default_latency_ns)
    : clock_(clock), default_latency_ns_(default_latency_ns) {
  metrics::Registry::Global().RegisterProvider(this);
}

Network::~Network() { metrics::Registry::Global().UnregisterProvider(this); }

sp<Node> Network::AddNode(const std::string& name, sp<Domain> domain) {
  if (!domain) {
    domain = Domain::Create("node:" + name);
  }
  sp<Node> node(new Node(name, std::move(domain)));
  std::lock_guard<std::mutex> lock(mutex_);
  nodes_[name] = node;
  return node;
}

Result<sp<Node>> Network::FindNode(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = nodes_.find(name);
  if (it == nodes_.end()) {
    return ErrNotFound("no node '" + name + "'");
  }
  return it->second;
}

void Network::SetLatency(const std::string& from, const std::string& to,
                         uint64_t latency_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  latency_[{from, to}] = latency_ns;
}

void Network::SetPartitioned(const std::string& node, bool partitioned) {
  std::lock_guard<std::mutex> lock(mutex_);
  partitioned_[node] = partitioned;
}

void Network::FailNextCalls(uint64_t calls, ErrorCode code) {
  std::lock_guard<std::mutex> lock(mutex_);
  global_fail_ = {calls, code};
}

void Network::FailNextCallsOnLink(const std::string& from,
                                  const std::string& to, uint64_t calls,
                                  ErrorCode code) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (calls == 0) {
    link_fail_.erase({from, to});
  } else {
    link_fail_[{from, to}] = {calls, code};
  }
}

void Network::DropNextResponses(const std::string& from, const std::string& to,
                                uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (n == 0) {
    drop_responses_.erase({from, to});
  } else {
    drop_responses_[{from, to}] = n;
  }
}

void Network::DropNextRequests(const std::string& from, const std::string& to,
                               uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (n == 0) {
    drop_requests_.erase({from, to});
  } else {
    drop_requests_[{from, to}] = n;
  }
}

void Network::DelayNextRequests(const std::string& from, const std::string& to,
                                uint64_t n, uint64_t delay_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (n == 0) {
    delay_requests_.erase({from, to});
  } else {
    delay_requests_[{from, to}] = {n, delay_ns};
  }
}

void Network::ArmFaults(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  global_faults_.emplace(plan);
  faults_armed_.store(true, std::memory_order_relaxed);
}

void Network::ArmFaultsOnLink(const std::string& from, const std::string& to,
                              const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  link_faults_.insert_or_assign(LinkKey{from, to}, ArmedFaults(plan));
  faults_armed_.store(true, std::memory_order_relaxed);
}

void Network::DisarmFaults() {
  std::lock_guard<std::mutex> lock(mutex_);
  global_faults_.reset();
  link_faults_.clear();
  faults_armed_.store(false, std::memory_order_relaxed);
}

Network::FaultDecision Network::DecideFaults(const std::string& from,
                                             const std::string& to) {
  FaultDecision d;
  ArmedFaults* armed = nullptr;
  auto it = link_faults_.find({from, to});
  if (it != link_faults_.end()) {
    armed = &it->second;
  } else if (global_faults_) {
    armed = &*global_faults_;
  }
  if (armed == nullptr || armed->plan.Empty()) {
    return d;
  }
  // Draw every coin unconditionally: the stream position then depends only
  // on the call sequence, not on the percentages, so tweaking one knob does
  // not reshuffle every other fault in a seeded schedule.
  bool drop_req = armed->rng.Chance(armed->plan.drop_request_pct, 100);
  bool drop_resp = armed->rng.Chance(armed->plan.drop_response_pct, 100);
  bool dup_req = armed->rng.Chance(armed->plan.dup_request_pct, 100);
  bool delay = armed->rng.Chance(armed->plan.delay_pct, 100);
  d.drop_request = drop_req;
  d.drop_response = drop_resp;
  d.dup_request = dup_req && !drop_req;
  d.extra_delay_ns = delay ? armed->plan.delay_ns : 0;
  return d;
}

uint64_t Network::LatencyBetween(const std::string& from,
                                 const std::string& to) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = latency_.find({from, to});
  return it != latency_.end() ? it->second : default_latency_ns_;
}

sp<Channel> Network::OpenChannel(const std::string& from,
                                 const std::string& to,
                                 const std::string& service,
                                 const ChannelOptions& options) {
  return sp<Channel>(new Channel(this, from, to, service, options));
}

Result<Frame> Network::Call(const std::string& from, const std::string& to,
                            const std::string& service, const Frame& request,
                            uint32_t attempt) {
  ChannelOptions options;
  options.max_inflight = 1;
  Channel channel(this, from, to, service, options);
  return channel.Call(request, attempt);
}

namespace {
std::atomic<FrameTypeNamer> g_frame_type_namer{nullptr};
}  // namespace

void SetFrameTypeNamer(FrameTypeNamer namer) {
  g_frame_type_namer.store(namer, std::memory_order_relaxed);
}

std::string FrameTypeName(uint32_t type) {
  if (FrameTypeNamer namer = g_frame_type_namer.load(std::memory_order_relaxed)) {
    if (const char* name = namer(type)) {
      return name;
    }
  }
  return "type" + std::to_string(type);
}

void Network::CollectStats(const metrics::StatsEmitter& emit) const {
  std::lock_guard<std::mutex> lock(mutex_);
  emit("calls", stats_.calls);
  for (const auto& [type, n] : stats_.calls_by_type) {
    emit("calls/" + FrameTypeName(type), n);
  }
  emit("messages", stats_.messages);
  emit("bytes", stats_.bytes);
  emit("dropped_requests", stats_.dropped_requests);
  emit("dropped_responses", stats_.dropped_responses);
  emit("duplicated_requests", stats_.duplicated_requests);
  emit("delayed_messages", stats_.delayed_messages);
  emit("injected_failures", stats_.injected_failures);
  emit("rack_retransmits", stats_.rack_retransmits);
  emit("rto_retransmits", stats_.rto_retransmits);
}

void Network::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = Stats{};
}

}  // namespace springfs::net
