#include "sim/ssd_model.h"

#include <algorithm>
#include <cmath>

#include "sim/fault.h"

namespace leed::sim {

SsdSpec Dct983Spec() {
  SsdSpec s;
  s.name = "samsung-dct983-960g";
  s.capacity_bytes = 960ull * 1000 * 1000 * 1000;
  s.block_size = 4096;
  s.read_channels = 20;
  s.read_base_ns = 50 * kMicrosecond;    // => 400K 4KB rand-read IOPS at QD20
  s.read_bandwidth_bpns = 3.0;           // 3.0 GB/s seq read
  s.write_base_ns = 25 * kMicrosecond;
  s.write_bandwidth_bpns = 1.05;         // 1.05 GB/s seq write
  s.random_write_penalty = 6.5;          // => ~39K 4KB rand-write IOPS
  return s;
}

SsdSpec PiSdCardSpec() {
  SsdSpec s;
  s.name = "sandisk-sd-32g";
  s.capacity_bytes = 32ull * 1000 * 1000 * 1000;
  s.block_size = 512;
  s.read_channels = 1;                    // no internal parallelism
  s.read_base_ns = 350 * kMicrosecond;    // ~2.9K rand-read IOPS
  s.read_bandwidth_bpns = 0.075;          // 75 MB/s streaming read
  s.write_base_ns = 600 * kMicrosecond;
  s.write_bandwidth_bpns = 0.065;         // 65 MB/s streaming write
  s.random_write_penalty = 24.0;          // SD random writes are dire
  // SD controllers have no internal write parallelism: each small write
  // occupies the device for its full program time (~2.9K 4KB-write IOPS),
  // unlike NVMe where the pipe overlaps with the ack latency.
  s.write_min_occupancy_ns = 350 * kMicrosecond;
  s.latency_jitter = 0.2;
  s.slow_io_prob = 0.01;
  s.slow_io_factor = 10.0;
  return s;
}

namespace {
constexpr obs::Field<SsdStats> kSsdFields[] = {
    {"read_ops", &SsdStats::reads},
    {"write_ops", &SsdStats::writes},
    {"read_bytes", &SsdStats::read_bytes},
    {"write_bytes", &SsdStats::write_bytes},
};
}  // namespace

SimSsd::SimSsd(Simulator& simulator, SsdSpec spec, uint64_t seed)
    : sim_(simulator),
      spec_(std::move(spec)),
      store_(spec_.capacity_bytes, spec_.block_size),
      rng_(seed),
      scope_(nullptr),
      stats_(scope_.Resolve(kSsdFields)) {}

void SimSsd::AttachMetrics(const obs::Scope& scope) {
  scope_ = scope;
  stats_ = scope_.Resolve(kSsdFields);
  *stats_ = SsdStats{};
  scope_.ResetInstruments();
  read_us_ = scope_.GetHistogram("read_us");
  write_us_ = scope_.GetHistogram("write_us");
}

double SimSsd::JitterFactor() {
  double f = 1.0 + spec_.latency_jitter * (2.0 * rng_.NextDouble() - 1.0);
  if (spec_.slow_io_prob > 0 && rng_.NextBool(spec_.slow_io_prob)) {
    f *= spec_.slow_io_factor;
  }
  return f;
}

SimTime SimSsd::write_pipe_backlog() const {
  return std::max<SimTime>(0, write_pipe_free_at_ - sim_.Now());
}

Status SimSsd::Submit(IoRequest request, IoCallback callback) {
  uint64_t length =
      request.length ? request.length : request.data.size() + request.tail.size();
  LEED_RETURN_IF_ERROR(store_.CheckRequest(request, length));
  request.length = length;

  // The fault layer decides this IO's fate before any state changes, so a
  // black-holed IO leaves no trace in the queueing model — exactly like a
  // device that lost power mid-request.
  double latency_factor = 1.0;
  uint64_t keep = 0;
  IoFault fate = IoFault::kNone;
  if (faults_ != nullptr) {
    fate = faults_->OnIo(request.type == IoType::kWrite, length,
                         &latency_factor, &keep);
  }
  if (fate == IoFault::kCrash) {
    if (request.type == IoType::kWrite && keep > 0) {
      store_.Persist(request, keep);
    }
    return Status::Ok();  // the callback never fires
  }
  if (fate == IoFault::kError || fate == IoFault::kTorn) {
    if (fate == IoFault::kTorn) store_.Persist(request, keep);
    const SimTime base = request.type == IoType::kWrite ? spec_.write_base_ns
                                                        : spec_.read_base_ns;
    ++inflight_;
    SimTime submitted = sim_.Now();
    auto fault_done = [this, submitted, cb = std::move(callback)]() mutable {
      --inflight_;
      NotifyIo(false, sim_.Now() - submitted);
      IoResult r;
      r.status = Status::IoError("injected device fault");
      r.submitted_at = submitted;
      r.completed_at = sim_.Now();
      cb(std::move(r));
    };
    static_assert(EventFitsInline<decltype(fault_done)>,
                  "SSD fault completion must not heap-allocate");
    sim_.Schedule(base, std::move(fault_done));
    return Status::Ok();
  }

  ++inflight_;

  if (request.type == IoType::kWrite) {
    // Persist immediately in the functional store (the device has the data
    // from submission time; readers that observe the completion see it).
    store_.Persist(request, length);
    stats_->writes++;
    stats_->write_bytes += length;

    // Occupancy on the program pipe: random writes consume a whole page
    // program (amplified); sequential appends stream at full bandwidth.
    double effective_bytes = static_cast<double>(length);
    if (request.pattern == IoPattern::kRandom) {
      effective_bytes =
          std::max<double>(effective_bytes, spec_.block_size) * spec_.random_write_penalty;
    }
    SimTime occupancy = static_cast<SimTime>(
        std::max(effective_bytes / spec_.write_bandwidth_bpns,
                 static_cast<double>(spec_.write_min_occupancy_ns)) *
        JitterFactor() * latency_factor);
    SimTime start = std::max(sim_.Now(), write_pipe_free_at_);
    write_pipe_free_at_ = start + occupancy;
    stats_->write_busy_ns += occupancy;
    SimTime done = write_pipe_free_at_ + spec_.write_base_ns;
    SimTime submitted = sim_.Now();
    if (write_us_) write_us_->Record(ToMicros(done - submitted));
    auto write_done = [this, submitted, cb = std::move(callback)]() mutable {
      --inflight_;
      NotifyIo(true, sim_.Now() - submitted);
      IoResult r;
      r.submitted_at = submitted;
      r.completed_at = sim_.Now();
      cb(std::move(r));
    };
    static_assert(EventFitsInline<decltype(write_done)>,
                  "SSD write completion must not heap-allocate");
    sim_.At(done, std::move(write_done));
    return Status::Ok();
  }

  // Read: queue behind the channel servers.
  read_queue_.push_back(
      Pending{std::move(request), std::move(callback), sim_.Now(), latency_factor});
  TryStartReads();
  return Status::Ok();
}

void SimSsd::Discard(uint64_t offset, uint64_t length) {
  if (faults_ != nullptr && faults_->crashed()) return;
  const uint64_t end = offset + length;
  std::vector<std::pair<uint64_t, uint64_t>> kept;
  const auto keep = [&](uint64_t b, uint64_t e) {
    if (b < end && e > offset) kept.emplace_back(std::max(b, offset), std::min(e, end));
  };
  for (const auto& [b, e] : serving_) keep(b, e);
  for (const Pending& p : read_queue_) keep(p.request.offset, p.request.offset + p.request.length);
  std::sort(kept.begin(), kept.end());
  uint64_t at = offset;
  for (const auto& [b, e] : kept) {
    if (b > at) store_.Discard(at, b - at);
    at = std::max(at, e);
  }
  if (at < end) store_.Discard(at, end - at);
}

void SimSsd::TryStartReads() {
  while (reads_in_service_ < spec_.read_channels && !read_queue_.empty()) {
    Pending p = std::move(read_queue_.front());
    read_queue_.pop_front();
    StartRead(std::move(p));
  }
}

void SimSsd::StartRead(Pending p) {
  ++reads_in_service_;
  uint64_t length = p.request.length;
  // Service: per-IO base (covers up to one block) + streaming time for the
  // remainder of large IOs.
  double extra = length > spec_.block_size
                     ? static_cast<double>(length - spec_.block_size) /
                           (spec_.read_bandwidth_bpns / spec_.read_channels)
                     : 0.0;
  SimTime service = static_cast<SimTime>(
      (static_cast<double>(spec_.read_base_ns) + extra) * JitterFactor() *
      p.latency_factor);
  stats_->read_busy_ns += service;
  stats_->reads++;
  stats_->read_bytes += length;

  SimTime submitted = p.submitted_at;
  uint64_t offset = p.request.offset;
  serving_.emplace_back(offset, offset + length);
  auto read_done = [this, submitted, offset, length,
                    cb = std::move(p.callback)]() mutable {
    --reads_in_service_;
    --inflight_;
    NotifyIo(true, sim_.Now() - submitted);
    if (read_us_) read_us_->Record(ToMicros(sim_.Now() - submitted));
    IoResult r;
    r.data = store_.Read(offset, length);
    const auto served = std::find(serving_.begin(), serving_.end(),
                                  std::pair(offset, offset + length));
    *served = serving_.back();
    serving_.pop_back();
    r.submitted_at = submitted;
    r.completed_at = sim_.Now();
    cb(std::move(r));
    TryStartReads();
  };
  // this + 3 scalars + an IoCallback: exactly the inline budget. Growing
  // this capture list puts an allocation on every simulated read.
  static_assert(EventFitsInline<decltype(read_done)>,
                "SSD read completion must not heap-allocate");
  sim_.Schedule(service, std::move(read_done));
}

}  // namespace leed::sim
