#include "workload/ycsb.h"

#include <cstdio>

#include "common/hash.h"

namespace leed::workload {

const char* MixName(Mix mix) {
  switch (mix) {
    case Mix::kA:
      return "YCSB-A";
    case Mix::kB:
      return "YCSB-B";
    case Mix::kC:
      return "YCSB-C";
    case Mix::kD:
      return "YCSB-D";
    case Mix::kE:
      return "YCSB-E";
    case Mix::kF:
      return "YCSB-F";
    case Mix::kWriteOnly:
      return "YCSB-WR";
  }
  return "YCSB-?";
}

YcsbGenerator::YcsbGenerator(YcsbConfig config)
    : config_(config),
      rng_(config.seed),
      // Workload D consumes raw ranks (rank 0 == most recent insert), so
      // its Zipf must stay unscrambled; every other mix scrambles so hot
      // keys spread across the key space (YCSB's "scrambled zipfian").
      zipf_(config.num_keys, config.zipf_theta > 0 ? config.zipf_theta : 0.0,
            /*scramble=*/config.mix != Mix::kD),
      population_(config.num_keys) {}

std::string YcsbGenerator::KeyName(uint64_t id) {
  char buf[28];
  std::snprintf(buf, sizeof(buf), "user%012llu", static_cast<unsigned long long>(id));
  return buf;
}

std::vector<uint8_t> YcsbGenerator::MakeValue(uint64_t key_id, uint32_t version) const {
  std::vector<uint8_t> v(config_.value_size);
  uint64_t state = Mix64(key_id * 0x9e3779b97f4a7c15ULL + version + 1);
  // Word w (bytes 8w..8w+7) is the state re-mixed with offset 8w, stored
  // little-endian; a short last word keeps its low bytes. Filling whole
  // words with a constant count lets the compiler emit one 8-byte store.
  auto put = [&state](uint8_t* dst, size_t n) {
    for (size_t b = 0; b < n; ++b) dst[b] = static_cast<uint8_t>(state >> (8 * b));
  };
  size_t i = 0;
  for (; i + 8 <= v.size(); i += 8) {
    state = Mix64(state + i);
    put(v.data() + i, 8);
  }
  if (i < v.size()) {
    state = Mix64(state + i);
    put(v.data() + i, v.size() - i);
  }
  return v;
}

double YcsbGenerator::ReadFraction() const {
  if (config_.custom_read_permille >= 0)
    return static_cast<double>(config_.custom_read_permille) / 1000.0;
  switch (config_.mix) {
    case Mix::kA:
      return 0.50;
    case Mix::kB:
      return 0.95;
    case Mix::kC:
      return 1.00;
    case Mix::kD:
      return 0.95;
    case Mix::kE:
      return 0.95;  // scans are (multi-item) reads
    case Mix::kF:
      return 0.50;  // the other half are read-modify-writes
    case Mix::kWriteOnly:
      return 0.0;
  }
  return 1.0;
}

uint64_t YcsbGenerator::SampleKey() {
  if (config_.zipf_theta <= 0.0) return rng_.NextBounded(population_);
  uint64_t id = zipf_.Next(rng_);
  return id % population_;
}

Op YcsbGenerator::Next() {
  Op op;
  if (config_.custom_read_permille >= 0) {
    op.kind = rng_.NextBool(
                  static_cast<double>(config_.custom_read_permille) / 1000.0)
                  ? OpKind::kRead
                  : OpKind::kUpdate;
    op.key_id = SampleKey();
    return op;
  }
  switch (config_.mix) {
    case Mix::kA:
      op.kind = rng_.NextBool(0.5) ? OpKind::kRead : OpKind::kUpdate;
      op.key_id = SampleKey();
      break;
    case Mix::kB:
      op.kind = rng_.NextBool(0.95) ? OpKind::kRead : OpKind::kUpdate;
      op.key_id = SampleKey();
      break;
    case Mix::kC:
      op.kind = OpKind::kRead;
      op.key_id = SampleKey();
      break;
    case Mix::kD: {
      // 95% reads with the "latest" distribution (skewed toward recently
      // inserted keys), 5% inserts of fresh keys.
      if (rng_.NextBool(0.05)) {
        op.kind = OpKind::kInsert;
        op.key_id = population_++;
      } else {
        op.kind = OpKind::kRead;
        uint64_t back = zipf_.Next(rng_) % population_;
        op.key_id = population_ - 1 - back;
      }
      break;
    }
    case Mix::kE: {
      // 95% short range scans / 5% inserts of fresh keys (the standard
      // ordered-keys mix). Scan lengths are uniform in [1, max_scan_len].
      if (rng_.NextBool(0.05)) {
        op.kind = OpKind::kInsert;
        op.key_id = population_++;
      } else {
        op.kind = OpKind::kScan;
        op.key_id = SampleKey();
        uint32_t cap = config_.max_scan_len > 0 ? config_.max_scan_len : 1;
        op.scan_len = 1 + static_cast<uint32_t>(rng_.NextBounded(cap));
      }
      break;
    }
    case Mix::kF:
      op.kind = rng_.NextBool(0.5) ? OpKind::kRead : OpKind::kReadModifyWrite;
      op.key_id = SampleKey();
      break;
    case Mix::kWriteOnly:
      op.kind = OpKind::kUpdate;
      op.key_id = SampleKey();
      break;
  }
  return op;
}

}  // namespace leed::workload
