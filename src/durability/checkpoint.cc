#include "durability/checkpoint.h"

#include <cstdio>

#include "durability/crc32c.h"
#include "durability/file.h"
#include "util/binary.h"

namespace smash::durability {

namespace {

constexpr std::string_view kMagic = "SMCK";
// Version 2: pre_fingerprint hashes the shard's AggregatedTrace.
constexpr std::uint32_t kVersion = 2;
// Checkpoints scale with window size, not with a corrupt length field:
// anything claiming more than 1 GiB of body is rejected before allocation.
constexpr std::uint32_t kMaxBody = 1u << 30;

void encode_body(std::string& out, const CheckpointState& s) {
  util::put_u32(out, s.epoch_seconds);
  util::put_u32(out, s.window_epochs);
  util::put_u8(out, s.drop_late_events ? 1 : 0);

  util::put_u64(out, s.closes_total);
  util::put_u64(out, s.records_logged);

  util::put_u8(out, s.started ? 1 : 0);
  util::put_u64(out, s.open_epoch);
  util::put_u64(out, s.ingest_stats.requests);
  util::put_u64(out, s.ingest_stats.resolutions);
  util::put_u64(out, s.ingest_stats.redirects);
  util::put_u64(out, s.ingest_stats.late_dropped);
  util::put_u64(out, s.ingest_stats.late_folded);

  util::put_u64(out, s.replay_segment);
  util::put_u64(out, s.replay_offset);

  util::put_u32(out, static_cast<std::uint32_t>(s.window.size()));
  for (const auto& shard : s.window) {
    util::put_u64(out, shard.epoch);
    util::put_u64(out, shard.pre_fingerprint);
    util::put_bytes(out, shard.trace_bytes);
  }
  util::put_bytes(out, s.open_trace_bytes);

  util::put_u64(out, s.window_requests);
  util::put_u32(out, static_cast<std::uint32_t>(s.aggregates.size()));
  for (const auto& agg : s.aggregates) {
    util::put_bytes(out, agg.host_2ld);
    util::put_u64(out, agg.requests);
    util::put_u64(out, agg.error_requests);
    util::put_u32(out, agg.active_epochs);
  }
}

bool decode_body(std::string_view body, CheckpointState& s) {
  util::BinaryReader in(body);
  std::uint8_t drop = 0;
  std::uint8_t started = 0;
  if (!in.u32(s.epoch_seconds) || !in.u32(s.window_epochs) || !in.u8(drop) ||
      !in.u64(s.closes_total) || !in.u64(s.records_logged) || !in.u8(started) ||
      !in.u64(s.open_epoch) || !in.u64(s.ingest_stats.requests) ||
      !in.u64(s.ingest_stats.resolutions) || !in.u64(s.ingest_stats.redirects) ||
      !in.u64(s.ingest_stats.late_dropped) ||
      !in.u64(s.ingest_stats.late_folded) || !in.u64(s.replay_segment) ||
      !in.u64(s.replay_offset)) {
    return false;
  }
  if (drop > 1 || started > 1) return false;
  s.drop_late_events = drop == 1;
  s.started = started == 1;

  std::uint32_t num_shards = 0;
  if (!in.u32(num_shards)) return false;
  s.window.clear();
  s.window.reserve(num_shards);
  for (std::uint32_t i = 0; i < num_shards; ++i) {
    CheckpointShard shard;
    std::string_view trace;
    if (!in.u64(shard.epoch) || !in.u64(shard.pre_fingerprint) ||
        !in.bytes(trace)) {
      return false;
    }
    shard.trace_bytes.assign(trace);
    s.window.push_back(std::move(shard));
  }
  if (!in.str(s.open_trace_bytes)) return false;

  std::uint32_t num_aggs = 0;
  if (!in.u64(s.window_requests) || !in.u32(num_aggs)) return false;
  s.aggregates.clear();
  s.aggregates.reserve(num_aggs);
  for (std::uint32_t i = 0; i < num_aggs; ++i) {
    CheckpointAggregate agg;
    if (!in.str(agg.host_2ld) || !in.u64(agg.requests) ||
        !in.u64(agg.error_requests) || !in.u32(agg.active_epochs)) {
      return false;
    }
    s.aggregates.push_back(std::move(agg));
  }
  return in.done();
}

}  // namespace

std::string checkpoint_file_name(std::uint64_t closes, std::uint64_t replay_segment) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "ckpt-%020llu-%012llu.bin",
                static_cast<unsigned long long>(closes),
                static_cast<unsigned long long>(replay_segment));
  return buf;
}

std::optional<CheckpointFileName> parse_checkpoint_file_name(std::string_view name) {
  constexpr std::string_view prefix = "ckpt-";
  constexpr std::string_view suffix = ".bin";
  if (name.size() != prefix.size() + 20 + 1 + 12 + suffix.size()) return std::nullopt;
  if (name.substr(0, prefix.size()) != prefix) return std::nullopt;
  if (name.substr(name.size() - suffix.size()) != suffix) return std::nullopt;
  if (name[prefix.size() + 20] != '-') return std::nullopt;
  const auto digits = [](std::string_view text, std::uint64_t& out) {
    out = 0;
    for (const char c : text) {
      if (c < '0' || c > '9') return false;
      out = out * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return true;
  };
  CheckpointFileName parsed;
  if (!digits(name.substr(prefix.size(), 20), parsed.closes)) return std::nullopt;
  if (!digits(name.substr(prefix.size() + 21, 12), parsed.replay_segment)) {
    return std::nullopt;
  }
  return parsed;
}

std::string encode_checkpoint(const CheckpointState& state) {
  std::string body;
  encode_body(body, state);
  std::string out;
  out.reserve(kMagic.size() + 12 + body.size());
  out.append(kMagic);
  util::put_u32(out, kVersion);
  util::put_u32(out, crc32c(body));
  util::put_u32(out, static_cast<std::uint32_t>(body.size()));
  out.append(body);
  return out;
}

std::optional<CheckpointState> decode_checkpoint(std::string_view bytes) {
  if (bytes.size() < kMagic.size() + 12) return std::nullopt;
  if (bytes.substr(0, kMagic.size()) != kMagic) return std::nullopt;
  util::BinaryReader header(bytes.substr(kMagic.size()));
  std::uint32_t version = 0;
  std::uint32_t crc = 0;
  std::uint32_t body_len = 0;
  if (!header.u32(version) || !header.u32(crc) || !header.u32(body_len)) {
    return std::nullopt;
  }
  if (version != kVersion || body_len > kMaxBody) return std::nullopt;
  if (header.remaining() != body_len) return std::nullopt;
  const std::string_view body = bytes.substr(kMagic.size() + 12, body_len);
  if (crc32c(body) != crc) return std::nullopt;
  CheckpointState state;
  if (!decode_body(body, state)) return std::nullopt;
  return state;
}

void write_checkpoint_file(const std::string& dir, const CheckpointState& state,
                           FsyncPolicy policy) {
  const std::string tmp = dir + "/ckpt.tmp";
  const std::string final_path =
      dir + "/" + checkpoint_file_name(state.closes_total, state.replay_segment);
  {
    File file = File::create(tmp, "ckpt");
    file.write(encode_checkpoint(state));
    if (policy != FsyncPolicy::kOff) file.sync();
    file.close();
  }
  File::rename_file(tmp, final_path, "ckpt");
  if (policy != FsyncPolicy::kOff) File::sync_dir(dir);
}

}  // namespace smash::durability
