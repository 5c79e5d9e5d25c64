#include "serve/event_wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "support/crc32.hpp"
#include "support/failpoint.hpp"
#include "support/wire.hpp"
#include "tree/serialize.hpp"

namespace rpt::serve {
namespace {

namespace fs = std::filesystem;
namespace wire = support::wire;
using incremental::UpdateEvent;

constexpr char kWalMagic[8] = {'R', 'P', 'T', 'W', 'A', 'L', '1', '\0'};
constexpr std::size_t kWalMagicBytes = sizeof(kWalMagic);
// Smallest encodings of one event (no spec nodes) and one spec node.
constexpr std::size_t kEventBytes = 1 + 4 + 8 + 8 + 4 + 4;
constexpr std::size_t kSpecNodeBytes = 1 + 4 + 8 + 8;

// The one batch encoder: Append writes these bytes, and EncodeBatchPayload
// exposes them to the corpus tests.
std::string EncodeBatch(std::uint64_t seq, std::span<const UpdateEvent> events) {
  std::string payload;
  wire::ByteWriter out(payload);
  out.U64(seq).U32(static_cast<std::uint32_t>(events.size()));
  for (const UpdateEvent& ev : events) {
    out.U8(static_cast<std::uint8_t>(ev.kind))
        .U32(ev.client)
        .U64(static_cast<std::uint64_t>(ev.delta))
        .U64(ev.value)
        .U32(ev.parent)
        .U32(static_cast<std::uint32_t>(ev.spec.nodes.size()));
    for (const SubtreeSpec::Node& node : ev.spec.nodes) {
      out.U8(static_cast<std::uint8_t>(node.kind))
          .U32(node.parent)
          .U64(node.delta)
          .U64(node.requests);
    }
  }
  RPT_CHECK(payload.size() <= kMaxWalRecordBytes);
  return payload;
}

// Parse failures throw InternalError: the CRC already vouched for these
// bytes, so a malformed payload is a writer bug or a version skew, never a
// torn tail.
WalBatch DecodeBatchPayload(std::string_view payload) {
  try {
    wire::ByteReader in(payload);
    WalBatch batch;
    batch.seq = in.U64();
    const std::uint32_t count = in.U32();
    if (count == kEpochMarker) {
      batch.epoch_bump = true;
      batch.epoch = in.U64();
      in.ExpectExhausted();
      return batch;
    }
    in.ExpectRoom(count, kEventBytes);
    batch.events.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      UpdateEvent ev;
      const std::uint8_t kind = in.U8();
      if (kind > static_cast<std::uint8_t>(UpdateEvent::Kind::kLinkCapacity)) {
        throw InternalError("event_wal: unknown event kind despite matching CRC");
      }
      ev.kind = static_cast<UpdateEvent::Kind>(kind);
      ev.client = in.U32();
      ev.delta = static_cast<std::int64_t>(in.U64());
      ev.value = in.U64();
      ev.parent = in.U32();
      const std::uint32_t nspec = in.Count(kSpecNodeBytes);
      ev.spec.nodes.reserve(nspec);
      for (std::uint32_t j = 0; j < nspec; ++j) {
        SubtreeSpec::Node node;
        const std::uint8_t nkind = in.U8();
        if (nkind > static_cast<std::uint8_t>(NodeKind::kClient)) {
          throw InternalError("event_wal: unknown spec-node kind despite matching CRC");
        }
        node.kind = static_cast<NodeKind>(nkind);
        node.parent = in.U32();
        node.delta = in.U64();
        node.requests = in.U64();
        ev.spec.nodes.push_back(node);
      }
      batch.events.push_back(std::move(ev));
    }
    in.ExpectExhausted();
    return batch;
  } catch (const wire::DecodeError& e) {
    throw InternalError(std::string("event_wal: ") + e.what() + " despite matching CRC");
  }
}

std::string ReadWholeFile(const std::string& path, bool& exists) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    exists = false;
    return {};
  }
  exists = true;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

int WriteAll(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    if (n == 0) return EIO;  // no progress and no errno set — don't spin
    done += static_cast<std::size_t>(n);
  }
  return 0;
}

void WriteFileDurable(const std::string& path, const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw InternalError("event_wal: cannot create '" + path + "': " +
                        std::strerror(errno));
  }
  const int err = WriteAll(fd, bytes.data(), bytes.size());
  if (err != 0 || ::fsync(fd) != 0) {
    ::close(fd);
    throw InternalError("event_wal: write to '" + path + "' failed");
  }
  ::close(fd);
}

void SyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);  // best-effort: the rename itself already ordered the data
    ::close(fd);
  }
}

std::string CheckpointFileName(std::uint64_t seq) {
  char name[40];
  std::snprintf(name, sizeof(name), "ckpt-%020llu.rpt",
                static_cast<unsigned long long>(seq));
  return name;
}

/// Checkpoints in `dir`, newest (highest seq) first.
std::vector<std::pair<std::uint64_t, std::string>> ListCheckpoints(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long seq = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "ckpt-%20llu.rpt%n", &seq, &consumed) == 1 &&
        consumed == static_cast<int>(name.size())) {
      found.emplace_back(seq, entry.path().string());
    }
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return found;
}

}  // namespace

EventWal::EventWal(EventWal&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      sync_(other.sync_),
      committed_bytes_(other.committed_bytes_),
      last_seq_(other.last_seq_) {}

EventWal& EventWal::operator=(EventWal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    sync_ = other.sync_;
    committed_bytes_ = other.committed_bytes_;
    last_seq_ = other.last_seq_;
  }
  return *this;
}

EventWal::~EventWal() {
  if (fd_ >= 0) ::close(fd_);
}

std::string EventWal::EncodeBatchPayload(
    std::uint64_t seq, const std::vector<UpdateEvent>& events) {
  return EncodeBatch(seq, events);
}

std::string EventWal::EncodeEpochPayload(std::uint64_t seq, std::uint64_t epoch) {
  std::string payload;
  wire::ByteWriter(payload).U64(seq).U32(kEpochMarker).U64(epoch);
  return payload;
}

std::string EventWal::FrameRecord(const std::string& payload) {
  std::string record;
  record.reserve(wire::kFrameHeaderBytes + payload.size());
  wire::AppendFrame(record, payload);
  return record;
}

std::optional<WalBatch> EventWal::TryDecodeFramedRecord(const std::string& frame) {
  const auto payload = wire::FrameAt(frame, 0, kMaxWalRecordBytes);
  if (!payload || frame.size() != wire::kFrameHeaderBytes + payload->size()) {
    return std::nullopt;
  }
  return DecodeBatchPayload(*payload);
}

WalReadResult EventWal::Read(const std::string& path) {
  WalReadResult result;
  bool exists = false;
  const std::string bytes = ReadWholeFile(path, exists);
  if (!exists || bytes.empty()) return result;

  if (bytes.size() < kWalMagicBytes) {
    // A crash while writing the magic of a brand-new log: torn tail of an
    // empty log (nothing after it can frame in < 8 bytes).
    result.dropped_bytes = bytes.size();
    return result;
  }
  if (std::memcmp(bytes.data(), kWalMagic, kWalMagicBytes) != 0) {
    throw InvalidArgument("event_wal: '" + path + "' is not an rpt WAL file");
  }

  std::size_t off = kWalMagicBytes;
  result.valid_bytes = off;
  std::uint64_t last_seq = 0;
  while (off < bytes.size()) {
    const auto payload = wire::FrameAt(bytes, off, kMaxWalRecordBytes);
    if (!payload) break;
    WalBatch batch = DecodeBatchPayload(*payload);
    if (batch.seq <= last_seq) {
      throw InternalError("event_wal: non-increasing seq " +
                          std::to_string(batch.seq) + " after " +
                          std::to_string(last_seq) + " in '" + path + "'");
    }
    last_seq = batch.seq;
    result.batches.push_back(std::move(batch));
    off += wire::kFrameHeaderBytes + payload->size();
    result.valid_bytes = off;
  }

  if (off < bytes.size()) {
    // Damage at `off`. Torn tail iff no committed record survives past it;
    // otherwise the middle of the log is gone and replay must not proceed.
    for (std::size_t probe = off + 1; probe + wire::kFrameHeaderBytes <= bytes.size();
         ++probe) {
      if (wire::FrameAt(bytes, probe, kMaxWalRecordBytes)) {
        throw InternalError(
            "event_wal: interior corruption in '" + path + "' at byte " +
            std::to_string(off) + " (intact record follows at byte " +
            std::to_string(probe) + "); refusing to replay around a hole");
      }
    }
    result.dropped_bytes = bytes.size() - off;
  }
  return result;
}

EventWal EventWal::OpenForAppend(const std::string& path, bool sync) {
  WalReadResult scan = Read(path);  // throws on interior corruption

  EventWal wal;
  wal.path_ = path;
  wal.sync_ = sync;
  wal.fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (wal.fd_ < 0) {
    throw InternalError("event_wal: cannot open '" + path + "': " +
                        std::strerror(errno));
  }

  if (scan.valid_bytes == 0) {
    // Fresh (or sub-magic torn) file: start over with a clean magic.
    if (::ftruncate(wal.fd_, 0) != 0 ||
        WriteAll(wal.fd_, kWalMagic, kWalMagicBytes) != 0) {
      throw InternalError("event_wal: cannot initialize '" + path + "'");
    }
    wal.committed_bytes_ = kWalMagicBytes;
  } else {
    // Drop any torn tail so appends land on the committed prefix.
    if (::ftruncate(wal.fd_, static_cast<off_t>(scan.valid_bytes)) != 0) {
      throw InternalError("event_wal: cannot truncate torn tail of '" + path + "'");
    }
    wal.committed_bytes_ = scan.valid_bytes;
    if (!scan.batches.empty()) wal.last_seq_ = scan.batches.back().seq;
  }
  if (::lseek(wal.fd_, static_cast<off_t>(wal.committed_bytes_), SEEK_SET) < 0) {
    throw InternalError("event_wal: cannot seek in '" + path + "'");
  }
  if (sync && ::fsync(wal.fd_) != 0) {
    throw InternalError("event_wal: fsync of '" + path + "' failed");
  }
  return wal;
}

std::string EventWal::Append(std::uint64_t seq, std::span<const UpdateEvent> events) {
  return AppendPayload(seq, EncodeBatch(seq, events));
}

void EventWal::AppendEpoch(std::uint64_t seq, std::uint64_t epoch) {
  (void)AppendPayload(seq, EncodeEpochPayload(seq, epoch));
}

std::string EventWal::AppendPayload(std::uint64_t seq, const std::string& payload) {
  RPT_CHECK(fd_ >= 0);  // Append on a moved-from handle is a caller bug
  if (seq <= last_seq_) {
    throw InvalidArgument("event_wal: seq " + std::to_string(seq) +
                          " not past committed seq " + std::to_string(last_seq_));
  }

  fail::Hit("wal.append");  // kThrow / kCrash fire here, before any bytes move

  std::string record = FrameRecord(payload);

  // Repairs a failed append: the bytes past the committed prefix never
  // happened. Used for ERRORS the process survives (the caller gets
  // InternalError and degrades); an injected CRASH skips repair on purpose —
  // the torn tail is exactly what recovery must cope with.
  const auto repair_and_throw = [&](const std::string& what) {
    ::ftruncate(fd_, static_cast<off_t>(committed_bytes_));
    ::lseek(fd_, static_cast<off_t>(committed_bytes_), SEEK_SET);
    throw InternalError("event_wal: " + what + " ('" + path_ + "')");
  };

  std::uint64_t short_bytes = 0;
  if (fail::Hit("wal.append.short", &short_bytes) == fail::Action::kShortOp) {
    const std::size_t n = std::min<std::size_t>(short_bytes, record.size());
    WriteAll(fd_, record.data(), n);
    throw fail::InjectedFault("wal.append.short: wrote " + std::to_string(n) +
                              " of " + std::to_string(record.size()) +
                              " record bytes, then died");
  }

  if (WriteAll(fd_, record.data(), record.size()) != 0) {
    repair_and_throw("append write failed");
  }
  if (fail::Hit("wal.sync") == fail::Action::kError) {
    repair_and_throw("injected fsync failure");
  }
  if (sync_ && ::fsync(fd_) != 0) {
    repair_and_throw("fsync failed");
  }

  committed_bytes_ += record.size();
  last_seq_ = seq;
  return record;
}

void EventWal::TrimThrough(const std::string& path, std::uint64_t through_seq) {
  if (fail::Hit("wal.trim") == fail::Action::kError) {
    throw InternalError("event_wal: injected trim failure ('" + path + "')");
  }
  const WalReadResult scan = Read(path);
  std::string out(kWalMagic, kWalMagicBytes);
  for (const WalBatch& batch : scan.batches) {
    if (batch.seq <= through_seq) continue;
    const std::string payload =
        batch.epoch_bump ? EncodeEpochPayload(batch.seq, batch.epoch)
                         : EncodeBatchPayload(batch.seq, batch.events);
    out += FrameRecord(payload);
  }
  const std::string tmp = path + ".tmp";
  WriteFileDurable(tmp, out);
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw InternalError("event_wal: trim rename failed: " + ec.message());
  }
  SyncDirectory(fs::path(path).parent_path().string());
}

void WriteCheckpoint(const std::string& dir, const CheckpointState& state) {
  if (fail::Hit("ckpt.write") == fail::Action::kError) {
    throw InternalError("event_wal: injected checkpoint write failure");
  }

  std::ostringstream body;
  body << "rpt-ckpt v1\n"
       << "seq " << state.seq << " version " << state.version << " capacity "
       << state.capacity << " epoch " << state.epoch << "\n";
  WriteOverlay(body, state.overlay);
  std::string text = std::move(body).str();
  char crc_line[16];
  std::snprintf(crc_line, sizeof(crc_line), "crc %08x\n",
                support::Crc32(text.data(), text.size()));
  text += crc_line;

  const fs::path final_path = fs::path(dir) / CheckpointFileName(state.seq);
  const std::string tmp = final_path.string() + ".tmp";
  WriteFileDurable(tmp, text);
  std::error_code ec;
  fs::rename(tmp, final_path, ec);
  if (ec) {
    throw InternalError("event_wal: checkpoint rename failed: " + ec.message());
  }
  SyncDirectory(dir);

  // Retention: the newest checkpoint plus one fallback survive; everything
  // older is replay-reachable from those and just disk weight.
  const auto all = ListCheckpoints(dir);
  for (std::size_t i = 2; i < all.size(); ++i) {
    fs::remove(all[i].second, ec);
  }
}

std::uint64_t NewestCheckpointSeqHint(const std::string& dir) {
  const auto all = ListCheckpoints(dir);
  return all.empty() ? 0 : all.front().first;
}

std::optional<CheckpointState> LoadNewestCheckpoint(const std::string& dir) {
  constexpr std::size_t kCrcLineBytes = 13;  // "crc " + 8 hex + '\n'
  for (const auto& [seq, path] : ListCheckpoints(dir)) {
    bool exists = false;
    const std::string text = ReadWholeFile(path, exists);
    if (!exists || text.size() < kCrcLineBytes) continue;

    const std::size_t body_len = text.size() - kCrcLineBytes;
    unsigned int stored_crc = 0;
    if (std::sscanf(text.c_str() + body_len, "crc %8x", &stored_crc) != 1 ||
        text.back() != '\n') {
      continue;  // truncated or torn: fall back to an older checkpoint
    }
    if (support::Crc32(text.data(), body_len) != stored_crc) continue;

    try {
      std::istringstream in(text.substr(0, body_len));
      std::string line;
      if (!std::getline(in, line) || line != "rpt-ckpt v1") continue;
      if (!std::getline(in, line)) continue;
      unsigned long long hdr_seq = 0, hdr_version = 0, hdr_capacity = 0;
      unsigned long long hdr_epoch = 1;  // pre-replication checkpoints: epoch 1
      const int parsed =
          std::sscanf(line.c_str(), "seq %llu version %llu capacity %llu epoch %llu",
                      &hdr_seq, &hdr_version, &hdr_capacity, &hdr_epoch);
      if (parsed != 3 && parsed != 4) continue;
      if (parsed == 3) hdr_epoch = 1;
      TreeOverlay overlay = ReadOverlay(in);
      return CheckpointState{hdr_seq, hdr_version, hdr_epoch,
                             static_cast<Requests>(hdr_capacity),
                             std::move(overlay)};
    } catch (const InvalidArgument&) {
      continue;  // CRC passed but the body does not parse: skip, fall back
    }
  }
  return std::nullopt;
}

}  // namespace rpt::serve
