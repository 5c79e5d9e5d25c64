#include "serve/repl_link.hpp"

#include <algorithm>
#include <utility>

#include "serve/net_util.hpp"
#include "support/failpoint.hpp"
#include "support/wire.hpp"

namespace rpt::serve {

namespace wire = support::wire;

namespace {

// Replication ships WAL records and counts in WAL seqs, so both ends need
// a harness that logs. Checked at construction: a non-durable follower
// would ack seq 2^64-1 after its first RECORD, and a non-durable primary
// would publish locally and then fail to ship.
ServeHarness& RequireDurable(ServeHarness& harness, const char* who) {
  RPT_REQUIRE(harness.Durable(),
              std::string(who) + ": the harness must be durable (constructed with "
                                 "DurabilityOptions or by RecoverFrom)");
  return harness;
}

}  // namespace

std::string EncodeReplFrame(const ReplFrame& frame) {
  std::string out;
  wire::ByteWriter w(out);
  w.U8(static_cast<std::uint8_t>(frame.kind)).U64(frame.epoch);
  switch (frame.kind) {
    case ReplFrameKind::kHello:
    case ReplFrameKind::kAck:
    case ReplFrameKind::kHeartbeat:
      w.U64(frame.seq);
      break;
    case ReplFrameKind::kRecord:
      w.Bytes(frame.record);
      break;
    case ReplFrameKind::kFence:
      break;
    case ReplFrameKind::kVerify:
      w.U64(frame.seq).U64(frame.hash).U8(frame.rejected ? 1 : 0);
      break;
  }
  return out;
}

std::optional<ReplFrame> DecodeReplFrame(const std::string& payload) {
  try {
    wire::ByteReader in(payload);
    ReplFrame frame;
    const std::uint8_t kind = in.U8();
    switch (kind) {
      case static_cast<std::uint8_t>(ReplFrameKind::kHello):
      case static_cast<std::uint8_t>(ReplFrameKind::kAck):
      case static_cast<std::uint8_t>(ReplFrameKind::kHeartbeat):
        frame.epoch = in.U64();
        frame.seq = in.U64();
        break;
      case static_cast<std::uint8_t>(ReplFrameKind::kRecord):
        frame.epoch = in.U64();
        frame.record = in.Rest();
        break;
      case static_cast<std::uint8_t>(ReplFrameKind::kFence):
        frame.epoch = in.U64();
        break;
      case static_cast<std::uint8_t>(ReplFrameKind::kVerify): {
        frame.epoch = in.U64();
        frame.seq = in.U64();
        frame.hash = in.U64();
        const std::uint8_t rejected = in.U8();
        if (rejected > 1) return std::nullopt;
        frame.rejected = rejected == 1;
        break;
      }
      default:
        return std::nullopt;
    }
    in.ExpectExhausted();
    frame.kind = static_cast<ReplFrameKind>(kind);
    return frame;
  } catch (const wire::DecodeError&) {
    return std::nullopt;
  }
}

bool FaultySender::Send(const std::string& payload) {
  const std::lock_guard<std::mutex> lock(mu_);
  // Ordering of the fault sites: a hard partition swallows everything
  // first; the one-shot link faults shape individual frames.
  if (fail::Hit("repl.partition") == fail::Action::kError) return true;
  if (fail::Hit("repl.link.drop") == fail::Action::kError) return true;
  fail::Hit("repl.link.delay");  // kDelay sleeps inside Hit
  const bool dup = fail::Hit("repl.link.dup") == fail::Action::kError;
  if (fail::Hit("repl.link.reorder") == fail::Action::kError && !has_held_) {
    // Park this frame; it goes out AFTER the next one (a two-frame swap —
    // the minimal reorder the seq check must absorb).
    held_ = payload;
    has_held_ = true;
    return true;
  }
  net::IoStatus st = net::SendFrame(fd_, payload);
  if (dup && st == net::IoStatus::kOk) st = net::SendFrame(fd_, payload);
  if (has_held_ && st == net::IoStatus::kOk) {
    st = net::SendFrame(fd_, held_);
    has_held_ = false;
  }
  return st == net::IoStatus::kOk;
}

FollowerCore::FollowerCore(ServeHarness& harness)
    : harness_(RequireDurable(harness, "FollowerCore")) {}

FollowerCore::Outcome FollowerCore::OnRecord(std::uint64_t sender_epoch,
                                             const std::string& record_bytes) {
  // Fencing first: a deposed primary's records must not even be decoded
  // into applies. HIGHER sender epochs pass — the sender is the newer
  // primary and our epoch catches up when its epoch record applies.
  if (sender_epoch < harness_.Epoch()) return Count(fenced_, Outcome::kFenced);
  // TryDecodeFramedRecord: nullopt = transport damage (resync — the retry
  // path); InternalError = valid CRC but unparseable payload (writer bug
  // or version skew — loud, propagates).
  std::optional<WalBatch> batch = EventWal::TryDecodeFramedRecord(record_bytes);
  if (!batch) return Count(resyncs_, Outcome::kResync);
  if (pending_) {
    if (batch->seq != pending_->seq) {
      // A RECORD past the staged one: its VERIFY was lost or overtaken.
      // Staging a second batch would publish the first unverified.
      return Count(resyncs_, Outcome::kResync);
    }
    if (record_bytes != pending_->record) {
      throw InternalError("repl: two different records for staged seq " +
                          std::to_string(batch->seq));
    }
    return Count(duplicates_, Outcome::kDuplicate);
  }
  const std::uint64_t last = harness_.LastDurableSeq();
  if (batch->seq <= last) {
    // Duplicated or re-shipped record: already verified here, re-ack so the
    // primary's watermark can advance even when the original ack was lost.
    return Count(duplicates_, Outcome::kDuplicate);
  }
  if (batch->seq != last + 1) {
    // Gap — a dropped or reordered frame. Applying out of order would
    // fabricate a state the primary never had; ask for a re-ship instead.
    return Count(resyncs_, Outcome::kResync);
  }

  Pending pending{batch->seq, record_bytes, std::nullopt, 0, false};
  if (batch->epoch_bump) {
    // The primary's durable fencing token: adopt it through OUR wal (same
    // seq slot — AdoptEpoch appends at last+1).
    harness_.AdoptEpoch(batch->epoch);
  } else {
    // The primary logged-then-rejected a batch the same way: Apply is
    // deterministic in (state, events), so we re-reject identically, and
    // the seq is consumed either way.
    pending.staged = harness_.Stage(batch->events);
    pending.rejected = pending.staged->rejection != nullptr;
  }
  // The hash VERIFY must match, computed while the primary is still
  // applying; a rejected batch or an epoch record leaves the published
  // snapshot as it is.
  pending.hash = pending.staged && pending.staged->snapshot
                     ? pending.staged->snapshot->CanonicalHash()
                     : harness_.Pin()->CanonicalHash();
  pending_ = std::move(pending);
  return Count(staged_, Outcome::kStaged);
}

FollowerCore::Outcome FollowerCore::OnVerify(std::uint64_t sender_epoch, std::uint64_t seq,
                                             std::uint64_t hash, bool rejected) {
  if (sender_epoch < harness_.Epoch()) return Count(fenced_, Outcome::kFenced);
  // Divergence check: after the same record the follower must be
  // byte-identical to what the primary published (CanonicalHash covers the
  // full placement table + version). A mismatch means replicas forked —
  // the one failure replication exists to rule out, so it is loud.
  const auto require_hash = [&](std::uint64_t got) {
    if (got != hash) {
      throw InternalError("repl: divergence at seq " + std::to_string(seq) +
                          ": follower hash " + std::to_string(got) +
                          " != primary hash " + std::to_string(hash));
    }
  };
  const std::uint64_t verified = VerifiedSeq();
  if (seq <= verified) {
    // A duplicate, or the VERIFY a resync starts with: the published
    // snapshot is the state at `verified`, so that one is checked again.
    if (seq == verified) require_hash(harness_.Pin()->CanonicalHash());
    return Count(duplicates_, Outcome::kDuplicate);
  }
  if (!pending_ || seq != pending_->seq) return Count(resyncs_, Outcome::kResync);
  if (rejected != pending_->rejected) {
    throw InternalError("repl: divergence at seq " + std::to_string(seq) + ": the " +
                        (rejected ? "primary" : "follower") +
                        " rejected the batch and the other applied it");
  }
  require_hash(pending_->hash);
  CommitPending();
  return Count(applied_, Outcome::kApplied);
}

void FollowerCore::CommitPending() {
  if (!pending_) return;
  std::optional<Pending> pending = std::exchange(pending_, std::nullopt);
  if (pending->staged) harness_.Commit(std::move(*pending->staged));
}

// ---------------------------------------------------------------------------
// ReplPrimary

struct ReplPrimary::FollowerConn {
  explicit FollowerConn(int fd_in) : sender(fd_in) {}
  FaultySender sender;
  std::uint64_t acked = 0;  // guarded by ReplPrimary::mu_
};

ReplPrimary::ReplPrimary(ServeHarness& harness, ReplPrimaryOptions options)
    : harness_(RequireDurable(harness, "ReplPrimary")), options_(options),
      core_(std::make_unique<net::ConnectionCore>()) {}

ReplPrimary::~ReplPrimary() { Stop(); }

void ReplPrimary::Start(std::uint16_t port) {
  RPT_REQUIRE(!core_->Running(), "ReplPrimary: already started");
  {
    const std::lock_guard<std::mutex> lock(mu_);
    base_seq_ = harness_.LastDurableSeq();
  }
  core_->Start(port, options_.io_timeout_ms, [this](int fd) { ServeFollower(fd); });
}

void ReplPrimary::Stop() { core_->Stop(); }

std::uint16_t ReplPrimary::Port() const noexcept { return core_->Port(); }

std::size_t ReplPrimary::HandlerThreads() const { return core_->Handlers(); }

void ReplPrimary::ShipRetainedFrom(FollowerConn& conn, std::uint64_t verified_seq) {
  // Caller holds mu_. The VERIFY of the follower's own seq comes first, so
  // a follower that recovered from its disk checks that state too. The
  // scan is seq-tagged (not an index) so a retention hole — a seq consumed
  // during a primary durability error — cannot misalign the stream; the
  // follower's contiguity check turns a hole into a resync loop, which is
  // the documented degraded shape, never a wrong apply.
  for (const Retained& r : retained_) {
    if (r.seq > verified_seq) conn.sender.Send(r.record);
    if (r.seq >= verified_seq && !r.verify.empty()) conn.sender.Send(r.verify);
  }
}

void ReplPrimary::ServeFollower(int fd) {
  // Registered in conns_ on its first accepted HELLO, and erased under mu_
  // on exit — before the core closes the fd, so no sender (every one holds
  // mu_) ever writes to a closed or reused fd.
  const auto conn = std::make_shared<FollowerConn>(fd);
  std::string payload;
  bool refuse = false;
  while (!refuse) {  // Stop() shuts the fd down, which ends the next read
    const net::IoStatus st = net::RecvFrame(fd, payload, kMaxReplFrameBytes);
    if (st == net::IoStatus::kTimeout) continue;  // idle follower is fine
    if (st == net::IoStatus::kClosed) break;
    const std::optional<ReplFrame> frame = DecodeReplFrame(payload);
    if (!frame) continue;  // corrupt control frame — the sender will retry
    switch (frame->kind) {
      case ReplFrameKind::kHello: {
        const std::lock_guard<std::mutex> lock(mu_);
        if (frame->seq < base_seq_) {
          // Below the retained range: this primary cannot catch the
          // follower up (bootstrap-from-checkpoint is future work).
          // Closing is the loud answer — the follower sees its HELLOs
          // answered with a hangup, not a silent stall.
          refuse = true;
          break;
        }
        if (std::find(conns_.begin(), conns_.end(), conn) == conns_.end()) {
          conns_.push_back(conn);
        }
        conn->acked = std::max(conn->acked, frame->seq);
        ShipRetainedFrom(*conn, frame->seq);
        cv_.notify_all();
        break;
      }
      case ReplFrameKind::kAck: {
        const std::lock_guard<std::mutex> lock(mu_);
        if (frame->seq > conn->acked) conn->acked = frame->seq;
        // Watermark: the largest seq EVERY live subscribed follower has
        // acked; monotone (a follower that dies does not roll it back —
        // its acked writes are still on its disk).
        std::uint64_t floor = UINT64_MAX;
        for (const auto& c : conns_) floor = std::min(floor, c->acked);
        if (!conns_.empty() && floor > watermark_) watermark_ = floor;
        cv_.notify_all();
        break;
      }
      case ReplFrameKind::kFence:
        // A higher epoch exists: this primary is deposed. Record it and
        // let Apply() throw — the connection stays up (the fencer may keep
        // fencing; that is correct and idempotent).
        fenced_by_.store(frame->epoch, std::memory_order_release);
        fenced_.store(true, std::memory_order_release);
        cv_.notify_all();
        break;
      default:
        break;  // followers do not send RECORD/VERIFY/HEARTBEAT; ignore
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    std::erase(conns_, conn);
  }
  cv_.notify_all();
}

void ReplPrimary::Broadcast(std::uint64_t seq, std::string payload, bool verify) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (verify) {
    // Apply is update-thread-only, so the batch's RECORD is the newest.
    RPT_CHECK(!retained_.empty() && retained_.back().seq == seq);
    retained_.back().verify = std::move(payload);
  } else {
    retained_.push_back(Retained{seq, std::move(payload), {}});
  }
  const Retained& r = retained_.back();
  for (const auto& conn : conns_) conn->sender.Send(verify ? r.verify : r.record);
}

bool ReplPrimary::Apply(std::span<const incremental::UpdateEvent> events) {
  if (Fenced()) {
    throw InternalError(
        "repl: this primary is fenced by epoch " +
        std::to_string(FencedBy()) +
        " (a follower promoted); refusing to apply — deposed primaries do "
        "not write");
  }
  // The RECORD leaves as soon as the batch is WAL-durable — the exact bytes
  // the WAL wrote — so the followers apply it while our solver does. A
  // rejected batch still consumed a seq and still ships. (InternalError /
  // InjectedFault from the append propagate before anything ships: a
  // batch the local log never committed must never reach a follower.)
  ServeHarness::StagedBatch staged =
      harness_.Stage(events, [this](std::uint64_t seq, const std::string& record) {
        ReplFrame frame;
        frame.kind = ReplFrameKind::kRecord;
        frame.epoch = harness_.Epoch();
        frame.record = record;
        Broadcast(seq, EncodeReplFrame(frame), /*verify=*/false);
      });
  fail::Hit("repl.pre_verify");  // crash window: RECORD shipped, VERIFY not

  const std::uint64_t seq = staged.seq;
  const std::exception_ptr rejection = staged.rejection;
  harness_.Commit(std::move(staged));
  ReplFrame verify;
  verify.kind = ReplFrameKind::kVerify;
  verify.epoch = harness_.Epoch();
  verify.seq = seq;
  verify.hash = harness_.Pin()->CanonicalHash();
  verify.rejected = rejection != nullptr;
  Broadcast(seq, EncodeReplFrame(verify), /*verify=*/true);

  bool all_acked;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto caught_up = [&] {
      return std::all_of(conns_.begin(), conns_.end(),
                         [seq](const auto& c) { return c->acked >= seq; });
    };
    if (options_.ack_wait_ms > 0) {
      all_acked = cv_.wait_for(
          lock, std::chrono::milliseconds(options_.ack_wait_ms), caught_up);
    } else {
      all_acked = caught_up();
    }
  }
  if (rejection) std::rethrow_exception(rejection);
  return all_acked;
}

void ReplPrimary::Heartbeat() {
  ReplFrame frame;
  frame.kind = ReplFrameKind::kHeartbeat;
  frame.epoch = harness_.Epoch();
  const std::lock_guard<std::mutex> lock(mu_);
  frame.seq = watermark_;
  const std::string payload = EncodeReplFrame(frame);
  for (const auto& conn : conns_) conn->sender.Send(payload);
}

std::uint64_t ReplPrimary::Watermark() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return watermark_;
}

int ReplPrimary::Followers() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(conns_.size());
}

bool ReplPrimary::WaitForFollowers(int count, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return static_cast<int>(conns_.size()) >= count;
  });
}

// ---------------------------------------------------------------------------
// ReplFollower

ReplFollower::ReplFollower(ServeHarness& harness, std::uint16_t primary_port,
                           ReplFollowerOptions options)
    : harness_(RequireDurable(harness, "ReplFollower")), core_(harness),
      primary_port_(primary_port), options_(options) {}

ReplFollower::~ReplFollower() { Stop(); }

bool ReplFollower::TryConnect() {
  int fd = -1;
  try {
    fd = net::ConnectLoopback(primary_port_, options_.connect_timeout_ms,
                              options_.io_timeout_ms,
                              [](const std::string& what, bool) {
                                throw InternalError("ReplFollower: " + what);
                              });
  } catch (const InternalError&) {
    return false;
  }
  fd_.store(fd, std::memory_order_release);
  sender_ = std::make_unique<FaultySender>(fd);
  std::uint64_t verified;
  {
    const std::lock_guard<std::mutex> lock(promote_mu_);
    verified = core_.VerifiedSeq();
  }
  Send(ReplFrameKind::kHello, verified);
  return true;
}

void ReplFollower::Send(ReplFrameKind kind, std::uint64_t seq) {
  ReplFrame frame;
  frame.kind = kind;
  frame.epoch = harness_.Epoch();
  frame.seq = seq;
  sender_->Send(EncodeReplFrame(frame));
}

void ReplFollower::Start() {
  RPT_REQUIRE(!running_.load(std::memory_order_acquire),
              "ReplFollower: already started");
  RPT_REQUIRE(TryConnect(),
              "ReplFollower: cannot reach primary on port " +
                  std::to_string(primary_port_) +
                  " (a follower that never saw its primary is a config "
                  "error, not a failover)");
  harness_.SetFollower(true);
  last_heartbeat_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  link_thread_ = std::thread(&ReplFollower::LinkLoop, this);
}

void ReplFollower::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  if (link_thread_.joinable()) link_thread_.join();
  net::CloseQuiet(fd_.load(std::memory_order_acquire));
  fd_.store(-1, std::memory_order_release);
  sender_.reset();
  const std::lock_guard<std::mutex> lock(promote_mu_);
  core_.CommitPending();
}

void ReplFollower::MaybePromoteOnSilence() {
  if (options_.heartbeat_timeout_ms <= 0) return;
  if (promoted_.load(std::memory_order_acquire)) return;
  const auto elapsed = std::chrono::steady_clock::now() - last_heartbeat_;
  if (elapsed >= std::chrono::milliseconds(options_.heartbeat_timeout_ms)) {
    Promote();
  }
}

void ReplFollower::Promote() {
  const std::lock_guard<std::mutex> lock(promote_mu_);
  if (promoted_.load(std::memory_order_acquire)) return;
  // A batch staged without its VERIFY is WAL-durable here, so it is a
  // committed batch: publish it before the epoch record follows it.
  core_.CommitPending();
  // Durable-before-visible: the epoch record hits OUR wal before the new
  // epoch can fence anyone — a promoted follower that crashes right here
  // recovers still promoted (or never promoted); never half.
  harness_.AdoptEpoch(harness_.Epoch() + 1);
  harness_.SetFollower(false);
  {
    const std::lock_guard<std::mutex> seq_lock(seq_mu_);
    applied_seq_ = harness_.LastDurableSeq();
  }
  promoted_.store(true, std::memory_order_release);
  seq_cv_.notify_all();
}

void ReplFollower::HandleFrame(const std::string& payload) {
  const std::optional<ReplFrame> frame = DecodeReplFrame(payload);
  if (!frame) return;  // corrupt control frame — next heartbeat re-syncs
  if (frame->kind == ReplFrameKind::kHeartbeat) {
    if (frame->epoch < harness_.Epoch()) {
      Send(ReplFrameKind::kFence);
    } else {
      last_heartbeat_ = std::chrono::steady_clock::now();
    }
    return;
  }
  if (frame->kind != ReplFrameKind::kRecord && frame->kind != ReplFrameKind::kVerify) {
    return;  // primaries do not send HELLO/ACK/FENCE; ignore
  }
  FollowerCore::Outcome outcome;
  std::uint64_t verified;
  {
    // Serialize the harness mutation against a concurrent Promote(): the
    // harness has a single-update-thread contract and promotion is an
    // update (a durable epoch append).
    const std::lock_guard<std::mutex> lock(promote_mu_);
    outcome = frame->kind == ReplFrameKind::kRecord
                  ? core_.OnRecord(frame->epoch, frame->record)
                  : core_.OnVerify(frame->epoch, frame->seq, frame->hash, frame->rejected);
    verified = core_.VerifiedSeq();
  }
  switch (outcome) {
    case FollowerCore::Outcome::kStaged:
      break;  // publish and ack wait for the VERIFY
    case FollowerCore::Outcome::kApplied:
    case FollowerCore::Outcome::kDuplicate:
      {
        const std::lock_guard<std::mutex> seq_lock(seq_mu_);
        applied_seq_ = verified;
      }
      seq_cv_.notify_all();
      Send(ReplFrameKind::kAck, verified);
      break;
    case FollowerCore::Outcome::kResync:
      Send(ReplFrameKind::kHello, verified);
      break;
    case FollowerCore::Outcome::kFenced:
      // A stale-epoch sender gets told, loudly and repeatedly. NOT proof
      // of life: a deposed primary must not hold off anything.
      Send(ReplFrameKind::kFence);
      return;
  }
  // A frame from a live primary is proof of life.
  last_heartbeat_ = std::chrono::steady_clock::now();
}

void ReplFollower::LinkLoop() {
  std::string payload;
  while (running_.load(std::memory_order_acquire)) {
    if (fd_.load(std::memory_order_relaxed) < 0) {
      if (promoted_.load(std::memory_order_acquire)) {
        // Promoted and disconnected: nothing left to fence over this link.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.reconnect_backoff_ms));
        continue;
      }
      MaybePromoteOnSilence();
      if (!running_.load(std::memory_order_acquire)) break;
      if (!TryConnect()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.reconnect_backoff_ms));
        continue;
      }
    }
    const net::IoStatus st = net::RecvFrame(fd_.load(std::memory_order_relaxed),
                                            payload, kMaxReplFrameBytes);
    if (st == net::IoStatus::kTimeout) {
      // Silence tick: the wire is up but nothing is flowing — exactly the
      // window a dead-but-connected primary shows.
      MaybePromoteOnSilence();
      continue;
    }
    if (st == net::IoStatus::kClosed) {
      net::CloseQuiet(fd_.load(std::memory_order_relaxed));
      fd_.store(-1, std::memory_order_release);
      sender_.reset();
      continue;
    }
    HandleFrame(payload);
  }
}

bool ReplFollower::WaitForSeq(std::uint64_t seq, int timeout_ms) {
  std::unique_lock<std::mutex> lock(seq_mu_);
  return seq_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                          [&] { return applied_seq_ >= seq; });
}

std::uint64_t ReplFollower::StaleEpochRejections() const {
  return core_.StaleEpochRejections();
}

}  // namespace rpt::serve
