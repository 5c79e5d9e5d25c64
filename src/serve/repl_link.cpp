#include "serve/repl_link.hpp"

#include <algorithm>
#include <utility>

#include "serve/net_util.hpp"
#include "support/failpoint.hpp"
#include "support/wire.hpp"

namespace rpt::serve {

namespace wire = support::wire;

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
      w.U64(frame.hash).Bytes(frame.record);
      break;
    case ReplFrameKind::kFence:
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
        frame.hash = in.U64();
        frame.record = in.Rest();
        break;
      case static_cast<std::uint8_t>(ReplFrameKind::kFence):
        frame.epoch = in.U64();
        break;
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

FollowerCore::Outcome FollowerCore::OnRecord(std::uint64_t sender_epoch,
                                             std::uint64_t expected_hash,
                                             const std::string& record_bytes) {
  // Fencing first: a deposed primary's records must not even be decoded
  // into applies. HIGHER sender epochs pass — the sender is the newer
  // primary and our epoch catches up when its epoch record applies.
  if (sender_epoch < harness_.Epoch()) {
    fenced_.fetch_add(1, std::memory_order_relaxed);
    return Outcome::kFenced;
  }
  // TryDecodeFramedRecord: nullopt = transport damage (resync — the retry
  // path); InternalError = valid CRC but unparseable payload (writer bug
  // or version skew — loud, propagates).
  const std::optional<WalBatch> batch =
      EventWal::TryDecodeFramedRecord(record_bytes);
  if (!batch) {
    resyncs_.fetch_add(1, std::memory_order_relaxed);
    return Outcome::kResync;
  }
  const std::uint64_t last = harness_.LastDurableSeq();
  if (batch->seq <= last) {
    // Duplicated or re-shipped record: already durable here, re-ack so the
    // primary's watermark can advance even when the original ack was lost.
    duplicates_.fetch_add(1, std::memory_order_relaxed);
    return Outcome::kDuplicate;
  }
  if (batch->seq != last + 1) {
    // Gap — a dropped or reordered frame. Applying out of order would
    // fabricate a state the primary never had; ask for a re-ship instead.
    resyncs_.fetch_add(1, std::memory_order_relaxed);
    return Outcome::kResync;
  }

  if (batch->epoch_bump) {
    // The primary's durable fencing token: adopt it through OUR wal (same
    // seq slot — AdoptEpoch appends at last+1).
    harness_.AdoptEpoch(batch->epoch);
  } else {
    try {
      harness_.ApplyAndPublish(batch->events);
    } catch (const InvalidArgument&) {
      // The primary logged-then-rejected this batch; Apply is
      // deterministic in (state, events), so we re-reject identically.
      // The seq is consumed either way.
    }
  }
  // Divergence check: after applying the same record the follower must be
  // byte-identical to what the primary published (CanonicalHash covers the
  // full placement table + version). A mismatch means replicas forked —
  // the one failure replication exists to rule out, so it is loud.
  const std::uint64_t got = harness_.Pin()->CanonicalHash();
  if (got != expected_hash) {
    throw InternalError(
        "repl: divergence at seq " + std::to_string(batch->seq) +
        ": follower hash " + std::to_string(got) + " != primary hash " +
        std::to_string(expected_hash));
  }
  applied_.fetch_add(1, std::memory_order_relaxed);
  return Outcome::kApplied;
}

// ---------------------------------------------------------------------------
// ReplPrimary

struct ReplPrimary::FollowerConn {
  explicit FollowerConn(int fd_in) : sender(fd_in) {}
  FaultySender sender;
  std::uint64_t acked = 0;  // guarded by ReplPrimary::mu_
};

ReplPrimary::ReplPrimary(ServeHarness& harness, ReplPrimaryOptions options)
    : harness_(harness), options_(options),
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

void ReplPrimary::ShipRetainedFrom(FollowerConn& conn, std::uint64_t after_seq) {
  // Caller holds mu_. Seq-tagged scan (not an index) so a retention hole —
  // a seq consumed during a primary durability error — cannot misalign the
  // stream; the follower's contiguity check turns a hole into a resync
  // loop, which is the documented degraded shape, never a wrong apply.
  for (const Retained& r : retained_) {
    if (r.seq > after_seq) conn.sender.Send(r.payload);
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
        break;  // followers do not send RECORD/HEARTBEAT; ignore
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    std::erase(conns_, conn);
  }
  cv_.notify_all();
}

void ReplPrimary::BroadcastRecord(const std::string& frame_payload,
                                  std::uint64_t seq) {
  const std::lock_guard<std::mutex> lock(mu_);
  retained_.push_back(Retained{seq, frame_payload});
  for (const auto& conn : conns_) conn->sender.Send(frame_payload);
}

bool ReplPrimary::Apply(std::span<const incremental::UpdateEvent> events) {
  if (Fenced()) {
    throw InternalError(
        "repl: this primary is fenced by epoch " +
        std::to_string(FencedBy()) +
        " (a follower promoted); refusing to apply — deposed primaries do "
        "not write");
  }
  // Local commit first (log-then-apply inside the harness). A rejected
  // batch still consumed a seq and must still ship — followers re-reject
  // it deterministically; swallowing it here would desync every stream.
  std::exception_ptr rejected;
  try {
    (void)harness_.ApplyAndPublish(events);
  } catch (const InvalidArgument&) {
    rejected = std::current_exception();
  }
  // (InternalError/InjectedFault propagate above WITHOUT shipping: a batch
  // the local log never committed must never reach a follower.)

  const std::uint64_t seq = harness_.LastDurableSeq();
  ReplFrame frame;
  frame.kind = ReplFrameKind::kRecord;
  frame.epoch = harness_.Epoch();
  frame.hash = harness_.Pin()->CanonicalHash();
  frame.record = EventWal::FrameRecord(EventWal::EncodeBatchPayload(
      seq, std::vector<incremental::UpdateEvent>(events.begin(), events.end())));
  BroadcastRecord(EncodeReplFrame(frame), seq);

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
  if (rejected) std::rethrow_exception(rejected);
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
    : harness_(harness), core_(harness), primary_port_(primary_port),
      options_(options) {}

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
  ReplFrame hello;
  hello.kind = ReplFrameKind::kHello;
  hello.epoch = harness_.Epoch();
  hello.seq = harness_.LastDurableSeq();
  sender_->Send(EncodeReplFrame(hello));
  return true;
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
  switch (frame->kind) {
    case ReplFrameKind::kRecord: {
      FollowerCore::Outcome outcome;
      {
        // Serialize the harness mutation against a concurrent Promote():
        // the harness has a single-update-thread contract and promotion is
        // an update (a durable epoch append).
        const std::lock_guard<std::mutex> lock(promote_mu_);
        outcome = core_.OnRecord(frame->epoch, frame->hash, frame->record);
      }
      switch (outcome) {
        case FollowerCore::Outcome::kApplied:
        case FollowerCore::Outcome::kDuplicate: {
          {
            const std::lock_guard<std::mutex> seq_lock(seq_mu_);
            applied_seq_ = harness_.LastDurableSeq();
          }
          seq_cv_.notify_all();
          ReplFrame ack;
          ack.kind = ReplFrameKind::kAck;
          ack.epoch = harness_.Epoch();
          ack.seq = harness_.LastDurableSeq();
          sender_->Send(EncodeReplFrame(ack));
          // A record from a live primary is proof of life.
          last_heartbeat_ = std::chrono::steady_clock::now();
          break;
        }
        case FollowerCore::Outcome::kResync: {
          ReplFrame hello;
          hello.kind = ReplFrameKind::kHello;
          hello.epoch = harness_.Epoch();
          hello.seq = harness_.LastDurableSeq();
          sender_->Send(EncodeReplFrame(hello));
          last_heartbeat_ = std::chrono::steady_clock::now();
          break;
        }
        case FollowerCore::Outcome::kFenced: {
          // A stale-epoch sender gets told, loudly and repeatedly. NOT
          // proof of life: a deposed primary must not hold off anything.
          ReplFrame fence;
          fence.kind = ReplFrameKind::kFence;
          fence.epoch = harness_.Epoch();
          sender_->Send(EncodeReplFrame(fence));
          break;
        }
      }
      break;
    }
    case ReplFrameKind::kHeartbeat: {
      if (frame->epoch < harness_.Epoch()) {
        ReplFrame fence;
        fence.kind = ReplFrameKind::kFence;
        fence.epoch = harness_.Epoch();
        sender_->Send(EncodeReplFrame(fence));
      } else {
        last_heartbeat_ = std::chrono::steady_clock::now();
      }
      break;
    }
    default:
      break;  // primaries do not send HELLO/ACK/FENCE; ignore
  }
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
