// The one byte codec and record frame behind every binary format: the event
// WAL, the replication stream, the query wire and the rpt-btab boundary
// tables. All fields are little-endian. ByteReader checks every read against
// the bytes left, and Count() refuses an element count whose elements cannot
// fit in them, so no decoder can reserve from a lying field. Its failures
// throw DecodeError, which each format turns into its own error type at its
// one decode entry point.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/crc32.hpp"

namespace rpt::support::wire {

/// A decode ran past its input or met a count that cannot fit in it.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends fields to `Buffer` (std::string or std::vector<std::uint8_t>).
template <typename Buffer>
class ByteWriter {
 public:
  explicit ByteWriter(Buffer& out) : out_(out) {}

  ByteWriter& U8(std::uint8_t v) { return Le(v, 1); }
  ByteWriter& U32(std::uint32_t v) { return Le(v, 4); }
  ByteWriter& U64(std::uint64_t v) { return Le(v, 8); }
  template <typename Range>
  ByteWriter& Bytes(const Range& bytes) {
    out_.insert(out_.end(), std::begin(bytes), std::end(bytes));
    return *this;
  }

 private:
  ByteWriter& Le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      out_.push_back(static_cast<typename Buffer::value_type>(v >> (8 * i)));
    }
    return *this;
  }

  Buffer& out_;
};

/// Bounds-checked little-endian cursor over borrowed bytes.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes)
      : data_(reinterpret_cast<const unsigned char*>(bytes.data())), size_(bytes.size()) {}
  explicit ByteReader(std::span<const std::uint8_t> bytes)
      : data_(bytes.data()), size_(bytes.size()) {}

  std::uint8_t U8() { return static_cast<std::uint8_t>(Le(1)); }
  std::uint32_t U32() { return static_cast<std::uint32_t>(Le(4)); }
  std::uint64_t U64() { return Le(8); }

  /// Reads a u32 element count and refuses it unless that many elements of
  /// at least `min_elem_bytes` each fit in the bytes left.
  std::uint32_t Count(std::size_t min_elem_bytes) {
    const std::uint32_t count = U32();
    ExpectRoom(count, min_elem_bytes);
    return count;
  }

  /// Throws unless `count` elements of at least `min_elem_bytes` (> 0) each
  /// fit in the bytes left.
  void ExpectRoom(std::uint64_t count, std::size_t min_elem_bytes) const {
    if (count > Remaining() / min_elem_bytes) {
      throw DecodeError("element count exceeds the bytes left");
    }
  }

  /// Consumes and returns every byte left.
  std::string_view Rest() {
    const std::string_view rest(reinterpret_cast<const char*>(data_ + pos_), Remaining());
    pos_ = size_;
    return rest;
  }

  /// Throws unless every byte was consumed.
  void ExpectExhausted() const {
    if (pos_ != size_) throw DecodeError("trailing bytes after the last field");
  }

 private:
  [[nodiscard]] std::size_t Remaining() const { return size_ - pos_; }

  std::uint64_t Le(std::size_t width) {
    if (Remaining() < width) throw DecodeError("payload underruns its fields");
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += width;
    return v;
  }

  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// The record frame sealing WAL and btab records: len u32 | crc u32 (CRC-32
/// of the payload) | payload.
inline constexpr std::size_t kFrameHeaderBytes = 8;

inline void AppendFrame(std::string& out, std::string_view payload) {
  ByteWriter(out)
      .U32(static_cast<std::uint32_t>(payload.size()))
      .U32(Crc32(payload))
      .Bytes(payload);
}

/// The payload of the record framed at `off` — only when its length is in
/// [1, max_len], the whole payload is present and its CRC matches.
inline std::optional<std::string_view> FrameAt(std::string_view bytes, std::size_t off,
                                               std::uint32_t max_len) {
  if (off > bytes.size() || bytes.size() - off < kFrameHeaderBytes) return std::nullopt;
  ByteReader header(bytes.substr(off, kFrameHeaderBytes));
  const std::uint32_t len = header.U32();
  const std::uint32_t crc = header.U32();
  if (len == 0 || len > max_len) return std::nullopt;
  if (bytes.size() - off - kFrameHeaderBytes < len) return std::nullopt;
  const std::string_view payload = bytes.substr(off + kFrameHeaderBytes, len);
  if (Crc32(payload) != crc) return std::nullopt;
  return payload;
}

/// Stream framing of the TCP surfaces: a u32 byte count, then the payload.
inline constexpr std::size_t kPrefixBytes = 4;

inline std::uint32_t PrefixLength(const std::uint8_t (&prefix)[kPrefixBytes]) {
  return ByteReader(std::span<const std::uint8_t>(prefix)).U32();
}

template <typename Buffer, typename Range>
void AppendPrefixed(Buffer& out, const Range& payload) {
  ByteWriter(out).U32(static_cast<std::uint32_t>(std::size(payload))).Bytes(payload);
}

}  // namespace rpt::support::wire
