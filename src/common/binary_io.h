// Bounds-checked binary serialization primitives shared by every on-disk
// artifact (engine snapshots: index sections, embeddings, sketches). Its
// varint is the one variable-byte codec in the tree: posting gaps and
// frequencies, doc lengths, doc maps, sketch deltas and embedding counts
// are all written by ByteWriter and read back by ByteReader.
// All multi-byte integers are little-endian regardless of host order, so a
// snapshot written on one machine loads on any other.
//
// The reader half is deliberately paranoid: every length, count, and value
// read is bounds-checked against the remaining payload and returns Status
// instead of over-reading, so corrupt or truncated files fail cleanly (no
// crash, no UB) — the contract the snapshot loader and the hardened text
// readers both build on.

#ifndef NEWSLINK_COMMON_BINARY_IO_H_
#define NEWSLINK_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace newslink {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG one) of `data`.
uint32_t Crc32(std::span<const uint8_t> data);

/// \brief Incremental FNV-1a 64-bit fingerprint over typed fields.
///
/// Used for the KG / corpus / config fingerprints embedded in snapshots:
/// cheap, deterministic, and order-sensitive. Not cryptographic — it guards
/// against accidental mismatches (stale artifacts), not adversaries.
class Fingerprinter {
 public:
  Fingerprinter& Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
    return *this;
  }
  Fingerprinter& Add(std::string_view s) {
    Add(static_cast<uint64_t>(s.size()));
    for (char c : s) Byte(static_cast<uint8_t>(c));
    return *this;
  }
  Fingerprinter& Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return Add(bits);
  }

  uint64_t Digest() const { return hash_; }

 private:
  void Byte(uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ull;  // FNV prime
  }
  uint64_t hash_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

/// \brief Append-only byte buffer with fixed-width and varint encoders.
class ByteWriter {
 public:
  void WriteU8(uint8_t v) { bytes_.push_back(v); }
  void WriteU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void WriteU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void WriteFloat(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU32(bits);
  }
  void WriteDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU64(bits);
  }
  /// 7-bit groups with a continuation bit (the posting-list codec).
  void WriteVarint(uint32_t v) {
    while (v >= 0x80) {
      bytes_.push_back(static_cast<uint8_t>(v & 0x7F) | 0x80);
      v >>= 7;
    }
    bytes_.push_back(static_cast<uint8_t>(v));
  }
  /// u32 length prefix + raw bytes.
  void WriteString(std::string_view s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    WriteRaw(s.data(), s.size());
  }
  void WriteRaw(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  std::vector<uint8_t> bytes_;
};

/// \brief Bounds-checked cursor over an immutable byte span.
///
/// Every Read* returns Status::IOError on over-read; the cursor does not
/// advance past the end, so a caller can safely chain reads and check once.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  Status ReadU8(uint8_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadFloat(float* out);
  Status ReadDouble(double* out);
  /// Decodes one WriteVarint encoding. IOError on truncation, on an
  /// encoding longer than 5 bytes or overflowing 32 bits, and on an
  /// overlong one (a multi-byte encoding whose last byte carries no
  /// payload bits), so every accepted value has exactly one encoding.
  Status ReadVarint(uint32_t* out);
  /// Rejects length prefixes larger than `max_len` or the remaining bytes.
  Status ReadString(std::string* out, size_t max_len = kDefaultMaxString);
  Status ReadRaw(void* out, size_t n);
  Status Skip(size_t n);

  /// A count of elements each occupying at least `min_element_bytes` must
  /// fit in the remaining payload — rejects absurd counts from corrupt
  /// headers before any allocation happens.
  Status CheckCount(uint64_t count, size_t min_element_bytes) const;

  /// Error unless the cursor consumed the payload exactly.
  Status ExpectEnd() const;

  static constexpr size_t kDefaultMaxString = 1 << 20;

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace newslink

#endif  // NEWSLINK_COMMON_BINARY_IO_H_
