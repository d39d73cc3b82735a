#include "common/binary_io.h"

#include <array>

#include "common/string_util.h"

namespace newslink {

namespace {

/// Slicing-by-8 tables: table[0] is the bytewise CRC table of the reflected
/// polynomial 0xEDB88320, and table[k][b] is the CRC of byte b followed by
/// k zero bytes, so eight table lookups advance the CRC by eight bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < table.size(); ++k) {
      const uint32_t prev = table[k - 1][i];
      table[k][i] = (prev >> 8) ^ table[0][prev & 0xFF];
    }
  }
  return table;
}

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

Status Truncated(std::string_view what, size_t want, size_t have) {
  return Status::IOError(
      StrCat("truncated read: ", what, " needs ", want, " bytes, ", have,
             " remain"));
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data) {
  static const CrcTables table = MakeCrcTables();
  uint32_t c = 0xFFFFFFFFu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = table[7][lo & 0xFF] ^ table[6][(lo >> 8) & 0xFF] ^
        table[5][(lo >> 16) & 0xFF] ^ table[4][lo >> 24] ^
        table[3][hi & 0xFF] ^ table[2][(hi >> 8) & 0xFF] ^
        table[1][(hi >> 16) & 0xFF] ^ table[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = table[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

Status ByteReader::ReadU8(uint8_t* out) {
  if (remaining() < 1) return Truncated("u8", 1, remaining());
  *out = data_[pos_++];
  return Status::OK();
}

Status ByteReader::ReadU32(uint32_t* out) {
  if (remaining() < 4) return Truncated("u32", 4, remaining());
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::OK();
}

Status ByteReader::ReadU64(uint64_t* out) {
  if (remaining() < 8) return Truncated("u64", 8, remaining());
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::OK();
}

Status ByteReader::ReadFloat(float* out) {
  uint32_t bits = 0;
  NL_RETURN_IF_ERROR(ReadU32(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

Status ByteReader::ReadDouble(double* out) {
  uint64_t bits = 0;
  NL_RETURN_IF_ERROR(ReadU64(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

Status ByteReader::ReadVarint(uint32_t* out) {
  uint32_t value = 0;
  // A uint32_t needs at most 5 groups of 7 bits, and the 5th may carry only
  // the top 4 bits (shift 28): capping the loop there is what keeps a run
  // of continuation bytes from shifting past 31 bits or reading on.
  for (int shift = 0; shift <= 28; shift += 7) {
    if (AtEnd()) return Truncated("varint", 1, 0);
    const uint8_t byte = data_[pos_++];
    const uint32_t group = byte & 0x7F;
    if (shift == 28 && group > 0x0F) {
      return Status::IOError("varint overflows 32 bits");
    }
    if (shift > 0 && byte == 0) {
      // WriteVarint never ends a multi-byte encoding with a byte that
      // carries no payload bits; such an overlong encoding is not ours.
      return Status::IOError("overlong varint encoding");
    }
    value |= group << shift;
    if ((byte & 0x80) == 0) {
      *out = value;
      return Status::OK();
    }
  }
  return Status::IOError("varint longer than 5 bytes");
}

Status ByteReader::ReadString(std::string* out, size_t max_len) {
  uint32_t len = 0;
  NL_RETURN_IF_ERROR(ReadU32(&len));
  if (len > max_len) {
    return Status::IOError(
        StrCat("string length ", len, " exceeds limit ", max_len));
  }
  if (remaining() < len) return Truncated("string payload", len, remaining());
  out->assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return Status::OK();
}

Status ByteReader::ReadRaw(void* out, size_t n) {
  if (remaining() < n) return Truncated("raw bytes", n, remaining());
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::Skip(size_t n) {
  if (remaining() < n) return Truncated("skip", n, remaining());
  pos_ += n;
  return Status::OK();
}

Status ByteReader::CheckCount(uint64_t count, size_t min_element_bytes) const {
  const size_t floor = min_element_bytes > 0 ? min_element_bytes : 1;
  if (count > remaining() / floor) {
    return Status::IOError(
        StrCat("element count ", count, " cannot fit in ", remaining(),
               " remaining bytes"));
  }
  return Status::OK();
}

Status ByteReader::ExpectEnd() const {
  if (!AtEnd()) {
    return Status::IOError(
        StrCat(remaining(), " trailing bytes after payload"));
  }
  return Status::OK();
}

}  // namespace newslink
