// CORBA Common Data Representation (CDR) marshaling.
//
// CDR is the encoding GIOP uses for every header and body. Rules we follow
// (CORBA 2.3, chapter 15):
//   - a primitive of size N is aligned to an N-byte boundary relative to the
//     start of the encapsulation / message;
//   - the sender writes in its native byte order and flags it; the reader
//     swaps when its order differs;
//   - strings are a ulong length including the terminating NUL, then bytes;
//   - sequences are a ulong element count, then elements.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <string>
#include <string_view>

#include "util/bytes.hpp"

namespace eternal::util {

/// Thrown when a decode runs past the end of the buffer or meets a
/// malformed value. GIOP handlers convert this into a MessageError.
class CdrError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Byte order of an encoded stream. kLittle matches the flag value used in
/// the GIOP header (1 = little-endian).
enum class ByteOrder : std::uint8_t { kBig = 0, kLittle = 1 };

/// Host byte order of this process.
constexpr ByteOrder host_byte_order() noexcept {
  return std::endian::native == std::endian::little ? ByteOrder::kLittle : ByteOrder::kBig;
}

namespace cdr_detail {
/// Reverses the byte order of an unsigned integer.
template <typename T>
constexpr T byteswap(T v) noexcept {
  static_assert(std::is_unsigned_v<T>);
  T out = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out = static_cast<T>(out << 8);
    out |= static_cast<T>(v & 0xff);
    v = static_cast<T>(v >> 8);
  }
  return out;
}
}  // namespace cdr_detail

/// Serializes values into a growing buffer with CDR alignment.
class CdrWriter {
 public:
  /// `order` is the byte order to encode with; defaults to host order, which
  /// is what a real ORB does (writers write native, readers swap).
  explicit CdrWriter(ByteOrder order = host_byte_order()) : order_(order) {}

  /// Reserves `size_hint` bytes up front. An encoder that knows its exact
  /// encoded size (see CdrSizer) passes it here, so the buffer is
  /// allocated once and take() returns it with capacity() == size().
  CdrWriter(ByteOrder order, std::size_t size_hint) : order_(order) { buf_.reserve(size_hint); }

  ByteOrder order() const noexcept { return order_; }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u16(std::uint16_t v) { put_scalar(v); }
  void put_u32(std::uint32_t v) { put_scalar(v); }
  void put_u64(std::uint64_t v) { put_scalar(v); }
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v);

  /// CDR string: ulong length (includes NUL), characters, NUL.
  void put_string(std::string_view s);

  /// CDR sequence<octet>: ulong length then raw bytes.
  void put_octets(BytesView data);

  /// Raw bytes with no length prefix and no alignment (for nested,
  /// already-encoded material such as a GIOP body).
  void put_raw(BytesView data);

  /// Pads to an N-byte boundary (N in {1,2,4,8}).
  void align(std::size_t n) {
    const std::size_t rem = buf_.size() % n;
    if (rem != 0) buf_.resize(buf_.size() + (n - rem), 0);
  }

  /// Current encoded size.
  std::size_t size() const noexcept { return buf_.size(); }

  const Bytes& bytes() const noexcept { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  /// Aligns to sizeof(T), then appends `v` in the stream's byte order.
  template <typename T>
  void put_scalar(T v) {
    align(sizeof(T));
    if (order_ != host_byte_order()) v = cdr_detail::byteswap(v);
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    std::memcpy(buf_.data() + at, &v, sizeof(T));
  }

  ByteOrder order_;
  Bytes buf_;
};

/// Counts the bytes a CdrWriter would produce for the same sequence of
/// calls, alignment padding included, without writing anything. Encoders
/// written once as a template over the writer type run it through a
/// CdrSizer first and hand the result to CdrWriter's size hint, so the
/// size and the bytes come from the same code.
class CdrSizer {
 public:
  void put_u8(std::uint8_t) noexcept { size_ += 1; }
  void put_bool(bool) noexcept { size_ += 1; }
  void put_u16(std::uint16_t) noexcept { scalar(2); }
  void put_u32(std::uint32_t) noexcept { scalar(4); }
  void put_u64(std::uint64_t) noexcept { scalar(8); }
  void put_i32(std::int32_t) noexcept { scalar(4); }
  void put_i64(std::int64_t) noexcept { scalar(8); }
  void put_f64(double) noexcept { scalar(8); }
  void put_string(std::string_view s) noexcept { scalar(4); size_ += s.size() + 1; }
  void put_octets(BytesView data) noexcept { scalar(4); size_ += data.size(); }
  void put_raw(BytesView data) noexcept { size_ += data.size(); }
  void align(std::size_t n) noexcept { size_ += (n - size_ % n) % n; }
  std::size_t size() const noexcept { return size_; }

 private:
  void scalar(std::size_t n) noexcept {
    align(n);
    size_ += n;
  }
  std::size_t size_ = 0;
};

/// Deserializes values from a buffer, tracking alignment from the buffer's
/// first byte. Throws CdrError on underrun.
class CdrReader {
 public:
  CdrReader(BytesView data, ByteOrder order) : data_(data), order_(order) {}

  ByteOrder order() const noexcept { return order_; }

  std::uint8_t get_u8() {
    require(1);
    return data_[pos_++];
  }
  bool get_bool() { return get_u8() != 0; }
  std::uint16_t get_u16() { return get_scalar<std::uint16_t>(); }
  std::uint32_t get_u32() { return get_scalar<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_scalar<std::uint64_t>(); }
  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64();
  std::string get_string();
  Bytes get_octets();

  /// Reads `n` raw bytes with no alignment.
  Bytes get_raw(std::size_t n);

  /// get_raw / get_octets / get_string without the copy: views into the
  /// buffer being read, valid as long as it is.
  BytesView get_raw_view(std::size_t n);
  BytesView get_octets_view() { return get_raw_view(get_u32()); }
  std::string_view get_string_view();

  void align(std::size_t n) {
    const std::size_t rem = pos_ % n;
    if (rem != 0) {
      require(n - rem);
      pos_ += n - rem;
    }
  }

  /// Reads an element count and validates it against the bytes remaining
  /// (each element consumes at least `min_element_bytes`). Prevents a
  /// corrupted count field from driving an unbounded allocation.
  std::uint32_t get_count(std::size_t min_element_bytes = 1) {
    const std::uint32_t n = get_u32();
    if (min_element_bytes != 0 && n > remaining() / min_element_bytes) {
      throw CdrError("CDR count exceeds remaining bytes");
    }
    return n;
  }

  /// Bytes not yet consumed.
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  std::size_t position() const noexcept { return pos_; }
  bool exhausted() const noexcept { return pos_ == data_.size(); }

 private:
  void require(std::size_t n) {
    if (n > data_.size() - pos_) underrun();
  }
  [[noreturn]] static void underrun();

  /// Aligns to sizeof(T), then reads one T in the stream's byte order.
  template <typename T>
  T get_scalar() {
    align(sizeof(T));
    require(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return order_ != host_byte_order() ? cdr_detail::byteswap(v) : v;
  }

  BytesView data_;
  ByteOrder order_;
  std::size_t pos_ = 0;
};

}  // namespace eternal::util
