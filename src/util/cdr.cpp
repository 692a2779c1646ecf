#include "util/cdr.hpp"

namespace eternal::util {

void CdrWriter::put_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(bits);
}

void CdrWriter::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size() + 1));
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  buf_.insert(buf_.end(), p, p + s.size());
  buf_.push_back(0);
}

void CdrWriter::put_octets(BytesView data) {
  put_u32(static_cast<std::uint32_t>(data.size()));
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void CdrWriter::put_raw(BytesView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

void CdrReader::underrun() { throw CdrError("CDR underrun"); }

double CdrReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string_view CdrReader::get_string_view() {
  const std::uint32_t len = get_u32();
  if (len == 0) throw CdrError("CDR string with zero length (must include NUL)");
  require(len);
  if (data_[pos_ + len - 1] != 0) throw CdrError("CDR string missing NUL terminator");
  std::string_view s(reinterpret_cast<const char*>(data_.data() + pos_), len - 1);
  pos_ += len;
  return s;
}

std::string CdrReader::get_string() { return std::string(get_string_view()); }

Bytes CdrReader::get_octets() {
  const std::uint32_t len = get_u32();
  return get_raw(len);
}

Bytes CdrReader::get_raw(std::size_t n) {
  const BytesView v = get_raw_view(n);
  return Bytes(v.begin(), v.end());
}

BytesView CdrReader::get_raw_view(std::size_t n) {
  require(n);
  const BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

}  // namespace eternal::util
