// Golden-file helpers shared by the cross-build behaviour suites
// (fingerprint_test, exec_conformance_test): an incremental FNV-1a digest
// over text fields and a "<key> <fields...>" golden store under tests/data.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <string_view>

namespace eternal::test_support {

/// Incremental 64-bit FNV-1a over text fields.
class Digest {
 public:
  void add(std::string_view s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
    h_ ^= 0xff;  // field separator, so ("ab","c") != ("a","bc")
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Golden lines keyed by their first word; '#' lines are comments.
inline std::map<std::string, std::string> load_golden_lines(const std::string& path) {
  std::map<std::string, std::string> goldens;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    goldens[line.substr(0, line.find(' '))] = line;
  }
  return goldens;
}

}  // namespace eternal::test_support
