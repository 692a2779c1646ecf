// SeqWindow against a set-only reference.
//
// SeqWindow::test_and_insert has an in-order fast path that extends the
// contiguous prefix without touching the sparse set. This differential test
// drives it and a reference that always goes through the set (the original
// algorithm) with the same 100k operations — in-order runs, gaps and their
// backfill, duplicates, and inserts at the top of the sequence space where
// the prefix saturates — and requires identical answers, state and
// encodings throughout.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>

#include "core/seq_window.hpp"
#include "util/rng.hpp"

namespace eternal::core {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/// The set-only algorithm: every insert goes through the sparse set, then
/// the prefix compacts (saturating at UINT64_MAX).
class ReferenceWindow {
 public:
  bool test_and_insert(std::uint64_t seq) {
    if (seq < next_) return false;
    if (!sparse_.insert(seq).second) return false;
    auto it = sparse_.begin();
    while (it != sparse_.end() && *it == next_) {
      if (next_ == kMax) break;
      ++next_;
      it = sparse_.erase(it);
    }
    return true;
  }
  bool seen(std::uint64_t seq) const { return seq < next_ || sparse_.count(seq) > 0; }
  std::uint64_t contiguous_prefix() const { return next_; }
  std::size_t sparse_size() const { return sparse_.size(); }
  void encode(util::CdrWriter& w) const {
    w.put_u64(next_);
    w.put_u32(static_cast<std::uint32_t>(sparse_.size()));
    for (std::uint64_t s : sparse_) w.put_u64(s);
  }
  explicit ReferenceWindow(std::uint64_t next) : next_(next) {}

 private:
  std::uint64_t next_;
  std::set<std::uint64_t> sparse_;
};

/// A window whose prefix starts at `base` (built through the codec, as a
/// state transfer would).
SeqWindow window_at(std::uint64_t base) {
  util::CdrWriter w;
  w.put_u64(base);
  w.put_u32(0);
  util::CdrReader r(w.bytes(), w.order());
  return SeqWindow::decode(r);
}

void expect_same_encoding(const SeqWindow& win, const ReferenceWindow& ref) {
  util::CdrWriter a;
  util::CdrWriter b;
  win.encode(a);
  ref.encode(b);
  ASSERT_EQ(a.bytes(), b.bytes());
  util::CdrReader r(a.bytes(), a.order());
  EXPECT_EQ(SeqWindow::decode(r), win);
}

/// `top_share` of the operations insert at the very top of the sequence
/// space. Such an insert stays in the sparse set for good (nothing can close
/// the gap below it), which turns the fast path off, so the first run keeps
/// it at 0 and the saturation run reaches the top through in-order runs.
void run_differential(std::uint64_t base, std::uint64_t seed, int ops, double top_share) {
  SeqWindow win = window_at(base);
  ReferenceWindow ref(base);
  util::Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t prefix = ref.contiguous_prefix();
    const double pick = rng.unit();
    std::uint64_t seq;
    if (pick < 0.70) {
      seq = prefix;  // the in-order case the fast path serves
    } else if (pick < 0.85) {
      const std::uint64_t ahead = rng.between(0, 64);
      seq = prefix > kMax - ahead ? kMax : prefix + ahead;  // gap or backfill
    } else if (pick < 1.0 - top_share) {
      const std::uint64_t behind = rng.between(0, 64);
      seq = prefix < behind ? 0 : prefix - behind;  // duplicate below the prefix
    } else {
      seq = kMax - rng.between(0, 3);  // the top of the sequence space
    }
    ASSERT_EQ(win.test_and_insert(seq), ref.test_and_insert(seq)) << "op " << i << " seq " << seq;
    ASSERT_EQ(win.contiguous_prefix(), ref.contiguous_prefix()) << "op " << i;
    ASSERT_EQ(win.sparse_size(), ref.sparse_size()) << "op " << i;
    for (std::uint64_t probe : {seq, seq + 1, seq - 1, prefix, kMax}) {
      ASSERT_EQ(win.seen(probe), ref.seen(probe)) << "op " << i << " probe " << probe;
    }
    if (i % 1000 == 0) expect_same_encoding(win, ref);
  }
  expect_same_encoding(win, ref);
}

TEST(SeqWindowDifferential, MatchesSetOnlyReferenceFromZero) {
  run_differential(0, 0x5EC1, 50'000, 0.0);
}

TEST(SeqWindowDifferential, MatchesSetOnlyReferenceAtSaturation) {
  // Starts 2,000 below UINT64_MAX, so the in-order runs reach the top and
  // the prefix saturates with UINT64_MAX held in the sparse set.
  run_differential(kMax - 2'000, 0x5EC2, 25'000, 0.0);
  run_differential(kMax - 2'000, 0x5EC3, 25'000, 0.05);
}

TEST(SeqWindowDifferential, FastPathStopsShortOfTheMaximum) {
  SeqWindow win = window_at(kMax - 1);
  EXPECT_TRUE(win.test_and_insert(kMax - 1));  // fast path: prefix -> MAX
  EXPECT_EQ(win.contiguous_prefix(), kMax);
  EXPECT_EQ(win.sparse_size(), 0u);
  EXPECT_FALSE(win.seen(kMax));
  EXPECT_TRUE(win.test_and_insert(kMax));  // slow path: pinned in the set
  EXPECT_EQ(win.contiguous_prefix(), kMax);
  EXPECT_EQ(win.sparse_size(), 1u);
  EXPECT_TRUE(win.seen(kMax));
  EXPECT_FALSE(win.test_and_insert(kMax));
}

}  // namespace
}  // namespace eternal::core
