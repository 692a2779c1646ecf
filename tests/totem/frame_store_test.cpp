// FrameStore: the seq-indexed window behind Totem's held frames, checked
// against a std::map reference (the structure it replaced).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <random>
#include <vector>

#include "totem/frame_store.hpp"

namespace eternal::totem {
namespace {

DataFrame frame(std::uint64_t seq, std::uint8_t version) {
  DataFrame f;
  f.seq = seq;
  f.msg_id = seq * 10 + version;
  f.payload = util::Bytes(1 + seq % 7, version);
  return f;
}

std::vector<std::uint64_t> held(const FrameStore& store, std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::uint64_t> seqs;
  store.for_each(lo, hi, [&](const DataFrame& f) {
    seqs.push_back(f.seq);
    return true;
  });
  return seqs;
}

TEST(FrameStore, EmplaceFindAndDuplicates) {
  FrameStore store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.find(1), nullptr);
  EXPECT_TRUE(store.emplace(frame(5, 1)));
  EXPECT_FALSE(store.emplace(frame(5, 2)));  // first copy wins
  ASSERT_NE(store.find(5), nullptr);
  EXPECT_EQ(store.find(5)->msg_id, 51u);
  EXPECT_FALSE(store.emplace(frame(0, 1)));  // seq 0 is never stored
  EXPECT_EQ(store.size(), 1u);
}

TEST(FrameStore, GapsAndInsertsBelowTheWindow) {
  FrameStore store;
  store.emplace(frame(100, 1));
  store.emplace(frame(400, 1));  // gap
  store.emplace(frame(3, 1));    // far below the window base
  store.emplace(frame(2, 1));
  EXPECT_EQ(held(store, 0, UINT64_MAX), (std::vector<std::uint64_t>{2, 3, 100, 400}));
  EXPECT_FALSE(store.contains(4));
  EXPECT_FALSE(store.contains(401));

  store.erase_below(100);
  EXPECT_EQ(held(store, 0, UINT64_MAX), (std::vector<std::uint64_t>{100, 400}));
  store.emplace(frame(50, 1));  // below the trimmed base again
  EXPECT_EQ(store.erase_above(99), 2u);
  EXPECT_EQ(held(store, 0, UINT64_MAX), (std::vector<std::uint64_t>{50}));
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.emplace(frame(7, 1)));  // a fresh window anywhere
  EXPECT_EQ(held(store, 0, UINT64_MAX), (std::vector<std::uint64_t>{7}));
}

TEST(FrameStore, ForEachStopsWhenAsked) {
  FrameStore store;
  for (std::uint64_t s = 10; s <= 20; s += 2) store.emplace(frame(s, 1));
  std::vector<std::uint64_t> seen;
  store.for_each(11, 30, [&](const DataFrame& f) {
    seen.push_back(f.seq);
    return seen.size() < 3;
  });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{12, 14, 16}));
}

// Random emplace / replace / GC trim / erase-above / ordered iteration on a
// window that drifts upward like Totem's, with gaps, duplicate arrivals,
// inserts below the base and occasional jumps.
TEST(FrameStore, RandomizedDifferentialAgainstMap) {
  std::mt19937_64 rng(77);
  FrameStore store;
  std::map<std::uint64_t, std::uint64_t> ref;  // seq → msg_id
  std::uint64_t front = 1;                      // drifting window origin

  for (int op = 0; op < 200'000; ++op) {
    const std::uint64_t r = rng() % 100;
    if (r < 55) {
      // Mostly just ahead of the origin; sometimes behind it or far ahead.
      std::uint64_t seq = front + rng() % 64;
      if (r < 8) seq = front > 40 ? front - 1 - rng() % 40 : 1 + rng() % 8;
      if (r == 54) seq = front + 500 + rng() % 3000;
      const auto version = static_cast<std::uint8_t>(rng() % 250 + 1);
      const bool stored = store.emplace(frame(seq, version));
      const bool ref_stored = ref.emplace(seq, seq * 10 + version).second;
      ASSERT_EQ(stored, ref_stored) << "op " << op << " seq " << seq;
    } else if (r < 62) {
      // Replace through find(), as the stale-frame path does.
      const std::uint64_t seq = front + rng() % 64;
      DataFrame* f = store.find(seq);
      ASSERT_EQ(f != nullptr, ref.count(seq) == 1) << "op " << op;
      if (f != nullptr) {
        *f = frame(seq, 251);
        ref[seq] = seq * 10 + 251;
      }
    } else if (r < 75) {
      front += rng() % 8;
      const std::uint64_t horizon = front > 30 ? front - 30 : 0;
      store.erase_below(horizon);
      ref.erase(ref.begin(), ref.lower_bound(horizon));
    } else if (r < 79) {
      const std::uint64_t base = front + rng() % 80 - std::min<std::uint64_t>(front, 20);
      const std::size_t removed = store.erase_above(base);
      const auto first = ref.upper_bound(base);
      const auto expected = static_cast<std::size_t>(std::distance(first, ref.end()));
      ref.erase(first, ref.end());
      ASSERT_EQ(removed, expected) << "op " << op;
    } else if (r < 80) {
      if (rng() % 10 == 0) {
        store.clear();
        ref.clear();
      }
    } else {
      const std::uint64_t lo = front + rng() % 64 - std::min<std::uint64_t>(front, 32);
      const std::uint64_t hi = lo + rng() % 128;
      const std::size_t limit = 1 + rng() % 40;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> got, want;
      store.for_each(lo, hi, [&](const DataFrame& f) {
        got.emplace_back(f.seq, f.msg_id);
        return got.size() < limit;
      });
      for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi; ++it) {
        want.emplace_back(*it);
        if (want.size() >= limit) break;
      }
      ASSERT_EQ(got, want) << "op " << op;
      for (std::uint64_t s = lo; s <= hi; s += 5) {
        const DataFrame* f = store.find(s);
        const auto it = ref.find(s);
        ASSERT_EQ(f != nullptr, it != ref.end()) << "op " << op << " seq " << s;
        if (f != nullptr) {
          ASSERT_EQ(f->seq, s);
          ASSERT_EQ(f->msg_id, it->second);
        }
      }
    }
    ASSERT_EQ(store.size(), ref.size()) << "op " << op;
  }
  std::vector<std::uint64_t> want;
  for (const auto& [seq, id] : ref) want.push_back(seq);
  EXPECT_EQ(held(store, 0, UINT64_MAX), want);
}

}  // namespace
}  // namespace eternal::totem
