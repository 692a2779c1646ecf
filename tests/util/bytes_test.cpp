#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/shared_bytes.hpp"

namespace eternal::util {
namespace {

TEST(Bytes, AppendConcatenates) {
  Bytes a{1, 2};
  append(a, Bytes{3, 4, 5});
  EXPECT_EQ(a, (Bytes{1, 2, 3, 4, 5}));
}

TEST(Bytes, TextRoundTrip) {
  const Bytes b = bytes_of("hello GIOP");
  EXPECT_EQ(text_of(b), "hello GIOP");
}

TEST(Bytes, HexRendersAndTruncates) {
  EXPECT_EQ(to_hex(Bytes{0xDE, 0xAD}), "dead");
  EXPECT_EQ(to_hex(Bytes{1, 2, 3, 4}, 2), "0102..");
}

TEST(Bytes, Fnv1aIsStableAndSpreads) {
  const std::uint64_t h1 = fnv1a(bytes_of("abc"));
  EXPECT_EQ(h1, fnv1a(bytes_of("abc")));
  EXPECT_NE(h1, fnv1a(bytes_of("abd")));
  EXPECT_NE(fnv1a(Bytes{}), 0u);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(Rng(7).next(), c.next());
}

TEST(Rng, BoundsRespected) {
  Rng rng(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
    const auto v = rng.between(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(SharedBytes, TakesOwnershipWithoutCopying) {
  Bytes owned{1, 2, 3, 4};
  const std::uint8_t* storage = owned.data();
  const SharedBytes shared(std::move(owned));
  EXPECT_EQ(shared.data(), storage);  // moved in, not copied
  EXPECT_EQ(shared.size(), 4u);
  EXPECT_EQ(shared, (Bytes{1, 2, 3, 4}));
}

TEST(SharedBytes, SliceOutlivesItsParent) {
  SharedBytes slice;
  {
    const SharedBytes whole(Bytes{10, 11, 12, 13, 14, 15});
    slice = whole.slice(2, 3);
    EXPECT_EQ(slice.data(), whole.data() + 2);
  }
  // The parent handle is gone; the slice's reference keeps the buffer.
  EXPECT_EQ(slice, (Bytes{12, 13, 14}));
  const SharedBytes inner = slice.slice(BytesView(slice).subspan(1, 2));
  slice = SharedBytes();
  EXPECT_EQ(inner, (Bytes{13, 14}));
  EXPECT_EQ(inner.to_bytes(), (Bytes{13, 14}));
}

TEST(SharedBytes, EmptyBuffersAndSlicesHoldNothing) {
  const SharedBytes none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.begin(), none.end());
  const SharedBytes from_empty{Bytes{}};
  EXPECT_TRUE(from_empty.empty());
  const SharedBytes whole(Bytes{1, 2});
  EXPECT_TRUE(whole.slice(2, 0).empty());
  EXPECT_EQ(whole.slice(2, 0).data(), nullptr);  // no reference taken
  EXPECT_EQ(none, from_empty);
}

TEST(SharedBytes, SlicePastTheEndThrows) {
  const SharedBytes whole(Bytes{1, 2, 3});
  EXPECT_THROW((void)whole.slice(2, 2), std::out_of_range);
  EXPECT_THROW((void)whole.slice(4, 0), std::out_of_range);
  EXPECT_NO_THROW((void)whole.slice(0, 3));
}

TEST(SharedBytes, CopiesShareMovesTransfer) {
  SharedBytes a(Bytes{7, 8, 9});
  SharedBytes b = a;  // shares the buffer
  EXPECT_EQ(a.data(), b.data());
  SharedBytes c = std::move(a);
  EXPECT_TRUE(a.empty());  // a moved-from handle is empty
  EXPECT_EQ(c.data(), b.data());
  b = c;  // self-buffer assignment keeps the reference count right
  c = SharedBytes();
  EXPECT_EQ(b, (Bytes{7, 8, 9}));
  const SharedBytes copy = SharedBytes::copy_of(b);
  EXPECT_NE(copy.data(), b.data());
  EXPECT_EQ(copy, b);
}

}  // namespace
}  // namespace eternal::util
