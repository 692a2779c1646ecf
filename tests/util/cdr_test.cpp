// CDR marshaling: alignment, byte orders, strings, sequences, errors.
#include <gtest/gtest.h>

#include "util/cdr.hpp"

namespace eternal::util {
namespace {

TEST(Cdr, PrimitiveRoundTripHostOrder) {
  CdrWriter w;
  w.put_u8(0xAB);
  w.put_bool(true);
  w.put_u16(0x1234);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_i32(-42);
  w.put_i64(-1'000'000'000'000LL);
  w.put_f64(3.14159);

  CdrReader r(w.bytes(), w.order());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_EQ(r.get_i64(), -1'000'000'000'000LL);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.14159);
  EXPECT_TRUE(r.exhausted());
}

class CdrBothOrders : public ::testing::TestWithParam<ByteOrder> {};

TEST_P(CdrBothOrders, RoundTripInEitherByteOrder) {
  const ByteOrder order = GetParam();
  CdrWriter w(order);
  w.put_u16(0xA1B2);
  w.put_u32(0xC3D4E5F6);
  w.put_u64(0x1122334455667788ULL);
  w.put_f64(-2.5);
  w.put_string("interoperable");

  CdrReader r(w.bytes(), order);
  EXPECT_EQ(r.get_u16(), 0xA1B2);
  EXPECT_EQ(r.get_u32(), 0xC3D4E5F6u);
  EXPECT_EQ(r.get_u64(), 0x1122334455667788ULL);
  EXPECT_DOUBLE_EQ(r.get_f64(), -2.5);
  EXPECT_EQ(r.get_string(), "interoperable");
}

TEST_P(CdrBothOrders, SwappedReaderSeesSwappedValues) {
  const ByteOrder order = GetParam();
  const ByteOrder other = order == ByteOrder::kBig ? ByteOrder::kLittle : ByteOrder::kBig;
  CdrWriter w(order);
  w.put_u16(0x0102);
  CdrReader r(w.bytes(), other);
  EXPECT_EQ(r.get_u16(), 0x0201);
}

INSTANTIATE_TEST_SUITE_P(Orders, CdrBothOrders,
                         ::testing::Values(ByteOrder::kBig, ByteOrder::kLittle));

TEST(Cdr, AlignmentPadsRelativeToStreamStart) {
  CdrWriter w;
  w.put_u8(1);        // offset 0
  w.put_u32(2);       // aligns to offset 4
  EXPECT_EQ(w.size(), 8u);
  w.put_u8(3);        // offset 8
  w.put_u64(4);       // aligns to offset 16
  EXPECT_EQ(w.size(), 24u);

  CdrReader r(w.bytes(), w.order());
  EXPECT_EQ(r.get_u8(), 1);
  EXPECT_EQ(r.get_u32(), 2u);
  EXPECT_EQ(r.get_u8(), 3);
  EXPECT_EQ(r.get_u64(), 4u);
}

TEST(Cdr, StringsIncludeNulAndLength) {
  CdrWriter w;
  w.put_string("abc");
  // ulong length (4) + "abc\0"
  EXPECT_EQ(w.size(), 8u);
  EXPECT_EQ(w.bytes()[4], 'a');
  EXPECT_EQ(w.bytes()[7], '\0');
}

TEST(Cdr, EmptyStringRoundTrip) {
  CdrWriter w;
  w.put_string("");
  CdrReader r(w.bytes(), w.order());
  EXPECT_EQ(r.get_string(), "");
}

TEST(Cdr, OctetsRoundTrip) {
  Bytes payload{1, 2, 3, 4, 5};
  CdrWriter w;
  w.put_octets(payload);
  CdrReader r(w.bytes(), w.order());
  EXPECT_EQ(r.get_octets(), payload);
}

TEST(Cdr, UnderrunThrows) {
  CdrWriter w;
  w.put_u16(7);
  CdrReader r(w.bytes(), w.order());
  (void)r.get_u16();
  EXPECT_THROW(r.get_u32(), CdrError);
}

TEST(Cdr, StringMissingNulThrows) {
  CdrWriter w;
  w.put_u32(3);
  w.put_raw(bytes_of("abc"));  // no NUL
  CdrReader r(w.bytes(), w.order());
  EXPECT_THROW(r.get_string(), CdrError);
}

TEST(Cdr, ZeroLengthStringThrows) {
  CdrWriter w;
  w.put_u32(0);
  CdrReader r(w.bytes(), w.order());
  EXPECT_THROW(r.get_string(), CdrError);
}

TEST(Cdr, ReaderAlignSkipsPadding) {
  CdrWriter w;
  w.put_u8(9);
  w.align(8);
  w.put_u8(10);
  CdrReader r(w.bytes(), w.order());
  EXPECT_EQ(r.get_u8(), 9);
  r.align(8);
  EXPECT_EQ(r.get_u8(), 10);
}

TEST(Cdr, RemainingAndPositionTrack) {
  CdrWriter w;
  w.put_u32(1);
  w.put_u32(2);
  CdrReader r(w.bytes(), w.order());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.get_u32();
  EXPECT_EQ(r.position(), 4u);
  EXPECT_EQ(r.remaining(), 4u);
}

}  // namespace
}  // namespace eternal::util
