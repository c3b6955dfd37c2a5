#include "src/chain/wire.h"

#include <gtest/gtest.h>

namespace kamino::chain {
namespace {

TEST(WireTest, ScalarRoundTrip) {
  Writer w;
  w.U32(42);
  w.U64(0xDEADBEEFCAFEull);
  w.Str("hello");
  const std::vector<uint8_t> buf = w.Take();

  Reader r(buf);
  uint32_t a = 0;
  uint64_t b = 0;
  std::string s;
  ASSERT_TRUE(r.U32(&a));
  ASSERT_TRUE(r.U64(&b));
  ASSERT_TRUE(r.Str(&s));
  EXPECT_EQ(a, 42u);
  EXPECT_EQ(b, 0xDEADBEEFCAFEull);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, TruncatedBufferRejected) {
  Writer w;
  w.U64(7);
  std::vector<uint8_t> buf = w.Take();
  buf.resize(4);
  Reader r(buf);
  uint64_t v = 0;
  EXPECT_FALSE(r.U64(&v));
}

TEST(WireTest, StringLengthBeyondBufferRejected) {
  Writer w;
  w.U32(1000);  // Claims 1000 bytes follow...
  std::vector<uint8_t> buf = w.Take();
  buf.push_back('x');  // ...but only one does.
  Reader r(buf);
  std::string s;
  EXPECT_FALSE(r.Str(&s));
}

TEST(WireTest, EmptyStringRoundTrip) {
  Writer w;
  w.Str("");
  const std::vector<uint8_t> buf = w.Take();
  Reader r(buf);
  std::string s = "junk";
  ASSERT_TRUE(r.Str(&s));
  EXPECT_TRUE(s.empty());
}

TEST(WireTest, BinaryPayloadSurvives) {
  std::string binary;
  for (int i = 0; i < 256; ++i) {
    binary.push_back(static_cast<char>(i));
  }
  Writer w;
  w.Str(binary);
  Reader r(w.Take());
  std::string out;
  ASSERT_TRUE(r.Str(&out));
  EXPECT_EQ(out, binary);
}

TEST(WireTest, OpRoundTripAllKinds) {
  for (OpKind kind : {OpKind::kUpsert, OpKind::kDelete, OpKind::kUpdate}) {
    Op op;
    op.kind = kind;
    op.pairs.push_back({1, "one"});
    op.pairs.push_back({0xFFFFFFFFFFFFFFFFull, std::string(2000, 'z')});
    Writer w;
    EncodeOp(op, &w);
    Reader r(w.Take());
    Op out;
    ASSERT_TRUE(DecodeOp(&r, &out));
    EXPECT_EQ(out.kind, kind);
    ASSERT_EQ(out.pairs.size(), 2u);
    EXPECT_EQ(out.pairs[0].key, 1u);
    EXPECT_EQ(out.pairs[0].value, "one");
    EXPECT_EQ(out.pairs[1].key, 0xFFFFFFFFFFFFFFFFull);
    EXPECT_EQ(out.pairs[1].value.size(), 2000u);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(WireTest, EmptyOpRoundTrip) {
  Op op;
  op.kind = OpKind::kUpsert;
  Writer w;
  EncodeOp(op, &w);
  Reader r(w.Take());
  Op out;
  ASSERT_TRUE(DecodeOp(&r, &out));
  EXPECT_TRUE(out.pairs.empty());
}

// Kinds outside kUpsert..kUpdate (0, or 4 and up) decode as malformed
// rather than reaching a replica's apply switch.
TEST(WireTest, UnknownOpKindRejected) {
  for (uint32_t kind : {0u, 4u, 0xFFFFFFFFu}) {
    Writer w;
    w.U32(kind);
    w.U64(1);  // req_id
    w.U32(0);  // no pairs
    Reader r(w.Take());
    Op out;
    EXPECT_FALSE(DecodeOp(&r, &out)) << "kind " << kind;
  }
}

TEST(WireTest, MalformedOpRejected) {
  std::vector<uint8_t> garbage = {1, 2, 3};
  Reader r(garbage);
  Op out;
  EXPECT_FALSE(DecodeOp(&r, &out));
}

}  // namespace
}  // namespace kamino::chain
