// Tests for the Hamming SEC-DED codec and the protected memory model:
// exhaustive single-bit correction, double-bit detection, sub-word access,
// scrubbing, DMI policy, and fault-injection entry points.

#include <gtest/gtest.h>

#include "vps/hw/ecc.hpp"
#include "vps/hw/memory.hpp"
#include "vps/support/ensure.hpp"
#include "vps/support/rng.hpp"
#include "vps/tlm/payload.hpp"

namespace {

using namespace vps::hw;
using vps::sim::Time;
using namespace vps::sim::time_literals;

TEST(Ecc, RoundTripWithoutErrors) {
  vps::support::Xorshift rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto data = static_cast<std::uint32_t>(rng.next());
    const auto decoded = ecc_decode(ecc_encode(data));
    EXPECT_EQ(decoded.status, EccStatus::kOk);
    EXPECT_EQ(decoded.data, data);
  }
}

class EccSingleBit : public ::testing::TestWithParam<int> {};

TEST_P(EccSingleBit, EverySingleBitFlipIsCorrected) {
  const int bit = GetParam();
  vps::support::Xorshift rng(static_cast<std::uint64_t>(bit) + 1);
  for (int i = 0; i < 50; ++i) {
    const auto data = static_cast<std::uint32_t>(rng.next());
    const std::uint64_t corrupted = ecc_encode(data) ^ (1ULL << bit);
    const auto decoded = ecc_decode(corrupted);
    EXPECT_EQ(decoded.status, EccStatus::kCorrected) << "bit " << bit;
    EXPECT_EQ(decoded.data, data) << "bit " << bit;
    EXPECT_EQ(decoded.corrected_bit, bit);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodewordBits, EccSingleBit, ::testing::Range(0, kCodewordBits));

TEST(Ecc, AllDoubleBitFlipsAreDetected) {
  const std::uint32_t data = 0xA5C3F019;
  const std::uint64_t cw = ecc_encode(data);
  for (int b1 = 0; b1 < kCodewordBits; ++b1) {
    for (int b2 = b1 + 1; b2 < kCodewordBits; ++b2) {
      const auto decoded = ecc_decode(cw ^ (1ULL << b1) ^ (1ULL << b2));
      EXPECT_EQ(decoded.status, EccStatus::kUncorrectable) << b1 << "," << b2;
    }
  }
}

std::pair<vps::tlm::Response, std::uint32_t> mem_read(Memory& m, std::uint64_t addr,
                                                      std::size_t n) {
  vps::tlm::GenericPayload p(vps::tlm::Command::kRead, addr, n);
  Time d = Time::zero();
  m.b_transport(p, d);
  return {p.response(), static_cast<std::uint32_t>(p.value_le())};
}

vps::tlm::Response mem_write(Memory& m, std::uint64_t addr, std::size_t n, std::uint32_t v) {
  vps::tlm::GenericPayload p(vps::tlm::Command::kWrite, addr, n);
  p.set_value_le(v);
  Time d = Time::zero();
  m.b_transport(p, d);
  return p.response();
}

class MemoryModes : public ::testing::TestWithParam<EccMode> {};

TEST_P(MemoryModes, ReadWriteAllSizes) {
  Memory m("m", 64, 5_ns, GetParam());
  EXPECT_EQ(mem_write(m, 0, 4, 0xDDCCBBAA), vps::tlm::Response::kOk);
  EXPECT_EQ(mem_read(m, 0, 4).second, 0xDDCCBBAAu);
  EXPECT_EQ(mem_read(m, 0, 1).second, 0xAAu);
  EXPECT_EQ(mem_read(m, 1, 1).second, 0xBBu);
  EXPECT_EQ(mem_read(m, 2, 2).second, 0xDDCCu);
  EXPECT_EQ(mem_write(m, 1, 1, 0x55), vps::tlm::Response::kOk);
  EXPECT_EQ(mem_read(m, 0, 4).second, 0xDDCC55AAu);
  EXPECT_EQ(mem_write(m, 2, 2, 0x1234), vps::tlm::Response::kOk);
  EXPECT_EQ(mem_read(m, 0, 4).second, 0x123455AAu);
}

TEST_P(MemoryModes, RejectsBadAccesses) {
  Memory m("m", 64, 0_ns, GetParam());
  EXPECT_EQ(mem_read(m, 62, 4).first, vps::tlm::Response::kAddressError);   // straddles end
  EXPECT_EQ(mem_read(m, 1, 4).first, vps::tlm::Response::kAddressError);    // misaligned
  EXPECT_EQ(mem_read(m, 3, 2).first, vps::tlm::Response::kAddressError);    // misaligned
  EXPECT_EQ(mem_read(m, 100, 1).first, vps::tlm::Response::kAddressError);  // out of range
}

TEST_P(MemoryModes, LoadAndPeek) {
  Memory m("m", 64, 0_ns, GetParam());
  const std::array<std::uint8_t, 5> img{1, 2, 3, 4, 5};
  m.load(8, img);
  for (std::size_t i = 0; i < img.size(); ++i) EXPECT_EQ(m.peek(8 + i), img[i]);
  m.poke32(0, 0xCAFEBABE);
  EXPECT_EQ(m.peek32(0), 0xCAFEBABEu);
}

TEST_P(MemoryModes, Peek32RejectsOutOfRange) {
  Memory m("m", 64, 0_ns, GetParam());
  m.poke32(60, 0x01020304);
  EXPECT_EQ(m.peek32(60), 0x01020304u);  // last word is in range
  EXPECT_THROW((void)m.peek32(64), vps::support::InvariantError);
  EXPECT_THROW((void)m.peek32(128), vps::support::InvariantError);
  EXPECT_THROW((void)m.peek32(~std::uint64_t{3}), vps::support::InvariantError);  // wraps
  EXPECT_THROW(m.poke32(~std::uint64_t{3}, 0), vps::support::InvariantError);
}

// Epoch images stop at the last non-zero byte (codeword); restoring one
// onto a memory with other contents must zero everything past it.
TEST_P(MemoryModes, SnapshotIsTrimmedAndRestoreZeroFillsTheRest) {
  Memory m("m", 1024, 0_ns, GetParam());
  EXPECT_TRUE(m.snapshot().plain.empty());
  EXPECT_TRUE(m.snapshot().codewords.empty());
  m.poke32(0, 0x11223344);
  m.poke(41, 0x7F);
  const Memory::Snapshot image = m.snapshot();
  EXPECT_LE(image.plain.size() + 4 * image.codewords.size(), 44u);

  Memory twin("twin", 1024, 0_ns, GetParam());
  for (std::uint64_t a = 0; a < 1024; a += 4) twin.poke32(a, 0xA5A5A5A5);
  twin.restore(image);
  EXPECT_EQ(twin.peek32(0), 0x11223344u);
  for (std::uint64_t a = 4; a < 1024; ++a) {
    ASSERT_EQ(twin.peek(a), a == 41 ? 0x7F : 0) << "address " << a;
  }
  EXPECT_EQ(mem_read(twin, 1020, 4).first, vps::tlm::Response::kOk);  // decodes clean

  Memory small("small", 16, 0_ns, GetParam());
  EXPECT_THROW(small.restore(image), vps::support::InvariantError);
}

INSTANTIATE_TEST_SUITE_P(BothModes, MemoryModes,
                         ::testing::Values(EccMode::kNone, EccMode::kSecded));

TEST(Memory, UnprotectedBitFlipSilentlyCorrupts) {
  Memory m("m", 64, 0_ns, EccMode::kNone);
  m.poke32(0, 0);
  m.flip_bit(0, 3);
  const auto [resp, val] = mem_read(m, 0, 4);
  EXPECT_EQ(resp, vps::tlm::Response::kOk);
  EXPECT_EQ(val, 8u);  // silent data corruption
  EXPECT_EQ(m.corrected_errors(), 0u);
}

TEST(Memory, EccCorrectsSingleDataBitFlip) {
  Memory m("m", 64, 0_ns, EccMode::kSecded);
  m.poke32(4, 0x0F0F0F0F);
  m.flip_bit(5, 6);  // byte 1 of word 1, bit 6
  const auto [resp, val] = mem_read(m, 4, 4);
  EXPECT_EQ(resp, vps::tlm::Response::kOk);
  EXPECT_EQ(val, 0x0F0F0F0Fu);
  EXPECT_EQ(m.corrected_errors(), 1u);
  // Scrubbing: the next read needs no further correction.
  (void)mem_read(m, 4, 4);
  EXPECT_EQ(m.corrected_errors(), 1u);
}

TEST(Memory, EccDetectsDoubleBitFlipAsBusError) {
  Memory m("m", 64, 0_ns, EccMode::kSecded);
  m.poke32(0, 0x12345678);
  m.flip_codeword_bit(0, 7);
  m.flip_codeword_bit(0, 20);
  const auto [resp, val] = mem_read(m, 0, 4);
  EXPECT_EQ(resp, vps::tlm::Response::kGenericError);
  EXPECT_EQ(m.uncorrectable_errors(), 1u);
}

TEST(Memory, EccCorrectsCheckBitFlipToo) {
  Memory m("m", 64, 0_ns, EccMode::kSecded);
  m.poke32(0, 0x87654321);
  m.flip_codeword_bit(0, 1);  // position 1 is a Hamming check bit
  const auto [resp, val] = mem_read(m, 0, 4);
  EXPECT_EQ(resp, vps::tlm::Response::kOk);
  EXPECT_EQ(val, 0x87654321u);
  EXPECT_EQ(m.corrected_errors(), 1u);
}

TEST(Memory, DmiPolicyFollowsProtection) {
  Memory plain("p", 64, 0_ns, EccMode::kNone);
  Memory ecc("e", 64, 0_ns, EccMode::kSecded);
  vps::tlm::DmiRegion r;
  EXPECT_TRUE(plain.get_direct_mem_ptr(0, r));
  EXPECT_FALSE(ecc.get_direct_mem_ptr(0, r));
}

TEST(Memory, LatencyAccumulates) {
  Memory m("m", 64, 7_ns, EccMode::kNone);
  vps::tlm::GenericPayload p(vps::tlm::Command::kRead, 0, 4);
  Time d = 3_ns;
  m.b_transport(p, d);
  EXPECT_EQ(d, 10_ns);
}

TEST(Memory, StatsCountAccesses) {
  Memory m("m", 64, 0_ns, EccMode::kNone);
  (void)mem_write(m, 0, 4, 1);
  (void)mem_read(m, 0, 4);
  (void)mem_read(m, 0, 4);
  EXPECT_EQ(m.writes(), 1u);
  EXPECT_EQ(m.reads(), 2u);
}

}  // namespace
