// Port settings merging and attribute plumbing (paper Section 3.4).
#include <gtest/gtest.h>

#include <ostream>

#include "core/cgsim.hpp"

namespace cgsim {

// gtest prints a parameter type that has no printer as raw bytes, padding
// included, and ctest names the parameterized cases after that print:
// without this printer the MergeIdentity case names carried stack residue
// and changed whenever the test binary did.
void PrintTo(const PortSettings& s, std::ostream* os) {
  *os << "beat=" << s.beat_bits << " rtp=" << s.rtp << ' '
      << buffer_mode_name(s.buffer) << " window=" << s.window_size
      << " io=" << io_kind_name(s.io);
}

}  // namespace cgsim

namespace {

using namespace cgsim;

TEST(PortSettings, DefaultsAreUnspecified) {
  constexpr PortSettings s{};
  EXPECT_EQ(s.beat_bits, 0);
  EXPECT_FALSE(s.rtp);
  EXPECT_EQ(s.buffer, BufferMode::unspecified);
  EXPECT_EQ(effective_beat_bits(s), 32);
}

TEST(PortSettings, MergeUnspecifiedTakesConcrete) {
  const MergeResult r = try_merge_settings(
      PortSettings{}, PortSettings{.beat_bits = 64,
                                   .rtp = false,
                                   .buffer = BufferMode::stream,
                                   .window_size = 0});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.merged.beat_bits, 64);
  EXPECT_EQ(r.merged.buffer, BufferMode::stream);
}

TEST(PortSettings, MergeEqualSettingsOk) {
  const PortSettings s{.beat_bits = 128,
                       .rtp = false,
                       .buffer = BufferMode::window,
                       .window_size = 256};
  const MergeResult r = try_merge_settings(s, s);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.merged, s);
}

TEST(PortSettings, MergeConflictingBeatWidthFails) {
  const MergeResult r = try_merge_settings(PortSettings{.beat_bits = 32},
                                           PortSettings{.beat_bits = 64});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("beat"), std::string_view::npos);
}

TEST(PortSettings, MergeRtpWithStreamFails) {
  const MergeResult r =
      try_merge_settings(PortSettings{.rtp = true}, PortSettings{.rtp = false});
  EXPECT_FALSE(r.ok);
}

TEST(PortSettings, MergeConflictingBufferModesFails) {
  const MergeResult r = try_merge_settings(
      PortSettings{.buffer = BufferMode::stream},
      PortSettings{.buffer = BufferMode::pingpong});
  EXPECT_FALSE(r.ok);
}

TEST(PortSettings, MergeConflictingWindowSizesFails) {
  const MergeResult r = try_merge_settings(
      PortSettings{.buffer = BufferMode::window, .window_size = 128},
      PortSettings{.buffer = BufferMode::window, .window_size = 256});
  EXPECT_FALSE(r.ok);
}

TEST(PortSettings, MergeIsCommutative) {
  const PortSettings a{.beat_bits = 64};
  const PortSettings b{.buffer = BufferMode::stream};
  const MergeResult ab = try_merge_settings(a, b);
  const MergeResult ba = try_merge_settings(b, a);
  ASSERT_TRUE(ab.ok);
  ASSERT_TRUE(ba.ok);
  EXPECT_EQ(ab.merged, ba.merged);
}

TEST(PortSettings, MergeOrFailIsConstexprForCompatible) {
  constexpr PortSettings merged = merge_settings_or_fail(
      PortSettings{.beat_bits = 32}, PortSettings{});
  static_assert(merged.beat_bits == 32);
  SUCCEED();
}

// Property sweep: merging with the default (all-unspecified) settings is an
// identity, for every combination.
class MergeIdentity : public ::testing::TestWithParam<PortSettings> {};

TEST_P(MergeIdentity, DefaultIsNeutralElement) {
  const PortSettings s = GetParam();
  const MergeResult left = try_merge_settings(PortSettings{}, s);
  const MergeResult right = try_merge_settings(s, PortSettings{});
  ASSERT_TRUE(left.ok);
  ASSERT_TRUE(right.ok);
  EXPECT_EQ(left.merged, s);
  EXPECT_EQ(right.merged, s);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, MergeIdentity,
    ::testing::Values(
        PortSettings{},
        PortSettings{.beat_bits = 32},
        PortSettings{.beat_bits = 64},
        PortSettings{.beat_bits = 128},
        PortSettings{.buffer = BufferMode::stream},
        PortSettings{.buffer = BufferMode::window, .window_size = 64},
        PortSettings{.buffer = BufferMode::pingpong, .window_size = 2048},
        PortSettings{.beat_bits = 64,
                     .rtp = false,
                     .buffer = BufferMode::stream,
                     .window_size = 0}));

TEST(Attributes, Equality) {
  const Attribute a{"k", "v", 0, false};
  const Attribute b{"k", "v", 0, false};
  const Attribute c{"k", "", 3, true};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(TypeId, DistinctPerType) {
  EXPECT_NE(type_id<int>(), type_id<float>());
  EXPECT_EQ(type_id<int>(), type_id<int>());
  struct Local {};
  EXPECT_NE(type_id<Local>(), type_id<int>());
}

TEST(TypeId, NamesAreSpelledOut) {
  EXPECT_EQ(type_name<int>(), "int");
  EXPECT_EQ(type_name<float>(), "float");
}

TEST(RealmNames, Spellings) {
  EXPECT_EQ(realm_name(Realm::aie), "aie");
  EXPECT_EQ(realm_name(Realm::noextract), "noextract");
  EXPECT_EQ(realm_name(Realm::host), "host");
}

TEST(BufferModeNames, Spellings) {
  EXPECT_EQ(buffer_mode_name(BufferMode::stream), "stream");
  EXPECT_EQ(buffer_mode_name(BufferMode::pingpong), "pingpong");
}

}  // namespace
