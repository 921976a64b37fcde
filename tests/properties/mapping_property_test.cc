/**
 * @file
 * Property-based tests of the address mapping: for every supported
 * DRAM organization and both schemes, the line->coordinate map must
 * be injective, cover all banks/channels, and keep coordinates in
 * range.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/random.hh"
#include "dram/address_mapping.hh"

namespace smtdram
{
namespace
{

// gtest prints an unprintable parameter as its raw bytes, and ctest
// takes that dump into the test name; the padding is spelled out and
// zeroed so the name is the same on every build.
struct MappingCase {
    std::uint32_t channels;
    std::uint32_t gang;
    bool rambus;
    MappingScheme scheme;
    std::uint8_t padding[2] = {};
};

std::string
caseName(const testing::TestParamInfo<MappingCase> &info)
{
    const MappingCase &c = info.param;
    std::string name = std::to_string(c.channels) + "C" +
                       std::to_string(c.gang) + "G";
    name += c.rambus ? "_rdram" : "_ddr";
    name += c.scheme == MappingScheme::XorPermute ? "_xor" : "_page";
    return name;
}

class MappingProperty : public testing::TestWithParam<MappingCase>
{
  protected:
    DramConfig
    config() const
    {
        const MappingCase &c = GetParam();
        DramConfig config =
            c.rambus ? DramConfig::directRambus(c.channels)
                     : DramConfig::ddrSdram(c.channels, c.gang);
        config.mapping = c.scheme;
        return config;
    }
};

TEST_P(MappingProperty, InjectiveOverLineSpace)
{
    const DramConfig c = config();
    AddressMapping m(c);
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                        std::uint32_t>>
        seen;
    for (std::uint64_t line = 0; line < (1 << 15); ++line) {
        const DramCoord coord = m.map(line * c.lineBytes);
        ASSERT_TRUE(seen.emplace(coord.channel, coord.bank, coord.row,
                                 coord.column)
                        .second)
            << "line " << line;
    }
}

TEST_P(MappingProperty, CoordinatesInRange)
{
    const DramConfig c = config();
    AddressMapping m(c);
    Rng rng(99);
    for (int i = 0; i < 50000; ++i) {
        const DramCoord coord = m.map(rng.below(1ULL << 34));
        ASSERT_LT(coord.channel, c.logicalChannels());
        ASSERT_LT(coord.bank, c.banksPerChannel());
        ASSERT_LT(coord.column,
                  c.effectiveRowBytes() / c.lineBytes);
    }
}

TEST_P(MappingProperty, AllChannelsAndBanksReachable)
{
    const DramConfig c = config();
    AddressMapping m(c);
    std::set<std::uint32_t> channels;
    std::set<std::uint32_t> banks;
    for (std::uint64_t line = 0; line < (1 << 16); ++line) {
        const DramCoord coord = m.map(line * c.lineBytes);
        channels.insert(coord.channel);
        banks.insert(coord.bank);
    }
    EXPECT_EQ(channels.size(), c.logicalChannels());
    EXPECT_EQ(banks.size(), c.banksPerChannel());
}

TEST_P(MappingProperty, WholeLineMapsTogether)
{
    const DramConfig c = config();
    AddressMapping m(c);
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const Addr base = rng.below(1ULL << 30) & ~Addr{63};
        const DramCoord first = m.map(base);
        const DramCoord last = m.map(base + 63);
        ASSERT_EQ(first.channel, last.channel);
        ASSERT_EQ(first.bank, last.bank);
        ASSERT_EQ(first.row, last.row);
        ASSERT_EQ(first.column, last.column);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrganizations, MappingProperty,
    testing::Values(
        MappingCase{1, 1, false, MappingScheme::PageInterleave},
        MappingCase{2, 1, false, MappingScheme::PageInterleave},
        MappingCase{2, 1, false, MappingScheme::XorPermute},
        MappingCase{2, 2, false, MappingScheme::XorPermute},
        MappingCase{4, 1, false, MappingScheme::PageInterleave},
        MappingCase{4, 2, false, MappingScheme::XorPermute},
        MappingCase{8, 1, false, MappingScheme::XorPermute},
        MappingCase{8, 2, false, MappingScheme::PageInterleave},
        MappingCase{8, 4, false, MappingScheme::XorPermute},
        MappingCase{2, 1, true, MappingScheme::PageInterleave},
        MappingCase{2, 1, true, MappingScheme::XorPermute},
        MappingCase{4, 1, true, MappingScheme::XorPermute}),
    caseName);

} // namespace
} // namespace smtdram
