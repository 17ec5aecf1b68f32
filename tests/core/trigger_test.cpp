#include "core/trigger.h"

#include <gtest/gtest.h>

#include <vector>

namespace anc {
namespace {

TEST(Trigger, DelayInConfiguredRange)
{
    Pcg32 rng{801};
    for (int i = 0; i < 1000; ++i) {
        const auto [da, db] = draw_distinct_delays(rng);
        for (const std::size_t delay : {da, db}) {
            EXPECT_GE(delay, trigger_slot_symbols);
            EXPECT_LE(delay, trigger_slot_count * trigger_slot_symbols);
            EXPECT_EQ(delay % trigger_slot_symbols, 0u);
        }
    }
}

TEST(Trigger, DefaultSlotSizing)
{
    // Slot must cover pilot + header so distinct slots guarantee a
    // decodable clean region.
    static_assert(trigger_slot_count == 8);
    static_assert(trigger_slot_symbols >= 128 + 8);
}

TEST(Trigger, DistinctDelaysNeverEqual)
{
    Pcg32 rng{804};
    for (int i = 0; i < 2000; ++i) {
        const auto [da, db] = draw_distinct_delays(rng);
        EXPECT_NE(da, db);
        // Distinct slots guarantee a clean pilot+header region.
        const std::size_t gap = da > db ? da - db : db - da;
        EXPECT_GE(gap, trigger_slot_symbols);
    }
}

TEST(Trigger, DelayCoversAllSlots)
{
    Pcg32 rng{802};
    std::vector<int> first(trigger_slot_count + 1, 0);
    std::vector<int> second(trigger_slot_count + 1, 0);
    for (int i = 0; i < 8000; ++i) {
        const auto [da, db] = draw_distinct_delays(rng);
        ++first[da / trigger_slot_symbols];
        ++second[db / trigger_slot_symbols];
    }
    // 1000 draws land in each slot on average.
    for (std::size_t slot = 1; slot <= trigger_slot_count; ++slot) {
        EXPECT_GT(first[slot], 800);
        EXPECT_GT(second[slot], 800);
    }
}

TEST(Trigger, OverlapFractionFullAndNone)
{
    EXPECT_DOUBLE_EQ(overlap_fraction(0, 100, 0, 100), 1.0);
    EXPECT_DOUBLE_EQ(overlap_fraction(0, 100, 100, 100), 0.0);
    EXPECT_DOUBLE_EQ(overlap_fraction(0, 100, 250, 100), 0.0);
}

TEST(Trigger, OverlapFractionPartial)
{
    EXPECT_DOUBLE_EQ(overlap_fraction(0, 100, 20, 100), 0.8);
    EXPECT_DOUBLE_EQ(overlap_fraction(20, 100, 0, 100), 0.8);
}

TEST(Trigger, OverlapFractionUsesShorterPacket)
{
    // A 50-bit packet fully inside a 200-bit packet overlaps 100%.
    EXPECT_DOUBLE_EQ(overlap_fraction(0, 200, 50, 50), 1.0);
}

TEST(Trigger, OverlapZeroLength)
{
    EXPECT_DOUBLE_EQ(overlap_fraction(0, 0, 0, 100), 0.0);
}

TEST(Trigger, MeanOverlapNearPaperOperatingPoint)
{
    // With 8 distinct slots of 140 symbols against ~2300-bit frames
    // (2048-bit payloads), the expected overlap lands near the paper's
    // reported 80% (§11.4).
    Pcg32 rng{803};
    const std::size_t frame = 2304;
    double total = 0.0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        const auto [da, db] = draw_distinct_delays(rng);
        total += overlap_fraction(da, frame, db, frame);
    }
    const double mean = total / trials;
    EXPECT_GT(mean, 0.76);
    EXPECT_LT(mean, 0.86);
}

} // namespace
} // namespace anc
