#include "net/packet.h"

#include <gtest/gtest.h>

#include "net/node.h"
#include "util/rng.h"

namespace anc::net {
namespace {

TEST(Packet, HeaderForPacket)
{
    Packet packet;
    packet.src = 3;
    packet.dst = 9;
    packet.seq = 1234;
    packet.payload = Bits(100, 1);
    const phy::Frame_header header = header_for(packet);
    EXPECT_EQ(header.src, 3);
    EXPECT_EQ(header.dst, 9);
    EXPECT_EQ(header.seq, 1234);
    EXPECT_EQ(header.payload_bits, 100);
}

TEST(Packet, HeaderForOversizedPayloadThrows)
{
    Packet packet;
    packet.payload = Bits(70000, 0);
    EXPECT_THROW(header_for(packet), std::invalid_argument);
}

TEST(Flow, SequentialSeqNumbers)
{
    Flow flow{1, 2, 64, Pcg32{1001}};
    EXPECT_EQ(flow.next().seq, 1);
    EXPECT_EQ(flow.next().seq, 2);
    EXPECT_EQ(flow.next().seq, 3);
}

TEST(Flow, AddressesAndSizes)
{
    Flow flow{7, 8, 256, Pcg32{1002}};
    const Packet packet = flow.next();
    EXPECT_EQ(packet.src, 7);
    EXPECT_EQ(packet.dst, 8);
    EXPECT_EQ(packet.payload.size(), 256u);
}

TEST(Flow, PayloadsDiffer)
{
    Flow flow{1, 2, 512, Pcg32{1003}};
    EXPECT_NE(flow.next().payload, flow.next().payload);
}

TEST(Flow, DeterministicForSameSeed)
{
    Flow a{1, 2, 128, Pcg32{1004}};
    Flow b{1, 2, 128, Pcg32{1004}};
    EXPECT_EQ(a.next(), b.next());
    EXPECT_EQ(a.next(), b.next());
}

TEST(NetNode, TransmitStoresFrame)
{
    Net_node node{1};
    Flow flow{1, 2, 128, Pcg32{1005}};
    const Packet packet = flow.next();
    Pcg32 rng{1006};
    dsp::Signal signal;
    node.transmit_into(packet, rng, signal);
    EXPECT_EQ(signal.size(), phy::frame_length(128) + 1);
    EXPECT_TRUE(node.buffer().contains(header_for(packet)));
}

TEST(NetNode, RememberStoresWithoutTransmitting)
{
    Net_node node{2};
    Flow flow{1, 2, 128, Pcg32{1007}};
    const Packet packet = flow.next();
    node.remember(packet);
    const Stored_frame* stored = node.buffer().lookup(header_for(packet));
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(stored->payload, packet.payload);
    EXPECT_EQ(stored->frame_bits.size(), phy::frame_length(128));
}

TEST(NetNode, RegeneratedFrameBitsMatchTransmitted)
{
    // The overhearing path depends on this: a node that *remembers* a
    // packet reconstructs exactly the frame bits the sender put on the
    // air (framing is deterministic).
    Net_node sender{1};
    Net_node snooper{2};
    Flow flow{1, 2, 200, Pcg32{1008}};
    const Packet packet = flow.next();
    Pcg32 rng{1009};
    dsp::Signal signal;
    sender.transmit_into(packet, rng, signal);
    snooper.remember(packet);
    const Stored_frame* sent = sender.buffer().lookup(header_for(packet));
    const Stored_frame* heard = snooper.buffer().lookup(header_for(packet));
    ASSERT_NE(sent, nullptr);
    ASSERT_NE(heard, nullptr);
    EXPECT_EQ(sent->frame_bits, heard->frame_bits);
}

} // namespace
} // namespace anc::net
