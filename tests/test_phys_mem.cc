/** @file Tests for the lazily materialized physical memory. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "mem/phys_mem.hh"

using namespace indra;
using mem::PhysicalMemory;

TEST(PhysMem, AllocatesDistinctFrames)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    Pfn b = pm.allocFrame();
    EXPECT_NE(a, b);
    EXPECT_TRUE(pm.isAllocated(a));
    EXPECT_TRUE(pm.isAllocated(b));
    EXPECT_EQ(pm.framesAllocated(), 2u);
}

TEST(PhysMem, FreeAndReuse)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    pm.freeFrame(a);
    EXPECT_FALSE(pm.isAllocated(a));
    Pfn b = pm.allocFrame();
    EXPECT_EQ(a, b);  // free list reuse
}

TEST(PhysMem, FreshFramesReadZero)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    EXPECT_EQ(pm.read64(a, 0), 0u);
    EXPECT_EQ(pm.read64(a, 4088), 0u);
}

TEST(PhysMem, WriteReadRoundTrip)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    pm.write64(a, 128, 0xdeadbeef12345678ULL);
    EXPECT_EQ(pm.read64(a, 128), 0xdeadbeef12345678ULL);
    EXPECT_EQ(pm.read64(a, 120), 0u);
    EXPECT_EQ(pm.read64(a, 136), 0u);
}

TEST(PhysMem, FreeDiscardsContents)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    pm.write64(a, 0, 42);
    pm.freeFrame(a);
    Pfn b = pm.allocFrame();
    ASSERT_EQ(a, b);
    EXPECT_EQ(pm.read64(b, 0), 0u);
}

TEST(PhysMem, CopyBetweenFrames)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn src = pm.allocFrame();
    Pfn dst = pm.allocFrame();
    pm.write64(src, 64, 0x1111);
    pm.write64(src, 72, 0x2222);
    pm.copy(dst, 64, src, 64, 16);
    EXPECT_EQ(pm.read64(dst, 64), 0x1111u);
    EXPECT_EQ(pm.read64(dst, 72), 0x2222u);
}

TEST(PhysMem, CopyFromLazyFrameZeroes)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn src = pm.allocFrame();  // never written: lazy zero
    Pfn dst = pm.allocFrame();
    pm.write64(dst, 0, 99);
    pm.copy(dst, 0, src, 0, 64);
    EXPECT_EQ(pm.read64(dst, 0), 0u);
}

TEST(PhysMem, CopyWithinOneFrame)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    pm.write64(a, 0, 7);
    pm.copy(a, 512, a, 0, 8);
    EXPECT_EQ(pm.read64(a, 512), 7u);
    EXPECT_EQ(pm.read64(a, 0), 7u);
}

TEST(PhysMem, SnapshotFrame)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    pm.write64(a, 8, 0xabcd);
    auto snap = pm.snapshotFrame(a);
    ASSERT_EQ(snap.size(), 4096u);
    pm.write64(a, 8, 0);
    std::uint64_t v;
    std::memcpy(&v, snap.data() + 8, 8);
    EXPECT_EQ(v, 0xabcdu);
}

TEST(PhysMem, SnapshotLazyFrameIsZero)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    auto snap = pm.snapshotFrame(a);
    for (std::uint8_t byte : snap)
        ASSERT_EQ(byte, 0);
}

TEST(PhysMemDeath, ExhaustionIsFatal)
{
    PhysicalMemory pm(8192, 4096);  // two frames only
    pm.allocFrame();
    pm.allocFrame();
    EXPECT_DEATH(pm.allocFrame(), "out of physical memory");
}

TEST(PhysMemDeath, DoubleFreePanics)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    pm.freeFrame(a);
    EXPECT_DEATH(pm.freeFrame(a), "unallocated");
}

TEST(PhysMemDeath, CrossBoundaryWritePanics)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    std::uint64_t v = 1;
    EXPECT_DEATH(pm.write(a, 4092, &v, 8), "boundary");
}

// Overlapping copies within one frame must behave as if the source
// were first copied out to a temporary (memmove, not memcpy).
TEST(PhysMem, OverlappingCopyWithinOneFrameActsThroughATemporary)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    std::vector<std::uint8_t> pattern(256);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(i + 1);
    pm.write(a, 0, pattern.data(), 256);

    // Forward overlap: destination starts inside the source range.
    auto expect = pm.snapshotFrame(a);
    std::vector<std::uint8_t> tmp(expect.begin(), expect.begin() + 64);
    std::copy(tmp.begin(), tmp.end(), expect.begin() + 8);
    pm.copy(a, 8, a, 0, 64);
    EXPECT_EQ(pm.snapshotFrame(a), expect);

    // Backward overlap: source starts inside the destination range.
    tmp.assign(expect.begin() + 40, expect.begin() + 140);
    std::copy(tmp.begin(), tmp.end(), expect.begin() + 4);
    pm.copy(a, 4, a, 40, 100);
    EXPECT_EQ(pm.snapshotFrame(a), expect);
}

TEST(PhysMem, FreedThenReallocatedFrameReadsAllZero)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    for (std::uint32_t off = 0; off < 4096; off += 512)
        pm.write64(a, off, 0x0123456789abcdefULL + off);
    pm.freeFrame(a);
    Pfn b = pm.allocFrame();
    ASSERT_EQ(a, b);
    EXPECT_EQ(pm.snapshotFrame(b), std::vector<std::uint8_t>(4096, 0));
    // A copy out of the reused, never-rewritten frame yields zeros.
    Pfn c = pm.allocFrame();
    pm.write64(c, 0, 5);
    pm.copy(c, 0, b, 0, 8);
    EXPECT_EQ(pm.read64(c, 0), 0u);
}

TEST(PhysMem, FrameVersionBumpsOnWriteCopyAndFree)
{
    PhysicalMemory pm(1 << 20, 4096);
    Pfn a = pm.allocFrame();
    Pfn b = pm.allocFrame();
    std::uint64_t va = pm.frameVersion(a);
    std::uint64_t vb = pm.frameVersion(b);

    pm.write64(a, 0, 1);
    EXPECT_EQ(pm.frameVersion(a), va + 1);
    // A copy moves only the destination's version.
    pm.copy(b, 0, a, 0, 8);
    EXPECT_EQ(pm.frameVersion(b), vb + 1);
    EXPECT_EQ(pm.frameVersion(a), va + 1);
    // Reads and snapshots leave it alone.
    (void)pm.read64(a, 0);
    (void)pm.snapshotFrame(a);
    EXPECT_EQ(pm.frameVersion(a), va + 1);
    pm.freeFrame(a);
    EXPECT_EQ(pm.frameVersion(a), va + 2);
}

TEST(PhysMem, OutOfRangeFramesAreNotAllocated)
{
    PhysicalMemory pm(8192, 4096);
    pm.allocFrame();
    pm.allocFrame();
    EXPECT_EQ(pm.numFrames(), 2u);
    EXPECT_FALSE(pm.isAllocated(pm.numFrames()));
    EXPECT_FALSE(pm.isAllocated(invalidPfn));
}

TEST(PhysMemDeath, OutOfRangeAccessPanics)
{
    PhysicalMemory pm(8192, 4096);
    Pfn a = pm.allocFrame();
    Pfn past = pm.numFrames();
    std::uint64_t v = 1;
    EXPECT_DEATH(pm.write(past, 0, &v, 8), "out of range");
    EXPECT_DEATH((void)pm.read64(past, 0), "out of range");
    EXPECT_DEATH(pm.copy(past, 0, a, 0, 8), "out of range");
    EXPECT_DEATH(pm.copy(a, 0, past, 0, 8), "out of range");
    EXPECT_DEATH(pm.freeFrame(past), "out of range");
    EXPECT_DEATH((void)pm.frameVersion(past), "out of range");
}
