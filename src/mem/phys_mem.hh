/**
 * @file
 * Physical memory: a lazily materialized frame store with a frame
 * allocator.
 *
 * Functional state lives here — every byte a resurrectee writes is
 * really stored, which lets the checkpoint engines be verified for
 * *correctness* (does rollback restore the exact bytes?), not just for
 * timing.
 */

#ifndef INDRA_MEM_PHYS_MEM_HH
#define INDRA_MEM_PHYS_MEM_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace indra::mem
{

/**
 * Physical memory. Frames are allocated from a bump-plus-free-list
 * allocator; frame contents are materialized lazily (all-zero until
 * first written, released again on free). Per-frame state lives in
 * flat tables indexed by Pfn, so every access is an array index.
 */
class PhysicalMemory
{
  public:
    /** @param size_bytes capacity; @param page_bytes frame size. */
    PhysicalMemory(std::uint64_t size_bytes, std::uint32_t page_bytes);

    /** Frame size in bytes. */
    std::uint32_t pageBytes() const { return frameBytes; }

    /** Total number of frames. */
    std::uint64_t numFrames() const { return frameCount; }

    /** Number of frames currently allocated. */
    std::uint64_t framesAllocated() const { return allocated; }

    /**
     * Allocate one frame.
     * @return the new frame number.
     * Calls fatal() when physical memory is exhausted.
     */
    Pfn allocFrame();

    /** Return @p pfn to the allocator. Contents are discarded. */
    void freeFrame(Pfn pfn);

    /** True if @p pfn is currently allocated. */
    bool isAllocated(Pfn pfn) const;

    /** Read @p len bytes at (@p pfn, @p offset) into @p out. */
    void
    read(Pfn pfn, std::uint32_t offset, void *out, std::uint32_t len) const
    {
        checkFrame(pfn);
        panic_if(offset + len > frameBytes, "read crosses frame boundary");
        const std::uint8_t *data = frames[pfn].get();
        if (!data) {
            std::memset(out, 0, len);
            return;
        }
        std::memcpy(out, data + offset, len);
    }

    /** Write @p len bytes from @p in at (@p pfn, @p offset). */
    void
    write(Pfn pfn, std::uint32_t offset, const void *in, std::uint32_t len)
    {
        checkFrame(pfn);
        panic_if(offset + len > frameBytes, "write crosses frame boundary");
        std::memcpy(materialize(pfn) + offset, in, len);
        ++versions[pfn];
    }

    /** Convenience: read one 64-bit word. */
    std::uint64_t
    read64(Pfn pfn, std::uint32_t offset) const
    {
        std::uint64_t v;
        read(pfn, offset, &v, sizeof(v));
        return v;
    }

    /** Convenience: write one 64-bit word. */
    void
    write64(Pfn pfn, std::uint32_t offset, std::uint64_t value)
    {
        write(pfn, offset, &value, sizeof(value));
    }

    /**
     * Copy @p len bytes from (@p src_pfn, @p src_off) to
     * (@p dst_pfn, @p dst_off). Used by checkpoint engines.
     */
    void copy(Pfn dst_pfn, std::uint32_t dst_off, Pfn src_pfn,
              std::uint32_t src_off, std::uint32_t len);

    /** Snapshot an entire frame's bytes (for tests / verification). */
    std::vector<std::uint8_t> snapshotFrame(Pfn pfn) const;

    /**
     * Snapshot an entire frame into @p out, reusing its capacity.
     * Checkpoint engines that recapture the same pages every interval
     * use this to avoid reallocating a page-sized buffer per page per
     * capture.
     */
    void snapshotFrameInto(Pfn pfn, std::vector<std::uint8_t> &out) const;

    /**
     * Monotone per-frame write version: bumped on every write to the
     * frame and when the frame is freed (its contents are discarded).
     * Two observations of the same (pfn, version) pair are guaranteed
     * to have seen identical frame contents, which lets checkpoint
     * engines memoize whole-page checksums across captures.
     */
    std::uint64_t
    frameVersion(Pfn pfn) const
    {
        checkFrame(pfn);
        return versions[pfn];
    }

  private:
    /** Backing store for a frame, created (zeroed) on first write. */
    std::uint8_t *
    materialize(Pfn pfn)
    {
        auto &data = frames[pfn];
        if (!data)
            data = std::make_unique<std::uint8_t[]>(frameBytes);
        return data.get();
    }

    void
    checkFrame(Pfn pfn) const
    {
        panic_if(pfn >= frameCount, "frame ", pfn, " out of range");
    }

    std::uint32_t frameBytes;
    std::uint64_t frameCount;
    std::uint64_t nextFresh = 0;
    std::uint64_t allocated = 0;
    std::vector<Pfn> freeList;
    /** Frame contents by Pfn; null until first written. */
    std::vector<std::unique_ptr<std::uint8_t[]>> frames;
    std::vector<bool> live;
    std::vector<std::uint64_t> versions;
};

} // namespace indra::mem

#endif // INDRA_MEM_PHYS_MEM_HH
