/**
 * @file
 * NVMe command / completion queue model (§V-C).
 *
 * The FPGA prep accelerator's P2P handler "implements NVMe command
 * generators, and places NVMe command and completion queues in the FPGA
 * memory", so the FPGA can fetch training data from SSDs without any
 * host involvement. This module models that mechanism functionally:
 * circular submission/completion queues with doorbell semantics and the
 * completion-phase bit, plus an executor that plays the SSD's role —
 * consuming read commands and DMA-ing data from its media to the
 * command's destination address (a peer device BAR under the address
 * map, or host memory).
 */

#ifndef TRAINBOX_DEVICES_NVME_QUEUE_HH
#define TRAINBOX_DEVICES_NVME_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace tb {
namespace nvme {

/** NVMe logical block size used throughout (512 B). */
inline constexpr std::uint32_t kBlockBytes = 512;

/** Subset of the NVMe I/O command set we model. */
enum class Opcode : std::uint8_t { Read = 0x02, Write = 0x01 };

/** One submission-queue entry (the fields the P2P handler fills in). */
struct Command
{
    std::uint16_t cid = 0;     ///< command identifier
    Opcode opcode = Opcode::Read;
    std::uint64_t slba = 0;    ///< starting logical block
    std::uint32_t nlb = 0;     ///< number of logical blocks (0-based +1)
    std::uint64_t prp = 0;     ///< destination/source PCIe address
};

/** One completion-queue entry. */
struct Completion
{
    std::uint16_t cid = 0;
    std::uint16_t status = 0;  ///< 0 = success
    bool phase = false;        ///< phase tag (flips per queue wrap)
};

/** Completion status codes we use. */
inline constexpr std::uint16_t kStatusSuccess = 0x0;
inline constexpr std::uint16_t kStatusLbaOutOfRange = 0x80;

/**
 * A paired submission/completion ring with doorbells — lives "in FPGA
 * memory" for the P2P case. Single producer / single consumer on each
 * ring, as per the spec's per-queue ownership rules.
 */
class QueuePair
{
  public:
    /** @param depth entries per ring (one slot is kept empty). */
    explicit QueuePair(std::size_t depth = 64);

    // --- host/FPGA (driver) side ---

    /** Enqueue a command; false when the submission queue is full. */
    bool submit(const Command &cmd);

    /** Poll one completion (consumes it); false when none pending. */
    bool poll(Completion *out);

    // --- device (SSD controller) side ---

    /** Fetch the next submitted command; false when SQ is empty. */
    bool fetch(Command *out);

    /** Post a completion; false when the completion queue is full. */
    bool postCompletion(std::uint16_t cid, std::uint16_t status);

    // --- introspection ---

    std::size_t depth() const { return depth_; }
    std::size_t submissionsPending() const;
    bool sqFull() const;

  private:
    std::size_t depth_;
    std::vector<Command> sq_;
    std::vector<Completion> cq_;
    // ring indices (free-running, reduced modulo depth on access)
    std::size_t sqTail_ = 0;   // driver writes
    std::size_t sqHead_ = 0;   // device reads
    std::size_t cqTail_ = 0;   // device writes
    std::size_t cqHead_ = 0;   // driver reads
};

/**
 * The SSD controller's execution loop for one queue pair: fetch
 * commands, move data between the drive's media and the fabric via the
 * provided DMA callbacks, post completions.
 */
class SsdCommandExecutor
{
  public:
    /** DMA write toward the fabric: (destination address, bytes). */
    using DmaWrite =
        std::function<void(std::uint64_t, const std::vector<std::uint8_t> &)>;

    /**
     * @param media the drive's contents (LBA 0 starts at offset 0)
     */
    SsdCommandExecutor(QueuePair &qp, std::vector<std::uint8_t> media);

    /**
     * Drain the submission queue, executing every command.
     * @return commands executed.
     */
    std::size_t processAll(const DmaWrite &dma);

    /** Drive capacity in logical blocks. */
    std::uint64_t capacityBlocks() const
    {
        return media_.size() / kBlockBytes;
    }

    const std::vector<std::uint8_t> &media() const { return media_; }

  private:
    QueuePair &qp_;
    std::vector<std::uint8_t> media_;
};

} // namespace nvme
} // namespace tb

#endif // TRAINBOX_DEVICES_NVME_QUEUE_HH
