#include "devices/nvme_queue.hh"

#include "common/logging.hh"

namespace tb {
namespace nvme {

QueuePair::QueuePair(std::size_t depth)
    : depth_(depth), sq_(depth), cq_(depth)
{
    fatal_if(depth < 2, "queue depth must be at least 2");
}

bool
QueuePair::sqFull() const
{
    return sqTail_ - sqHead_ >= depth_ - 1;
}

bool
QueuePair::submit(const Command &cmd)
{
    if (sqFull())
        return false;
    sq_[sqTail_ % depth_] = cmd;
    ++sqTail_; // doorbell
    return true;
}

bool
QueuePair::fetch(Command *out)
{
    panic_if(out == nullptr, "null command out-param");
    if (sqHead_ == sqTail_)
        return false;
    *out = sq_[sqHead_ % depth_];
    ++sqHead_;
    return true;
}

bool
QueuePair::postCompletion(std::uint16_t cid, std::uint16_t status)
{
    if (cqTail_ - cqHead_ >= depth_ - 1)
        return false;
    Completion c;
    c.cid = cid;
    c.status = status;
    // Phase flips every time the tail wraps the ring: entries written
    // in even laps carry phase=1 so the driver can spot fresh entries
    // without a doorbell from the device.
    c.phase = ((cqTail_ / depth_) % 2) == 0;
    cq_[cqTail_ % depth_] = c;
    ++cqTail_;
    return true;
}

bool
QueuePair::poll(Completion *out)
{
    panic_if(out == nullptr, "null completion out-param");
    if (cqHead_ == cqTail_)
        return false;
    *out = cq_[cqHead_ % depth_];
    ++cqHead_;
    return true;
}

std::size_t
QueuePair::submissionsPending() const
{
    return sqTail_ - sqHead_;
}

SsdCommandExecutor::SsdCommandExecutor(QueuePair &qp,
                                       std::vector<std::uint8_t> media)
    : qp_(qp), media_(std::move(media))
{
    fatal_if(media_.size() % kBlockBytes != 0,
             "media size must be a multiple of the block size");
}

std::size_t
SsdCommandExecutor::processAll(const DmaWrite &dma)
{
    std::size_t executed = 0;
    Command cmd;
    while (qp_.fetch(&cmd)) {
        const std::uint64_t blocks = std::uint64_t{cmd.nlb} + 1;
        if (cmd.slba + blocks > capacityBlocks()) {
            qp_.postCompletion(cmd.cid, kStatusLbaOutOfRange);
            ++executed;
            continue;
        }
        if (cmd.opcode == Opcode::Read) {
            const std::size_t offset =
                static_cast<std::size_t>(cmd.slba) * kBlockBytes;
            const std::size_t bytes =
                static_cast<std::size_t>(blocks) * kBlockBytes;
            std::vector<std::uint8_t> data(
                media_.begin() + offset, media_.begin() + offset + bytes);
            dma(cmd.prp, data);
        }
        // Writes would DMA-read from cmd.prp; the prep datapath only
        // reads, so a write is acknowledged without data movement.
        qp_.postCompletion(cmd.cid, kStatusSuccess);
        ++executed;
    }
    return executed;
}

} // namespace nvme
} // namespace tb
