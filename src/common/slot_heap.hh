/**
 * @file
 * Indexed binary min-heap over a caller's slot table: the fluid
 * network's completion heaps and the event queue's order.
 */

#ifndef TRAINBOX_COMMON_SLOT_HEAP_HH
#define TRAINBOX_COMMON_SLOT_HEAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tb {

/**
 * Binary min-heap of (key, slot) pairs that knows where each slot sits,
 * so a slot's key can be changed or removed in O(log n). A slot indexes
 * a table the caller owns. Keys need only operator<; among keys that
 * compare equal the heap picks no particular one first, so a caller
 * that needs a strict order (the event queue) makes its keys distinct.
 */
template <typename Key>
class SlotHeap
{
  public:
    /** Insert @p slot with @p key, or move it to @p key. */
    void set(std::uint32_t slot, Key key);

    /** Remove @p slot (no-op when absent). */
    void erase(std::uint32_t slot);

    bool empty() const { return nodes_.empty(); }
    std::size_t size() const { return nodes_.size(); }

    /** Smallest key; the heap must not be empty. */
    const Key &topKey() const { return nodes_.front().key; }

    /** The slot holding the smallest key; the heap must not be empty. */
    std::uint32_t topSlot() const { return nodes_.front().slot; }

    /** Call @p fn(slot) for every slot whose key is <= @p bound. */
    template <typename Fn>
    void
    forEachAtMost(const Key &bound, Fn &&fn, std::size_t i = 0) const
    {
        if (i >= nodes_.size() || bound < nodes_[i].key)
            return;
        fn(nodes_[i].slot);
        forEachAtMost(bound, fn, 2 * i + 1);
        forEachAtMost(bound, fn, 2 * i + 2);
    }

  private:
    struct Node
    {
        Key key;
        std::uint32_t slot;
    };

    static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

    void place(std::size_t i, Node node);
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    std::vector<Node> nodes_;
    std::vector<std::uint32_t> pos_; ///< slot -> index in nodes_
};

template <typename Key>
void
SlotHeap<Key>::place(std::size_t i, Node node)
{
    nodes_[i] = node;
    pos_[node.slot] = static_cast<std::uint32_t>(i);
}

template <typename Key>
void
SlotHeap<Key>::siftUp(std::size_t i)
{
    const Node node = nodes_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!(node.key < nodes_[parent].key))
            break;
        place(i, nodes_[parent]);
        i = parent;
    }
    place(i, node);
}

template <typename Key>
void
SlotHeap<Key>::siftDown(std::size_t i)
{
    const Node node = nodes_[i];
    const std::size_t n = nodes_.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && nodes_[child + 1].key < nodes_[child].key)
            ++child;
        if (!(nodes_[child].key < node.key))
            break;
        place(i, nodes_[child]);
        i = child;
    }
    place(i, node);
}

template <typename Key>
void
SlotHeap<Key>::set(std::uint32_t slot, Key key)
{
    if (slot >= pos_.size())
        pos_.resize(slot + 1, kAbsent);
    std::size_t i = pos_[slot];
    if (i == kAbsent) {
        i = nodes_.size();
        nodes_.push_back({key, slot});
        pos_[slot] = static_cast<std::uint32_t>(i);
        siftUp(i);
        return;
    }
    const Key old = nodes_[i].key;
    nodes_[i].key = key;
    if (key < old)
        siftUp(i);
    else
        siftDown(i);
}

template <typename Key>
void
SlotHeap<Key>::erase(std::uint32_t slot)
{
    if (slot >= pos_.size() || pos_[slot] == kAbsent)
        return;
    const std::size_t i = pos_[slot];
    pos_[slot] = kAbsent;
    const Node last = nodes_.back();
    nodes_.pop_back();
    if (i == nodes_.size())
        return;
    place(i, last);
    siftUp(i);
    siftDown(pos_[last.slot]);
}

} // namespace tb

#endif // TRAINBOX_COMMON_SLOT_HEAP_HH
