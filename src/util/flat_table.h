/**
 * @file
 * A flat open-addressing map from 64-bit keys to values: the per-line
 * tables of the coherence backends, the page table of the simulated
 * memory and the detector's per-line model state (DetectorState::lines).
 * Each is probed on every simulated access or memory record, so a
 * lookup is one probe of a contiguous slot array rather than a chase
 * through nodes, and dropping a table frees one array, not a node per
 * entry.
 *
 * Linear probing over a power-of-two array, Fibonacci-hashed home
 * slots, at most half full; entries are never erased. A pointer to a
 * value stays valid until the next insertion of a new key. Iteration
 * visits entries in slot order, which depends on the insertion history:
 * callers whose output must not depend on it sort, or only fold
 * commutative counts.
 */

#ifndef LASER_UTIL_FLAT_TABLE_H
#define LASER_UTIL_FLAT_TABLE_H

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace laser {

template <class V>
class FlatTable
{
  public:
    /** Marks an empty slot; not a valid key. */
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    /**
     * Value for @p key, value-initialized if @p key is new; the flag
     * says whether this call inserted it.
     */
    std::pair<V *, bool>
    tryEmplace(std::uint64_t key)
    {
        assert(key != kEmptyKey);
        if (!slots_.empty()) {
            for (std::size_t i = home(key);; i = (i + 1) & mask()) {
                Slot &s = slots_[i];
                if (s.key == key)
                    return {&s.value, false};
                if (s.key != kEmptyKey)
                    continue;
                if (2 * (size_ + 1) > slots_.size())
                    break;
                s.key = key;
                ++size_;
                return {&s.value, true};
            }
        }
        grow();
        Slot &s = emptySlotFor(key);
        s.key = key;
        ++size_;
        return {&s.value, true};
    }

    /** Value for @p key, value-initialized on first use. */
    V &operator[](std::uint64_t key) { return *tryEmplace(key).first; }

    /** Value for @p key, or nullptr if it was never inserted. */
    const V *
    find(std::uint64_t key) const
    {
        if (slots_.empty())
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask()) {
            const Slot &s = slots_[i];
            if (s.key == key)
                return &s.value;
            if (s.key == kEmptyKey)
                return nullptr;
        }
    }

    V *
    find(std::uint64_t key)
    {
        return const_cast<V *>(std::as_const(*this).find(key));
    }

    /** Number of keys inserted. */
    std::size_t size() const { return size_; }

    /** Call @p fn(key, value) for every entry, in slot order. */
    template <class Fn>
    void
    forEach(Fn &&fn)
    {
        for (Slot &s : slots_) {
            if (s.key != kEmptyKey)
                fn(s.key, s.value);
        }
    }

    template <class Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_) {
            if (s.key != kEmptyKey)
                fn(s.key, s.value);
        }
    }

    /** True if @p pred(value) holds for every entry. */
    template <class Pred>
    bool
    allOf(Pred &&pred) const
    {
        for (const Slot &s : slots_) {
            if (s.key != kEmptyKey && !pred(s.value))
                return false;
        }
        return true;
    }

  private:
    struct Slot
    {
        std::uint64_t key = kEmptyKey;
        V value{};
    };

    std::size_t mask() const { return slots_.size() - 1; }

    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                        shift_);
    }

    Slot &
    emptySlotFor(std::uint64_t key)
    {
        std::size_t i = home(key);
        while (slots_[i].key != kEmptyKey)
            i = (i + 1) & mask();
        return slots_[i];
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_ = std::vector<Slot>(old.empty() ? 16 : 2 * old.size());
        shift_ = 64 - std::countr_zero(slots_.size());
        for (Slot &s : old) {
            if (s.key != kEmptyKey) {
                Slot &dst = emptySlotFor(s.key);
                dst.key = s.key;
                dst.value = std::move(s.value);
            }
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    int shift_ = 64;
};

} // namespace laser

#endif // LASER_UTIL_FLAT_TABLE_H
