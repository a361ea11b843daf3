#pragma once

/// \file event_fn.hpp
/// Allocation-free event callbacks for the discrete-event simulator.
///
/// The schedule→fire hot path runs tens of millions of times per experiment
/// (Figure 2 alone), and std::function heap-allocates any capture larger than
/// its tiny internal buffer — a Message-carrying delivery lambda always
/// missed it.  EventFn fixes the storage contract:
///
///   - captures up to kInlineBytes (72) that need no more than pointer
///     alignment live *inside* the event (the common case: a transport
///     delivery closure with its Message fits), so scheduling performs zero
///     heap allocations;
///   - larger or over-aligned captures are placed in fixed-size blocks from
///     an EventArena, a slab allocator with a free list — blocks are
///     recycled event-to-event, so steady state performs zero heap
///     allocations there too;
///   - captures larger than a block fall back to operator new and are
///     counted, so "zero allocations per event" is a number a test can
///     assert (see EventArena::Stats and Simulator::alloc_stats()).
///
/// EventFn is neither copyable nor movable: the event queue builds each
/// callback into a slot with emplace(), the simulator invokes it there once
/// and reset()s it, and nothing ever relocates it.  Invocation does not
/// consume it.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace pqra::sim {

/// Slab allocator for event captures that do not fit inline.  Carves
/// fixed-size blocks out of chunked slabs and recycles them through a free
/// list; only chunk growth and oversize captures touch the global heap, and
/// both are counted.  Not thread-safe — each Simulator owns one.
class EventArena {
 public:
  /// Block size: covers every closure in the repository today (the largest,
  /// a fault-plan event with its partition groups, is well under this) with
  /// room for growth.  Bigger captures still work via the counted fallback.
  static constexpr std::size_t kBlockBytes = 256;
  /// Blocks per chunk: one heap allocation buys 64 recyclable blocks.
  static constexpr std::size_t kBlocksPerChunk = 64;

  /// Allocation-path tallies; the unit tests assert the zero-allocation
  /// claim against these instead of trusting inspection.
  struct Stats {
    std::uint64_t inline_events = 0;    ///< captures stored inside the event
    std::uint64_t arena_events = 0;     ///< captures placed in slab blocks
    std::uint64_t oversize_events = 0;  ///< captures > kBlockBytes (heap)
    std::uint64_t chunks_allocated = 0; ///< slab growth heap allocations
    std::size_t blocks_live = 0;        ///< slab blocks currently in use
    std::size_t blocks_high_water = 0;  ///< max blocks ever in use at once

    /// Heap allocations attributable to event scheduling.
    std::uint64_t heap_allocations() const {
      return chunks_allocated + oversize_events;
    }
  };

  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  void* allocate(std::size_t bytes) {
    if (bytes > kBlockBytes) {
      ++stats_.oversize_events;
      return ::operator new(bytes, std::align_val_t{alignof(std::max_align_t)});
    }
    ++stats_.arena_events;
    if (free_ == nullptr) grow();
    FreeNode* node = free_;
    free_ = node->next;
    ++stats_.blocks_live;
    if (stats_.blocks_live > stats_.blocks_high_water) {
      stats_.blocks_high_water = stats_.blocks_live;
    }
    return node;
  }

  void deallocate(void* p, std::size_t bytes) {
    if (bytes > kBlockBytes) {
      ::operator delete(p, std::align_val_t{alignof(std::max_align_t)});
      return;
    }
    auto* node = static_cast<FreeNode*>(p);
    node->next = free_;
    free_ = node;
    --stats_.blocks_live;
  }

  void note_inline() { ++stats_.inline_events; }

  const Stats& stats() const { return stats_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  struct alignas(std::max_align_t) Block {
    std::byte bytes[kBlockBytes];
  };

  void grow() {
    // pqra-lint: allow(hotpath-alloc) — this IS the counted arena growth
    chunks_.push_back(std::make_unique<Block[]>(kBlocksPerChunk));
    ++stats_.chunks_allocated;
    Block* chunk = chunks_.back().get();
    for (std::size_t i = kBlocksPerChunk; i > 0; --i) {
      auto* node = reinterpret_cast<FreeNode*>(&chunk[i - 1]);
      node->next = free_;
      free_ = node;
    }
  }

  std::vector<std::unique_ptr<Block[]>> chunks_;
  FreeNode* free_ = nullptr;
  Stats stats_;
};

/// Immovable `void()` callable with a 72-byte inline buffer; captures that
/// do not fit are stored in EventArena blocks.  See the file comment for the
/// storage contract.
class EventFn {
 public:
  /// Inline capacity.  Sized so the hottest closure in the system — the
  /// SimTransport delivery lambda: `this`, from, to and a 56-byte
  /// net::Message, 72 bytes in all — stays inline (sim_transport.cpp
  /// static_asserts it).  Inline storage is pointer-aligned, so
  /// sizeof(EventFn) is 80.
  static constexpr std::size_t kInlineBytes = 72;

  /// True when a callable of type \p F is stored inside the event: it fits
  /// kInlineBytes and needs no more than pointer alignment.  Anything else
  /// goes to the arena.
  template <typename F>
  static constexpr bool fits_inline() {
    using Fn = std::decay_t<F>;
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(void*);
  }

  EventFn() noexcept : vt_(nullptr) {}

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn>>>
  EventFn(F&& f, EventArena& arena) : vt_(nullptr) {
    emplace(std::forward<F>(f), arena);
  }

  /// Builds \p f into this (empty) event where it stands: an inline capture
  /// is constructed in place, a larger one in an arena block.  This is how
  /// the event queue fills a slot with one move (or copy) of the caller's
  /// closure.  If that throws, the event stays empty and keeps no block.
  template <typename F>
  void emplace(F&& f, EventArena& arena) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "event callback must be callable with no arguments");
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(store_.inline_bytes)) Fn(std::forward<F>(f));
      arena.note_inline();
      vt_ = inline_vtable<Fn>();
    } else {
      void* p = arena.allocate(sizeof(Fn));
      try {
        ::new (p) Fn(std::forward<F>(f));
      } catch (...) {
        arena.deallocate(p, sizeof(Fn));  // a failed copy keeps no block
        throw;
      }
      store_.ext.ptr = p;
      store_.ext.arena = &arena;
      vt_ = external_vtable<Fn>();
    }
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() { vt_->invoke(&store_); }

  /// Destroys the capture (returning an arena block) and leaves the event
  /// empty.
  void reset() noexcept {
    if (vt_ == nullptr) return;
    vt_->destroy(&store_);
    vt_ = nullptr;
  }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

 private:
  struct External {
    void* ptr;
    EventArena* arena;
  };

  /// Both entries take the address of store_, so neither invoking nor
  /// destroying asks where the capture lives.
  struct VTable {
    void (*invoke)(void* store);
    void (*destroy)(void* store);
  };

  template <typename Fn>
  static const VTable* inline_vtable() {
    static constexpr VTable vt{
        [](void* store) { (*static_cast<Fn*>(store))(); },
        [](void* store) { static_cast<Fn*>(store)->~Fn(); },
    };
    return &vt;
  }

  template <typename Fn>
  static const VTable* external_vtable() {
    static constexpr VTable vt{
        [](void* store) {
          (*static_cast<Fn*>(static_cast<External*>(store)->ptr))();
        },
        [](void* store) {
          const External ext = *static_cast<External*>(store);
          static_cast<Fn*>(ext.ptr)->~Fn();
          ext.arena->deallocate(ext.ptr, sizeof(Fn));
        },
    };
    return &vt;
  }

  union Store {
    Store() {}  // NOLINT(modernize-use-equals-default) — union member
    alignas(void*) std::byte inline_bytes[kInlineBytes];
    External ext;
  } store_;
  const VTable* vt_;
};

static_assert(sizeof(EventFn) == 80, "an event slot stays 80 bytes");

}  // namespace pqra::sim
