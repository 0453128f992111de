// EventCallback: the one callable type the event loop stores and invokes.
//
// `std::function` made every Schedule() a heap allocation (libstdc++'s
// inline buffer is two words — almost no capture list in this tree fits)
// and every dispatch an indirect call through a type-erased manager. The
// simulator schedules millions of events per experiment, so the event
// loop gets a purpose-built callable instead:
//
//   * small-buffer optimized: captures up to kEventInlineBytes live inside
//     the object, so the common lambdas ([this, req_id], an IoCallback plus
//     a timestamp, a moved Message) never touch the allocator. Larger
//     captures fall back to a single heap cell — correctness never depends
//     on fitting.
//   * move-only: an event fires exactly once, so there is nothing to copy.
//     This also keeps captured move-only state (unique_ptrs, buffers) legal
//     where std::function would have demanded copyability.
//   * unconditionally noexcept-movable: the simulator keeps callables in a
//     slot slab that relocates on growth, and the heap sifts must never be
//     able to throw mid-swap. A capture type that cannot move noexcept is
//     stored on the heap (pointer moves are always noexcept) rather than
//     rejected. Guarded by the static_asserts at the bottom of this file;
//     see docs/STATIC_ANALYSIS.md ("EventFn replacements").
//
// Hot call sites pin their zero-allocation guarantee with
//   static_assert(sim::EventFitsInline<decltype(cb)>);
// so a capture-list growth that would silently reintroduce per-event
// allocation fails the build instead.

#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace leed::sim {

// Inline capture budget. 64 bytes covers the tree's hot lambdas (a network
// delivery with a moved Message is 48; an SSD completion with an IoCallback
// is 48) without bloating the slot slab.
inline constexpr std::size_t kEventInlineBytes = 64;

// True when F is stored inline (no allocation on Schedule).
template <typename F>
inline constexpr bool EventFitsInline =
    sizeof(F) <= kEventInlineBytes &&
    alignof(F) <= alignof(std::max_align_t) &&
    std::is_nothrow_move_constructible_v<F>;

class EventCallback {
 public:
  EventCallback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): callables convert
  // implicitly, mirroring the std::function API this replaces.
  EventCallback(F&& fn) {
    if constexpr (EventFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      vtable_ = &kInlineVTable<D>;
    } else {
      ::new (static_cast<void*>(buf_)) (D*)(new D(std::forward<F>(fn)));
      vtable_ = &kHeapVTable<D>;
    }
  }

  EventCallback(EventCallback&& other) noexcept : vtable_(other.vtable_) {
    if (vtable_ != nullptr) vtable_->relocate(buf_, other.buf_);
    other.vtable_ = nullptr;
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      vtable_ = other.vtable_;
      if (vtable_ != nullptr) vtable_->relocate(buf_, other.buf_);
      other.vtable_ = nullptr;
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { Reset(); }

  // Precondition: bool(*this). The event loop only invokes armed slots.
  void operator()() { vtable_->invoke(buf_); }

  explicit operator bool() const noexcept { return vtable_ != nullptr; }

 private:
  struct VTable {
    void (*invoke)(void* storage);
    // Move-construct *src's callable into dst's storage, then destroy the
    // source. Must not throw: slab growth and heap sifts rely on it.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static D* Inline(void* storage) noexcept {
    return std::launder(reinterpret_cast<D*>(storage));
  }
  template <typename D>
  static D* Heaped(void* storage) noexcept {
    return *std::launder(reinterpret_cast<D**>(storage));
  }

  template <typename D>
  static void InlineInvoke(void* storage) {
    (*Inline<D>(storage))();
  }
  template <typename D>
  static void InlineRelocate(void* dst, void* src) noexcept {
    D* from = Inline<D>(src);
    ::new (dst) D(std::move(*from));
    from->~D();
  }
  template <typename D>
  static void InlineDestroy(void* storage) noexcept {
    Inline<D>(storage)->~D();
  }

  template <typename D>
  static void HeapInvoke(void* storage) {
    (*Heaped<D>(storage))();
  }
  template <typename D>
  static void HeapRelocate(void* dst, void* src) noexcept {
    ::new (dst) (D*)(Heaped<D>(src));
  }
  template <typename D>
  static void HeapDestroy(void* storage) noexcept {
    delete Heaped<D>(storage);
  }

  template <typename D>
  static constexpr VTable kInlineVTable{&InlineInvoke<D>, &InlineRelocate<D>,
                                        &InlineDestroy<D>};
  template <typename D>
  static constexpr VTable kHeapVTable{&HeapInvoke<D>, &HeapRelocate<D>,
                                      &HeapDestroy<D>};

  void Reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(buf_);
      vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kEventInlineBytes];
  const VTable* vtable_ = nullptr;
};

// The slot slab and the dispatch path depend on these; a change that breaks
// them reintroduces copy/throw hazards the §8 replay guarantee rules out.
static_assert(std::is_nothrow_move_constructible_v<EventCallback>);
static_assert(std::is_nothrow_move_assignable_v<EventCallback>);
static_assert(!std::is_copy_constructible_v<EventCallback>);

}  // namespace leed::sim
