// Allocation-free event closures for the DES kernel.
//
// EventClosure replaces std::function<void()> in the simulator's event
// queue.  Every capture is stored inline in the Event itself, in
// kInlineSize bytes, so scheduling never allocates.  The buffer covers
// every lambda the codebase schedules -- the largest is Channel::unicast's
// delivery closure at ~56 bytes -- and the constructor accepts only
// callables that fit (fits_inline<F>()): a capture that outgrows the
// buffer is a compile error at its schedule call.
//
// Contract:
//   - EventClosure is move-only.  Closures relocate via the callable's
//     (noexcept) move constructor.
//   - fits_inline<F>() is constexpr, so a test can pin it with a
//     static_assert.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace refer::sim {

/// Move-only type-erased void() callable with inline storage.
class EventClosure {
 public:
  /// Inline capacity; the largest capture scheduled today is 56 bytes.
  static constexpr std::size_t kInlineSize = 64;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  /// True when callables of type F can be stored in an EventClosure.
  template <typename F>
  [[nodiscard]] static constexpr bool fits_inline() noexcept {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<D>;
  }

  EventClosure() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, EventClosure> &&
             fits_inline<F>())
  explicit EventClosure(F&& fn) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>,
                  "event closures are void() callables");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
    vt_ = &kVt<D>;
  }

  EventClosure(EventClosure&& other) noexcept : vt_(other.vt_) {
    if (vt_) {
      vt_->relocate(buf_, other.buf_);
      other.vt_ = nullptr;
    }
  }

  EventClosure& operator=(EventClosure&& other) noexcept {
    if (this != &other) {
      if (vt_) vt_->destroy(buf_);
      vt_ = other.vt_;
      if (vt_) {
        vt_->relocate(buf_, other.buf_);
        other.vt_ = nullptr;
      }
    }
    return *this;
  }

  EventClosure(const EventClosure&) = delete;
  EventClosure& operator=(const EventClosure&) = delete;

  ~EventClosure() {
    if (vt_) vt_->destroy(buf_);
  }

  void operator()() { vt_->invoke(buf_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vt_ != nullptr;
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-constructs dst from src and destroys src's object.  Never
    /// throws.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static constexpr VTable kVt{
      [](void* buf) { (*static_cast<D*>(buf))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* buf) noexcept { static_cast<D*>(buf)->~D(); },
  };

  const VTable* vt_ = nullptr;
  alignas(kInlineAlign) unsigned char buf_[kInlineSize];
};

static_assert(sizeof(EventClosure) == EventClosure::kInlineSize +
                                          EventClosure::kInlineAlign,
              "one vtable pointer of overhead over the inline buffer");

}  // namespace refer::sim
