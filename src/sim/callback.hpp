// Move-only, small-buffer `void()` callable for simulator events.
//
// Every scheduled event carries one of these. Callables up to kInlineBytes
// (and nothrow-movable) live inside the object, so the lambdas on the hot
// paths — Ethernet delivery, token passing, ORB dispatch — schedule without
// touching the allocator. Larger callables fall back to one heap cell, the
// same cost a std::function would have paid. Any lambda or std::function
// converts implicitly, so `sim.schedule(d, [..] {..})` call sites are
// unchanged.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace eternal::sim {

class Callback {
 public:
  /// Inline capacity: fits a lambda capturing `this`, a TokenFrame and a
  /// ViewId, the largest hot-path capture.
  static constexpr std::size_t kInlineBytes = 112;

  Callback() noexcept = default;

  template <typename F, typename Fn = std::decay_t<F>>
    requires(!std::is_same_v<Fn, Callback> && std::is_invocable_r_v<void, Fn&>)
  Callback(F&& f) {  // implicit: call sites pass lambdas directly
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Callback(Callback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.buf_, buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  /// Invokes the callable. Precondition: non-empty.
  void operator()() { ops_->invoke(buf_); }

  /// Destroys the held callable (and whatever it captured); leaves empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs into `to` and destroys the source in `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static Fn* inline_ptr(void* s) noexcept {
    return std::launder(static_cast<Fn*>(s));
  }
  template <typename Fn>
  static Fn*& heap_ptr(void* s) noexcept {
    return *std::launder(static_cast<Fn**>(s));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* s) { (*inline_ptr<Fn>(s))(); },
      [](void* from, void* to) noexcept {
        Fn* src = inline_ptr<Fn>(from);
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      [](void* s) noexcept { inline_ptr<Fn>(s)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* s) { (*heap_ptr<Fn>(s))(); },
      [](void* from, void* to) noexcept { ::new (to) Fn*(heap_ptr<Fn>(from)); },
      [](void* s) noexcept { delete heap_ptr<Fn>(s); },
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace eternal::sim
