// Small-buffer-optimized move-only callable, the event-queue closure type.
//
// Every scheduled event used to carry a std::function<void()>, whose
// 16-byte inline buffer is too small for the typical simulation lambda
// ([this, packet, a couple of ints] is ~32-40 bytes), so nearly every
// Schedule() call heap-allocated. This wrapper stores captures up to
// kInlineBytes in place — sized so the hot-path lambdas across the
// shell/service layers fit — and only falls back to the heap beyond
// that. Move-only (events fire exactly once; this also admits move-only
// captures, which std::function rejects).

#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace catapult::sim {

template <typename Signature>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
  public:
    /** Inline capture budget; larger callables go to the heap. */
    static constexpr std::size_t kInlineBytes = 48;

    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                          std::is_invocable_r_v<R, D&, Args...>>>
    InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
        // Relocation moves the callable between buffers, so the inline
        // path additionally requires a noexcept move constructor;
        // anything else is boxed.
        if constexpr (sizeof(D) <= kInlineBytes &&
                      alignof(D) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<D>) {
            ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
            invoke_ = &InvokeInline<D>;
            manage_ = &ManageInline<D>;
        } else {
            ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
            invoke_ = &InvokeBoxed<D>;
            manage_ = &ManageBoxed<D>;
        }
    }

    InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }

    InlineFunction& operator=(InlineFunction&& other) noexcept {
        if (this != &other) {
            Reset();
            MoveFrom(other);
        }
        return *this;
    }

    /** Destroy the held callable, leaving this empty. */
    InlineFunction& operator=(std::nullptr_t) {
        Reset();
        return *this;
    }

    InlineFunction(const InlineFunction&) = delete;
    InlineFunction& operator=(const InlineFunction&) = delete;

    ~InlineFunction() { Reset(); }

    explicit operator bool() const { return invoke_ != nullptr; }

    R operator()(Args... args) {
        return invoke_(storage_, std::forward<Args>(args)...);
    }

  private:
    enum class Op {
        kRelocate,  ///< Move-construct into `dst`, destroy the source.
        kDestroy,   ///< Destroy in place.
    };

    using InvokeFn = R (*)(void*, Args&&...);
    using ManageFn = void (*)(void* self, void* dst, Op op);

    template <typename F>
    static R InvokeInline(void* self, Args&&... args) {
        return (*std::launder(reinterpret_cast<F*>(self)))(
            std::forward<Args>(args)...);
    }

    template <typename F>
    static void ManageInline(void* self, void* dst, Op op) {
        F* f = std::launder(reinterpret_cast<F*>(self));
        if (op == Op::kRelocate) ::new (dst) F(std::move(*f));
        f->~F();
    }

    template <typename F>
    static R InvokeBoxed(void* self, Args&&... args) {
        return (**std::launder(reinterpret_cast<F**>(self)))(
            std::forward<Args>(args)...);
    }

    template <typename F>
    static void ManageBoxed(void* self, void* dst, Op op) {
        F** box = std::launder(reinterpret_cast<F**>(self));
        if (op == Op::kRelocate) {
            ::new (dst) F*(*box);
        } else {
            delete *box;
        }
    }

    void MoveFrom(InlineFunction& other) noexcept {
        if (!other.invoke_) return;
        other.manage_(other.storage_, storage_, Op::kRelocate);
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        other.invoke_ = nullptr;
        other.manage_ = nullptr;
    }

    void Reset() {
        if (manage_) manage_(storage_, nullptr, Op::kDestroy);
        invoke_ = nullptr;
        manage_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    InvokeFn invoke_ = nullptr;
    ManageFn manage_ = nullptr;
};

}  // namespace catapult::sim
