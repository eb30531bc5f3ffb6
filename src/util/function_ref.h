// FunctionRef<R(Args...)>: a non-owning reference to a callable. Two words,
// no allocation; the referenced callable must outlive every call. Use it
// for a callback parameter that the callee only invokes before returning
// (or, for a coroutine callee, before the caller's co_await completes).
#ifndef SHERMAN_UTIL_FUNCTION_REF_H_
#define SHERMAN_UTIL_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace sherman {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace sherman

#endif  // SHERMAN_UTIL_FUNCTION_REF_H_
