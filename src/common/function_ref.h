// A non-owning reference to a callable: two words, never allocates.
//
// Takes the place of `const std::function<...>&` parameters on hot paths
// (TxManager::Run, the lock table's wait predicate), where constructing a
// std::function from a lambda with more captures than its small buffer would
// heap-allocate once per call. The referenced callable must outlive the
// FunctionRef; binding a parameter to a temporary lambda at the call site is
// fine, since the temporary lives until the call returns.

#ifndef SRC_COMMON_FUNCTION_REF_H_
#define SRC_COMMON_FUNCTION_REF_H_

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace kamino {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, FunctionRef> &&
                                        std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return std::invoke(*static_cast<std::remove_reference_t<F>*>(obj),
                             std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace kamino

#endif  // SRC_COMMON_FUNCTION_REF_H_
