// Coroutine task types for the simulator.
//
// Task<T> is a lazy coroutine: it starts when first awaited and resumes its
// awaiter (via symmetric transfer) when it finishes. A parent coroutine owns
// the child Task object, whose destructor destroys the child frame. Detached
// top-level coroutines are started with Spawn(), which wraps the task in a
// self-destroying driver.
//
// The library is exception-free (database-engine style); an exception
// escaping a coroutine aborts the process.
//
// Coroutine frames come from FramePool, a per-thread set of free lists, so a
// simulated op allocates no heap memory for its frames once the pool is warm.
#ifndef SHERMAN_SIM_TASK_H_
#define SHERMAN_SIM_TASK_H_

#include <coroutine>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <optional>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define SHERMAN_FRAME_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SHERMAN_FRAME_POOL_ASAN 1
#endif
#endif
#ifdef SHERMAN_FRAME_POOL_ASAN
#include <sanitizer/asan_interface.h>

#include <mutex>
#endif

namespace sherman::sim {

// FramePool: per-thread free lists of fixed-size blocks in 64-byte size
// classes, for coroutine frames (and other short-lived per-op buffers).
// Blocks larger than kMaxPooled go straight to ::operator new. Freed blocks
// are kept for reuse, never returned, so the pool holds its high-water mark.
// A free block's list link is its last word. Under AddressSanitizer the
// rest of a free block is poisoned until it is handed out again, so a touch
// of a destroyed frame (its resume/destroy pointers lead it) still reports.
class FramePool {
 public:
  static constexpr size_t kClassBytes = 64;
  static constexpr size_t kClasses = 64;
  static constexpr size_t kMaxPooled = kClassBytes * kClasses;  // 4 KB

  static void* Allocate(size_t bytes) {
    if (bytes > kMaxPooled) return ::operator new(bytes);
    const size_t block_bytes = RoundUp(bytes);
    void*& head = Lists()[ClassOf(bytes)];
    void* block = head;
    if (block == nullptr) return ::operator new(block_bytes);
#ifdef SHERMAN_FRAME_POOL_ASAN
    ASAN_UNPOISON_MEMORY_REGION(block, block_bytes);
#endif
    head = Link(block, block_bytes);
    return block;
  }

  static void Free(void* p, size_t bytes) noexcept {
    if (bytes > kMaxPooled) {
      ::operator delete(p);
      return;
    }
    const size_t block_bytes = RoundUp(bytes);
    void*& head = Lists()[ClassOf(bytes)];
    Link(p, block_bytes) = head;
    head = p;
#ifdef SHERMAN_FRAME_POOL_ASAN
    // The link stays readable: LeakSanitizer skips poisoned words, and
    // the pool's blocks must stay reachable through it.
    ASAN_POISON_MEMORY_REGION(p, block_bytes - sizeof(void*));
#endif
  }

 private:
  static size_t ClassOf(size_t bytes) {
    return bytes == 0 ? 0 : (bytes - 1) / kClassBytes;
  }
  static size_t RoundUp(size_t bytes) {
    return (ClassOf(bytes) + 1) * kClassBytes;
  }
  static void*& Link(void* block, size_t block_bytes) {
    return *reinterpret_cast<void**>(static_cast<char*>(block) + block_bytes -
                                     sizeof(void*));
  }

#ifndef SHERMAN_FRAME_POOL_ASAN
  static void** Lists() { return free_; }

  static inline thread_local void* free_[kClasses] = {};
#else
  // LeakSanitizer does not see pointers held only in thread-local storage,
  // so here each thread's list heads live on the heap, chained from a
  // global: pooled blocks stay reachable, while a frame that is never
  // destroyed still reads as a leak.
  struct ThreadLists {
    void* heads[kClasses] = {};
    ThreadLists* next = nullptr;
  };

  static void** Lists() {
    static thread_local ThreadLists* mine = [] {
      static std::mutex mu;
      static ThreadLists* all = nullptr;
      auto* lists = new ThreadLists;
      std::lock_guard<std::mutex> lock(mu);
      lists->next = std::exchange(all, lists);
      return lists;
    }();
    return mine->heads;
  }
#endif
};

// A buffer drawn from FramePool, for per-op scratch owned by a coroutine
// frame (e.g. the payload snapshot of a doorbell batch).
class PooledBuffer {
 public:
  explicit PooledBuffer(size_t bytes)
      : bytes_(bytes), data_(bytes > 0 ? FramePool::Allocate(bytes) : nullptr) {}
  ~PooledBuffer() {
    if (data_ != nullptr) FramePool::Free(data_, bytes_);
  }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  template <typename T = unsigned char>
  T* data() const {
    return static_cast<T*>(data_);
  }

 private:
  size_t bytes_;
  void* data_;
};

namespace internal {

// Routes a promise type's coroutine frames through FramePool.
struct PooledFrame {
  static void* operator new(size_t bytes) { return FramePool::Allocate(bytes); }
  static void operator delete(void* p, size_t bytes) noexcept {
    FramePool::Free(p, bytes);
  }
};

struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    auto continuation = h.promise().continuation;
    return continuation ? continuation : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

struct PromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { std::abort(); }
};

}  // namespace internal

template <typename T = void>
class [[nodiscard]] Task;

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : internal::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  ~Task() {
    if (handle_) handle_.destroy();
  }

  // Awaiter interface: starts the child and resumes the parent on finish.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;
  }
  T await_resume() { return std::move(*handle_.promise().value); }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : internal::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  ~Task() {
    if (handle_) handle_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;
  }
  void await_resume() const noexcept {}

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  std::coroutine_handle<promise_type> handle_;
};

namespace internal {

// Self-destroying driver for detached coroutines.
struct Detached {
  struct promise_type : PooledFrame {
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() noexcept { std::abort(); }
  };
};

}  // namespace internal

// Starts `task` immediately (runs until its first suspension point) and lets
// it run to completion driven by simulator events. The task frame is
// destroyed when it finishes.
inline void Spawn(Task<void> task) {
  [](Task<void> t) -> internal::Detached { co_await std::move(t); }(
      std::move(task));
}

// OneShot: a single-fire signal connecting event callbacks to coroutines.
// One coroutine may await it; Fire() resumes the waiter inline (within the
// current event).
class OneShot {
 public:
  OneShot() = default;
  OneShot(const OneShot&) = delete;
  OneShot& operator=(const OneShot&) = delete;

  bool fired() const { return fired_; }

  void Fire() {
    fired_ = true;
    if (waiter_) {
      auto h = std::exchange(waiter_, nullptr);
      h.resume();
    }
  }

  bool await_ready() const noexcept { return fired_; }
  void await_suspend(std::coroutine_handle<> h) { waiter_ = h; }
  void await_resume() const noexcept {}

  // Removes the parked handle WITHOUT resuming it. Crash teardown only: a
  // dead client's coroutine parked on a signal that will never fire is
  // handed to the fault graveyard so it stays reachable (never resumed,
  // never destroyed — see fault/crash_point.h).
  std::coroutine_handle<> DetachWaiter() {
    return std::exchange(waiter_, nullptr);
  }

 private:
  bool fired_ = false;
  std::coroutine_handle<> waiter_ = nullptr;
};

}  // namespace sherman::sim

#endif  // SHERMAN_SIM_TASK_H_
