#include "base/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/memory.h"
#include "obs/task.h"

namespace lac::base {

namespace {

thread_local bool tl_in_task = false;

struct ScopedInTask {
  bool prev = tl_in_task;
  ScopedInTask() { tl_in_task = true; }
  ~ScopedInTask() { tl_in_task = prev; }
};

// A fixed-function thread pool: helpers park on a condition variable and,
// per job, run a caller-supplied body for their slot.  There is no task
// queue and no stealing — the body itself walks the chunk space,
// slot-strided.  One job runs at a time; concurrent top-level
// parallel_for calls serialise on `run_mu_`.  The pool grows on demand up
// to the largest slot count ever requested and is intentionally leaked so
// worker lifetime never races static destruction.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool* pool = new ThreadPool;
    return *pool;
  }

  // Runs body(slot) for slots 1..slots-1 on helpers while the caller is
  // expected to run body(0) itself via the returned guard; blocks until
  // every helper slot finished.
  void run(int slots, const std::function<void(int)>& body) {
    std::lock_guard run_lock(run_mu_);
    {
      std::lock_guard lock(mu_);
      grow_locked(slots - 1);
      body_ = &body;
      slots_ = slots;
      remaining_ = slots - 1;
      ++generation_;
    }
    cv_job_.notify_all();
    body(0);
    std::unique_lock lock(mu_);
    cv_done_.wait(lock, [&] { return remaining_ == 0; });
    body_ = nullptr;
  }

 private:
  ThreadPool() = default;

  void grow_locked(int helpers_needed) {
    while (static_cast<int>(threads_.size()) < helpers_needed) {
      const int index = static_cast<int>(threads_.size());
      threads_.emplace_back([this, index] { worker_main(index); });
    }
  }

  void worker_main(int pool_index) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* body = nullptr;
      int slot = -1;
      {
        std::unique_lock lock(mu_);
        cv_job_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        if (pool_index + 1 < slots_) {
          body = body_;
          slot = pool_index + 1;
        }
      }
      if (body == nullptr) continue;  // not a participant of this job
      (*body)(slot);
      {
        std::lock_guard lock(mu_);
        --remaining_;
      }
      cv_done_.notify_one();
    }
  }

  std::mutex run_mu_;  // serialises whole jobs
  std::mutex mu_;
  std::condition_variable cv_job_;
  std::condition_variable cv_done_;
  std::vector<std::thread> threads_;
  const std::function<void(int)>* body_ = nullptr;
  int slots_ = 0;
  int remaining_ = 0;
  std::uint64_t generation_ = 0;
};

struct ChunkSpace {
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::size_t num_chunks = 0;

  [[nodiscard]] std::size_t begin(std::size_t c) const { return c * chunk; }
  [[nodiscard]] std::size_t end(std::size_t c) const {
    return std::min(n, (c + 1) * chunk);
  }
};

// Chunk-count target: enough chunks that static round-robin stays
// balanced for any realistic worker count, few enough that per-chunk
// capture and commit overhead stays negligible.
constexpr std::size_t kChunkTarget = 32;

ChunkSpace make_chunks(std::size_t n) {
  ChunkSpace cs;
  cs.n = n;
  // The chunk partition must NOT depend on the worker count: per-chunk
  // effects — obs task captures, scratch buffers task bodies allocate per
  // chunk — are part of the deterministic record, so the
  // same n must always split into the same chunks.  A fixed target keeps
  // round-robin balanced at any thread count the pipeline realistically
  // runs with.
  cs.chunk = std::max<std::size_t>(1, n / kChunkTarget);
  cs.num_chunks = (n + cs.chunk - 1) / cs.chunk;
  return cs;
}

// The workers a loop over `cs` issued from this thread runs on; 1 means
// inline (a nested loop always runs inline).
int loop_workers(const ExecPolicy& policy, const ChunkSpace& cs) {
  const int resolved = policy.resolved_threads();
  if (tl_in_task) return 1;
  return static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(resolved), cs.num_chunks));
}

}  // namespace

bool inside_parallel_task() { return tl_in_task; }

int parallel_slots(const ExecPolicy& policy, std::size_t n) {
  return std::max(1, loop_workers(policy, make_chunks(n)));
}

void parallel_for_chunked(
    const ExecPolicy& policy, std::size_t n,
    const std::function<void(std::size_t, std::size_t, int)>& fn) {
  if (n == 0) return;
  const ChunkSpace cs = make_chunks(n);
  const int workers = loop_workers(policy, cs);

  auto run_chunk = [&](std::size_t c, int slot, obs::TaskCapture& cap,
                       std::exception_ptr& err) {
    ScopedInTask in_task;
    obs::ScopedTaskCapture scope(&cap);
    try {
      fn(cs.begin(c), cs.end(c), slot);
    } catch (...) {
      err = std::current_exception();
    }
  };

  if (workers <= 1) {
    // Inline execution follows the exact discipline of the pooled path —
    // per-chunk capture, commit in index order — so reports are
    // byte-identical across thread counts.
    for (std::size_t c = 0; c < cs.num_chunks; ++c) {
      obs::TaskCapture cap;
      std::exception_ptr err;
      run_chunk(c, 0, cap, err);
      if (err) std::rethrow_exception(err);
      obs::commit_task_capture(std::move(cap));
    }
    return;
  }

  std::vector<obs::TaskCapture> captures;
  std::vector<std::exception_ptr> errors;

  {
    // Pooled-only engine bookkeeping (the capture/error arrays, the
    // type-erased body, lazily created pool threads) is off the memory
    // books: the inline path has none of it, and span allocation deltas
    // must not depend on which path ran.  Chunk bodies themselves account
    // normally — ScopedTaskCapture detaches into a clean context.
    obs::memory::PauseScope mem_pause;
    captures.resize(cs.num_chunks);
    errors.resize(cs.num_chunks);

    // Static round-robin: chunk c belongs to worker c % workers.  No
    // time-dependent dispatch at all.
    const std::function<void(int)> body = [&](int slot) {
      for (std::size_t c = static_cast<std::size_t>(slot); c < cs.num_chunks;
           c += static_cast<std::size_t>(workers))
        run_chunk(c, slot, captures[c], errors[c]);
    };

    ThreadPool::instance().run(workers, body);
  }

  for (std::size_t c = 0; c < cs.num_chunks; ++c) {
    if (errors[c]) std::rethrow_exception(errors[c]);
    obs::commit_task_capture(std::move(captures[c]));
  }

  {
    // The arrays' own storage was allocated under the pause above; free
    // it under a pause too so the books stay balanced.
    obs::memory::PauseScope mem_pause;
    std::vector<obs::TaskCapture>().swap(captures);
    std::vector<std::exception_ptr>().swap(errors);
  }
}

}  // namespace lac::base
