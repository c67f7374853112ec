#include "runtime/thread_pool.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace streamhull {

namespace {
// The pool owning the calling thread, for the barrier deadlock CHECKs.
thread_local const ThreadPool* tls_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  queues_.resize(num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  // Drain before raising shutdown_: queued tasks may legally Submit or
  // Post follow-on work (the documented fan-out pattern), which must not
  // trip Submit's !shutdown_ check mid-drain. After WaitIdle nothing is
  // queued or running — no strand drain can touch freed Strand state — and
  // the owner destroying us means nothing new arrives.
  WaitIdle();
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    SH_CHECK(!shutdown_);
    queues_[next_queue_].tasks.push_back(std::move(task));
    next_queue_ = (next_queue_ + 1) % queues_.size();
    ++inflight_;
  }
  work_cv_.notify_one();
}

ThreadPool::StrandId ThreadPool::AddStrand() {
  std::unique_lock<std::mutex> lock(strands_mu_);
  strands_.push_back(std::make_unique<Strand>());
  return strands_.size() - 1;
}

void ThreadPool::Post(StrandId id, std::function<void()> task) {
  Strand* strand;
  {
    std::unique_lock<std::mutex> lock(strands_mu_);
    SH_CHECK(id < strands_.size());
    strand = strands_[id].get();
  }
  bool schedule;
  {
    std::unique_lock<std::mutex> lock(strand->mu);
    strand->pending.push_back(std::move(task));
    schedule = !strand->draining;
    if (schedule) strand->draining = true;
  }
  if (schedule) {
    Submit([this, strand] { Drain(strand); });
  }
}

void ThreadPool::Drain(Strand* strand) {
  // The `draining` flag makes this loop the strand's only executor, and
  // releasing the strand mutex between check and run keeps Post()
  // non-blocking while a task executes. The flag is cleared under the same
  // lock that proves the queue empty, so a concurrent Post() either sees
  // draining==true and appends behind us, or submits the next drain itself
  // — never neither. Successive drains may run on different workers; the
  // mutex hand-off orders their memory effects.
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(strand->mu);
      if (strand->pending.empty()) {
        strand->draining = false;
        return;
      }
      task = std::move(strand->pending.front());
      strand->pending.pop_front();
    }
    task();
  }
}

bool ThreadPool::PopTask(size_t self, std::function<void()>* out) {
  // Own queue first (FIFO), then steal from the back of the longest
  // sibling queue so one hot shard cannot strand the rest.
  if (!queues_[self].tasks.empty()) {
    *out = std::move(queues_[self].tasks.front());
    queues_[self].tasks.pop_front();
    return true;
  }
  size_t victim = self;
  size_t longest = 0;
  for (size_t i = 0; i < queues_.size(); ++i) {
    if (i != self && queues_[i].tasks.size() > longest) {
      longest = queues_[i].tasks.size();
      victim = i;
    }
  }
  if (longest == 0) return false;
  *out = std::move(queues_[victim].tasks.back());
  queues_[victim].tasks.pop_back();
  return true;
}

void ThreadPool::WorkerLoop(size_t self) {
  tls_pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    std::function<void()> task;
    if (PopTask(self, &task)) {
      lock.unlock();
      task();
      // Destroy the task (and anything it captured) outside the lock.
      task = nullptr;
      lock.lock();
      if (--inflight_ == 0) idle_cv_.notify_all();
      continue;
    }
    if (shutdown_) break;
    work_cv_.wait(lock);
  }
}

bool ThreadPool::InWorkerThread() const { return tls_pool == this; }

void ThreadPool::WaitIdle() {
  SH_CHECK(!InWorkerThread() && "WaitIdle() from inside a pool task");
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return inflight_ == 0; });
}

}  // namespace streamhull
