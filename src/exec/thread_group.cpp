#include "exec/thread_group.hpp"

namespace csmt::exec {

ThreadGroup::ThreadGroup(const isa::Program& program, mem::PagedMemory& memory,
                         unsigned nthreads, Addr args_base) {
  threads_.reserve(nthreads);
  for (unsigned i = 0; i < nthreads; ++i) {
    threads_.push_back(std::make_unique<ThreadContext>(
        static_cast<ThreadId>(i), program, memory, i, nthreads, args_base,
        &sync_));
  }
}

bool ThreadGroup::all_done() const {
  for (const auto& t : threads_)
    if (!t->done()) return false;
  return true;
}

std::uint64_t ThreadGroup::total_instret() const {
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->instret();
  return n;
}

}  // namespace csmt::exec
