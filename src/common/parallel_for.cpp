#include "common/parallel_for.hpp"

#include <atomic>
#include <thread>
#include <vector>

namespace dvmc {

unsigned hardwareWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void parallelFor(std::size_t count, unsigned jobs,
                 const std::function<void(std::size_t)>& body) {
  if (jobs == 0) jobs = hardwareWorkers();
  if (jobs <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  if (jobs > count) jobs = static_cast<unsigned>(count);

  // One claim loop per thread; each exits once the index space is
  // exhausted.
  std::atomic<std::size_t> next{0};
  auto claim = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      body(i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(jobs);
  for (unsigned t = 0; t < jobs; ++t) threads.emplace_back(claim);
  for (std::thread& t : threads) t.join();
}

}  // namespace dvmc
