// Future collector: gather the futures of a batch of submitted I/O
// requests, wait for all of them, surface every failure. Mirrors an
// io_getevents loop over a batch.
#pragma once

#include <future>
#include <vector>

namespace mlpo {

class IoBatch {
 public:
  /// Takes a std::future by move, or a copy of a shared one whose other
  /// holder waits on it as well.
  void add(std::shared_future<void> fut) {
    futures_.push_back(std::move(fut));
  }
  std::size_t size() const { return futures_.size(); }

  /// Waits for every future; no operation is left dangling on error. If
  /// exactly one operation failed its exception is rethrown unchanged
  /// (type-preserving); if several failed, throws std::runtime_error whose
  /// message aggregates every captured failure, so a multi-path error storm
  /// is not silently reduced to whichever path happened to settle first.
  /// Exception: a FailStopError among the failures is rethrown unchanged
  /// even in a multi-failure batch — its type is the node-loss signal the
  /// recovery machinery classifies on.
  void wait_all();

 private:
  std::vector<std::shared_future<void>> futures_;
};

}  // namespace mlpo
