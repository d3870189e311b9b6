// In-memory span recorder for the traced benchmark run. Spans are recorded
// from the benchmark's own code around calls into each layer's public
// functions (the library itself is not instrumented), kept in a vector, and
// written out once the run ends. A disabled tracer records nothing, so the
// untraced run pays one branch per span site.
//
// Every span is opened and closed on the benchmark's driving thread, so the
// "causing span" of a new span is simply the innermost span still open.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cassert>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
inline double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

struct Span {
  uint32_t id = 0;      ///< 1-based; 0 means "no span"
  uint32_t parent = 0;  ///< the span open when this one began, or 0
  std::string name;
  double start = 0.0;
  double end = 0.0;
  /// Folded spans stand for time accumulated over many short calls (a
  /// RowSource's Next() calls inside a streaming build); their interval is
  /// laid end to end from the parent's start and only its length is real.
  bool folded = false;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  uint32_t Begin(std::string name) {
    if (!enabled_) return 0;
    Span span;
    span.id = static_cast<uint32_t>(spans_.size() + 1);
    span.parent = open_.empty() ? 0 : open_.back();
    span.name = std::move(name);
    span.start = Now();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void End(uint32_t id) {
    if (!enabled_) return;
    assert(!open_.empty() && open_.back() == id);
    spans_[id - 1].end = Now();
    open_.pop_back();
  }

  /// Records `seconds` of accumulated time as a folded child of `parent`.
  void AddFolded(uint32_t parent, std::string name, double seconds) {
    if (!enabled_ || parent == 0) return;
    Span span;
    span.id = static_cast<uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.name = std::move(name);
    span.start = spans_[parent - 1].start;
    span.end = span.start + seconds;
    span.folded = true;
    spans_.push_back(std::move(span));
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span; a null or disabled tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(std::move(name)) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
