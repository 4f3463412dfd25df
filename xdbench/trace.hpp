#pragma once

/// \file trace.hpp
/// Span recorder for the benchmark's traced run.
///
/// Spans are opened and closed by the benchmark around its calls into the
/// library's public functions; the library itself records nothing.  Every
/// span keeps its name, start, end and the span that caused it (its
/// parent), and all spans of one traced run share the run's trace id.  The
/// records stay in memory and are written out once, when the run ends.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace xdbench {

class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Record {
    std::string name;
    std::size_t parent = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while the span is open
  };

  explicit Tracer(std::string trace_id)
      : trace_id_(std::move(trace_id)), origin_(Clock::now()) {}

  /// Opens a span as a child of the innermost open span.
  std::size_t open(std::string name) {
    records_.push_back({std::move(name), current_, now_ns(), -1});
    current_ = records_.size() - 1;
    return current_;
  }

  /// Closes span `id`, which must be the innermost open span.
  void close(std::size_t id) {
    records_[id].end_ns = now_ns();
    current_ = records_[id].parent;
  }

  [[nodiscard]] double ms(std::size_t id) const {
    return static_cast<double>(records_[id].end_ns - records_[id].start_ns) /
           1e6;
  }

  /// Duration minus the part of it covered by direct children.
  [[nodiscard]] double self_ms(std::size_t id) const {
    double covered = 0.0;
    for (std::size_t i = id + 1; i < records_.size(); ++i) {
      if (records_[i].parent == id) covered += ms(i);
    }
    return ms(id) - covered;
  }

  /// One JSON document: the trace id and every span with its self time.
  void write_json(std::ostream& os) const {
    os << "{\"trace_id\": \"" << trace_id_ << "\", \"spans\": [";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      os << (i ? ",\n" : "\n") << "  {\"id\": " << i << ", \"name\": \""
         << r.name << "\", \"parent\": "
         << (r.parent == kNoParent ? std::int64_t{-1}
                                   : static_cast<std::int64_t>(r.parent))
         << ", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << r.end_ns
         << ", \"self_ms\": " << self_ms(i) << "}";
    }
    os << "\n]}\n";
  }

 private:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 origin_)
        .count();
  }

  std::string trace_id_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::size_t current_ = kNoParent;
};

/// RAII span: opened on construction, closed by stop() or the destructor.
class Span {
 public:
  Span(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.open(std::move(name))) {}
  ~Span() {
    if (open_) tracer_.close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span and returns its duration in milliseconds.
  double stop() {
    if (open_) tracer_.close(id_);
    open_ = false;
    return tracer_.ms(id_);
  }

 private:
  Tracer& tracer_;
  std::size_t id_;
  bool open_ = true;
};

}  // namespace xdbench
