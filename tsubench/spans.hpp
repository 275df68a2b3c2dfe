// In-memory span recorder for the benchmark's traced run.
//
// A span is one timed call from the benchmark into a tsu layer: its name
// (the layer's metric prefix, e.g. "update.plan"), steady-clock start and
// end, the span that was open when it began (its parent) and the run id
// (the benchmark iteration it belongs to; 0 is set-up). Spans stay in a
// vector until the run ends and are then written out once as Chrome
// trace-event JSON, which Perfetto and chrome://tracing open.
//
// Timing is always on - the benchmark's end-to-end figures come from the
// same Scope objects - while storing spans is only on in the traced run,
// so the untraced run pays one clock read per boundary and nothing else.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace tsubench {

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t parent = kNoParent;
    std::uint32_t run = 0;
  };

  // Per-name aggregate: how many spans, their summed duration and summed
  // self time (duration minus the part covered by child spans).
  struct NameTotals {
    std::size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }
  void set_run(std::uint32_t run) noexcept { run_ = run; }

  // RAII span. close() ends it early and returns its duration in ns.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name)
        : rec_(rec), start_(now_ns()) {
      if (rec_.enabled_) {
        index_ = static_cast<std::uint32_t>(rec_.spans_.size());
        rec_.spans_.push_back(Span{name, start_, 0, rec_.open_, rec_.run_});
        rec_.open_ = index_;
      }
    }
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    double close() {
      if (closed_) return elapsed_;
      closed_ = true;
      const std::int64_t end = now_ns();
      elapsed_ = static_cast<double>(end - start_);
      if (index_ != kNoParent) {
        rec_.spans_[index_].end_ns = end;
        rec_.open_ = rec_.spans_[index_].parent;
      }
      return elapsed_;
    }

   private:
    SpanRecorder& rec_;
    std::int64_t start_;
    std::uint32_t index_ = kNoParent;
    bool closed_ = false;
    double elapsed_ = 0;
  };

  // Durations (ns) of every span called `name`, in recording order.
  std::vector<double> durations_ns(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (name == s.name)
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    return out;
  }

  // Self time per span: children run nested inside their parent (spans
  // are strictly scoped), so a parent's child coverage is the sum of its
  // direct children's durations.
  std::map<std::string, NameTotals> totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
    std::map<std::string, NameTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      NameTotals& t = out[s.name];
      ++t.count;
      t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      t.self_ms +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    }
    return out;
  }

  // Chrome trace-event JSON ("X" complete events, microsecond timestamps
  // relative to the first span); args carry the span id, parent and run.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("{\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld,\"run\":%u}}",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   s.run);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

  static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  std::uint32_t run_ = 0;
  std::uint32_t open_ = kNoParent;
  std::vector<Span> spans_;
};

}  // namespace tsubench
