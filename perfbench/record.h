// What one `bclean_perf run` measured, written as one JSON document for
// perfbench/run.py to aggregate: raw latency samples (run.py picks the
// percentiles), output digests grouped by the equality each group must
// satisfy, operation counts, counters, the environment and the spans.
#ifndef PERFBENCH_RECORD_H_
#define PERFBENCH_RECORD_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "perfbench/trace.h"

namespace perfbench {

struct Record {
  std::map<std::string, std::string> env;
  /// Latency samples in seconds, by metric.
  std::map<std::string, std::vector<double>> samples;
  /// Scalars: counts, bytes, ratios, one-off times.
  std::map<std::string, double> values;
  /// Each group's digests must all be equal (run.py checks; a group that
  /// disagrees is a failed operation).
  std::map<std::string, std::vector<std::string>> digest_groups;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Span> spans;

  /// Counts one operation; a failure also records `what`.
  bool Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      errors.push_back(what);
    }
    return ok;
  }

  void Sample(const std::string& name, double seconds) {
    samples[name].push_back(seconds);
  }

  void Digest(const std::string& group, uint64_t digest) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    digest_groups[group].push_back(hex);
  }

  std::string ToJson() const;
};

namespace detail {

inline std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

inline std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename T, typename F>
std::string Join(const std::vector<T>& items, F format) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += format(items[i]);
  }
  return out + "]";
}

template <typename T, typename F>
std::string Object(const std::map<std::string, T>& items, F format) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : items) {
    if (!first) out += ",";
    first = false;
    out += Quote(key) + ":" + format(value);
  }
  return out + "}";
}

}  // namespace detail

inline std::string Record::ToJson() const {
  using namespace detail;
  auto numbers = [](const std::vector<double>& v) { return Join(v, Number); };
  auto strings = [](const std::vector<std::string>& v) {
    return Join(v, Quote);
  };
  auto span = [](const Span& s) {
    return "{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"name\":" + Quote(s.name) + ",\"start\":" + Number(s.start) +
           ",\"end\":" + Number(s.end) +
           ",\"folded\":" + (s.folded ? "true" : "false") + "}";
  };
  return "{\"env\":" + Object(env, Quote) +
         ",\"samples\":" + Object(samples, numbers) +
         ",\"values\":" + Object(values, Number) +
         ",\"digest_groups\":" + Object(digest_groups, strings) +
         ",\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) +
         ",\"errors\":" + strings(errors) + ",\"spans\":" + Join(spans, span) +
         "}";
}

}  // namespace perfbench

#endif  // PERFBENCH_RECORD_H_
