#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

#include "common/metrics.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
                    index * 0x94d049bb133111ebULL + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  return lcn::metrics::sample_quantile(std::move(values), q);
}

std::string exact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", value);
  return buf;
}

namespace {
thread_local std::uint64_t t_current = 0;
std::atomic<std::uint64_t> g_next_id{1};
}  // namespace

std::uint64_t Spans::current() { return t_current; }

Spans::Scope::Scope(Spans& spans, const char* name, std::uint64_t parent)
    : spans_(spans) {
  if (!spans_.enabled_) return;
  id_ = g_next_id.fetch_add(1);
  saved_current_ = t_current;
  Record record;
  record.id = id_;
  record.parent = parent != 0 ? parent : t_current;
  record.name = name;
  record.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  record.start = since(spans_.epoch_);
  {
    const std::lock_guard<std::mutex> lock(spans_.mutex_);
    index_ = spans_.records_.size();
    spans_.records_.push_back(std::move(record));
  }
  t_current = id_;
}

Spans::Scope::~Scope() {
  if (id_ == 0) return;
  const double end = since(spans_.epoch_);
  {
    const std::lock_guard<std::mutex> lock(spans_.mutex_);
    spans_.records_[index_].end = end;
  }
  t_current = saved_current_;
}

std::string Spans::jsonl() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  char buf[256];
  for (const Record& r : records_) {
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"thread\":%zu,"
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent), r.name.c_str(),
                  r.thread, r.start * 1e6, r.end * 1e6);
    out += buf;
  }
  return out;
}

std::vector<std::pair<std::string, Spans::Rollup>> Spans::rollup() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Record& r : records_) {
    if (r.parent != 0) children[r.parent].emplace_back(r.start, r.end);
  }
  std::vector<std::pair<std::string, Rollup>> out;
  for (const Record& r : records_) {
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& e) { return e.first == r.name; });
    if (it == out.end()) {
      out.emplace_back(r.name, Rollup{});
      it = out.end() - 1;
    }
    const double total = r.end - r.start;
    // Children may overlap (concurrent client threads): subtract the union
    // of their intervals, clipped to the parent.
    double covered = 0.0;
    auto found = children.find(r.id);
    if (found != children.end()) {
      auto spans = found->second;
      std::sort(spans.begin(), spans.end());
      double lo = r.start;
      for (const auto& [s, e] : spans) {
        const double a = std::max(s, lo);
        const double b = std::min(e, r.end);
        if (b > a) {
          covered += b - a;
          lo = b;
        }
      }
    }
    it->second.count += 1;
    it->second.total_ms += total * 1e3;
    it->second.self_ms += (total - covered) * 1e3;
  }
  return out;
}

}  // namespace perfbench
