#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

int SpanLog::begin(std::string name, int run, int rank, int round) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      {std::move(name), nowSeconds(), 0.0, open_.empty() ? -1 : open_.back(), run, rank, round});
  open_.push_back(id);
  return id;
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].end = nowSeconds();
  // Spans close in LIFO order in a serial replay; tolerate a
  // mismatch by dropping everything opened after `id`.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

bool SpanLog::writeJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const Span& s : spans_)
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, \"parent\": %d, "
                 "\"run\": %d, \"rank\": %d, \"round\": %d}\n",
                 s.name.c_str(), s.start, s.end, s.parent, s.run, s.rank, s.round);
  return std::fclose(f) == 0;
}

std::vector<double> selfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start, hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, double> selfTimeByName(const std::vector<Span>& spans, int run) {
  const std::vector<double> self = selfTimes(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].run != run) continue;
    out[spans[i].parent < 0 ? "unattributed" : spans[i].name] += self[i];
  }
  return out;
}

double tilingError(const std::vector<Span>& spans, int run, double wall) {
  double sum = 0;
  for (const auto& [name, s] : selfTimeByName(spans, run)) sum += s;
  return std::fabs(sum - wall) / wall;
}

}  // namespace perfbench
