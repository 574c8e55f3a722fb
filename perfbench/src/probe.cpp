#include "probe.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

void SpanLog::add(SpanRecord rec) {
  std::lock_guard lock(mu_);
  records_.push_back(std::move(rec));
}

std::vector<SpanRecord> SpanLog::records() const {
  std::lock_guard lock(mu_);
  return records_;
}

double SpanLog::total(const std::string& name, std::uint64_t case_id) const {
  std::lock_guard lock(mu_);
  double sum = 0.0;
  for (const auto& r : records_) {
    if (r.case_id == case_id && r.name == name) sum += r.end - r.start;
  }
  return sum;
}

double SpanLog::covered(std::uint64_t case_id, double from, double to,
                        const std::string& except) const {
  std::vector<std::pair<double, double>> iv;
  {
    std::lock_guard lock(mu_);
    for (const auto& r : records_) {
      if (r.case_id != case_id || r.name == except) continue;
      const double a = std::max(r.start, from);
      const double b = std::min(r.end, to);
      if (b > a) iv.emplace_back(a, b);
    }
  }
  std::sort(iv.begin(), iv.end());
  double sum = 0.0;
  double cur_a = 0.0;
  double cur_b = -1.0;
  for (const auto& [a, b] : iv) {
    if (a > cur_b) {
      if (cur_b > cur_a) sum += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) sum += cur_b - cur_a;
  return sum;
}

std::optional<sickle::field::Snapshot> TimedProducer::next() {
  Span span(log_, "flow.next", case_id_);
  const double t0 = now_s();
  auto snap = inner_->next();
  seconds_ += now_s() - t0;
  if (snap) ++produced_;
  return snap;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& key) {
  const auto a = after.find(key);
  const auto b = before.find(key);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

}  // namespace perfbench
