#include "rollup.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "obs/phase.hpp"

namespace twinbench {

namespace {

struct Span {
  int name = 0;
  std::uint32_t tid = 0;
  double begin = 0.0;  ///< seconds
  double end = 0.0;
};

/// Value after `"key": ` on a Chrome trace event line.
bool field(const std::string& line, const char* key, double* out) {
  const std::string k = std::string("\"") + key + "\": ";
  const std::size_t at = line.find(k);
  if (at == std::string::npos) return false;
  *out = std::strtod(line.c_str() + at + k.size(), nullptr);
  return true;
}

bool name_field(const std::string& line, std::string* out) {
  const std::string k = "{\"name\": \"";
  const std::size_t at = line.find(k);
  if (at == std::string::npos) return false;
  const std::size_t from = at + k.size();
  const std::size_t to = line.find('"', from);
  if (to == std::string::npos) return false;
  *out = line.substr(from, to - from);
  return true;
}

using Interval = std::pair<double, double>;

/// Sort and merge into disjoint intervals.
std::vector<Interval> merged(std::vector<Interval> v) {
  std::sort(v.begin(), v.end());
  std::vector<Interval> out;
  for (const Interval& iv : v) {
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

double covered(const std::vector<Interval>& u, double lo, double hi) {
  double s = 0.0;
  auto it = std::lower_bound(
      u.begin(), u.end(), Interval{lo, lo},
      [](const Interval& a, const Interval& b) { return a.second < b.first; });
  for (; it != u.end() && it->first < hi; ++it) {
    s += std::max(0.0, std::min(hi, it->second) - std::max(lo, it->first));
  }
  return s;
}

}  // namespace

double Rollup::self(const std::string& name) const {
  const auto it = self_s.find(name);
  return it == self_s.end() ? 0.0 : it->second;
}

double Rollup::total(const std::string& name) const {
  const auto it = total_s.find(name);
  return it == total_s.end() ? 0.0 : it->second;
}

Rollup roll_up_trace(const std::string& scratch_path, double begin_s,
                     double end_s, const std::string& anchor_name,
                     const std::string& sample_name) {
  {
    std::ofstream f(scratch_path);
    g6::obs::Tracer::global().write_chrome_trace(f);
    if (!f) throw std::runtime_error("cannot write " + scratch_path);
  }
  std::vector<std::string> names;
  std::map<std::string, int> ids;
  std::vector<Span> spans;
  {
    std::ifstream f(scratch_path);
    std::string line, name;
    while (std::getline(f, line)) {
      if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
      double ts = 0.0, dur = 0.0, tid = 0.0;
      if (!name_field(line, &name) || !field(line, "ts", &ts) ||
          !field(line, "dur", &dur) || !field(line, "tid", &tid)) {
        throw std::runtime_error("unreadable trace event: " + line);
      }
      auto [it, fresh] = ids.emplace(name, static_cast<int>(names.size()));
      if (fresh) names.push_back(name);
      spans.push_back({it->second, static_cast<std::uint32_t>(tid),
                       ts * 1e-6, (ts + dur) * 1e-6});
    }
  }
  std::remove(scratch_path.c_str());

  Rollup r;
  r.events = spans.size();
  // Per thread, outermost first at equal start: the nesting order.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.begin != b.begin) return a.begin < b.begin;
    return a.end > b.end;
  });

  std::vector<double> self(spans.size());
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0 && spans[i - 1].tid != s.tid) stack.clear();
    while (!stack.empty() && spans[stack.back()].end <= s.begin) {
      stack.pop_back();
    }
    self[i] = s.end - s.begin;
    if (!stack.empty()) {
      // Timestamps are rounded on export; a child never gets to cover
      // more than its parent's interval.
      const Span& p = spans[stack.back()];
      self[stack.back()] -= std::min(s.end, p.end) - s.begin;
    }
    stack.push_back(i);
  }

  std::map<std::uint32_t, std::size_t> anchor_count;
  std::vector<Interval> job_iv, round_iv;
  const int sample_id = ids.count(sample_name) ? ids[sample_name] : -1;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string& name = names[static_cast<std::size_t>(s.name)];
    r.self_s[name] += std::max(0.0, self[i]);
    r.total_s[name] += s.end - s.begin;
    if (s.name == sample_id) r.samples_s.push_back(s.end - s.begin);
    if (name == anchor_name) ++anchor_count[s.tid];
    if (name == "serve.job") job_iv.emplace_back(s.begin, s.end);
    if (name == "serve.round") round_iv.emplace_back(s.begin, s.end);
  }

  const std::vector<Interval> jobs = merged(job_iv);
  for (const Interval& round : round_iv) {
    r.round_outside_job_s +=
        (round.second - round.first) - covered(jobs, round.first, round.second);
  }

  std::uint32_t anchor = 0;
  std::size_t best = 0;
  for (const auto& [tid, n] : anchor_count) {
    if (n > best) {
      best = n;
      anchor = tid;
    }
  }
  std::vector<Interval> on_anchor;
  for (const Span& s : spans) {
    if (s.tid == anchor) on_anchor.emplace_back(s.begin, s.end);
  }
  const double window = end_s - begin_s;
  if (best > 0 && window > 0.0) {
    r.unattributed_frac =
        1.0 - covered(merged(on_anchor), begin_s, end_s) / window;
  }
  return r;
}

}  // namespace twinbench
