#include "src/runner/scenario.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <type_traits>

#include "src/crypto/sha256.h"
#include "src/util/check.h"

namespace optilog {

Params& Params::Set(std::string name, std::string value) {
  for (auto& [k, v] : entries_) {
    if (k == name) {
      v = std::move(value);
      return *this;
    }
  }
  entries_.emplace_back(std::move(name), std::move(value));
  return *this;
}

bool Params::Has(const std::string& name) const {
  for (const auto& [k, v] : entries_) {
    if (k == name) {
      return true;
    }
  }
  return false;
}

const std::string& Params::Get(const std::string& name) const {
  for (const auto& [k, v] : entries_) {
    if (k == name) {
      return v;
    }
  }
  OL_CHECK_MSG(false, name.c_str());
  __builtin_unreachable();
}

int64_t Params::GetInt(const std::string& name) const {
  const std::string& v = Get(name);
  int64_t out = 0;
  const auto res = std::from_chars(v.data(), v.data() + v.size(), out);
  OL_CHECK_MSG(res.ec == std::errc() && res.ptr == v.data() + v.size(),
               name.c_str());
  return out;
}

double Params::GetDouble(const std::string& name) const {
  const std::string& v = Get(name);
  double out = 0;
  const auto res = std::from_chars(v.data(), v.data() + v.size(), out);
  OL_CHECK_MSG(res.ec == std::errc() && res.ptr == v.data() + v.size(),
               name.c_str());
  return out;
}

std::string Params::Label() const {
  std::string out;
  for (const auto& [k, v] : entries_) {
    if (!out.empty()) {
      out.push_back(' ');
    }
    out += k + "=" + v;
  }
  return out;
}

bool Scenario::HasTag(const std::string& tag) const {
  return std::find(tags.begin(), tags.end(), tag) != tags.end();
}

std::vector<Params> EnumeratePoints(const Scenario& s) {
  if (!s.points.empty()) {
    return s.points;
  }
  std::vector<Params> out;
  if (s.grid.empty()) {
    out.emplace_back();  // single unparameterized point
    return out;
  }
  for (const ParamAxis& axis : s.grid) {
    OL_CHECK_MSG(!axis.values.empty(), axis.name.c_str());
  }
  std::vector<size_t> idx(s.grid.size(), 0);
  for (;;) {
    Params p;
    for (size_t a = 0; a < s.grid.size(); ++a) {
      p.Set(s.grid[a].name, s.grid[a].values[idx[a]]);
    }
    out.push_back(std::move(p));
    // Odometer increment, last axis fastest.
    size_t a = s.grid.size();
    while (a > 0) {
      --a;
      if (++idx[a] < s.grid[a].values.size()) {
        break;
      }
      idx[a] = 0;
      if (a == 0) {
        return out;
      }
    }
  }
}

ScenarioRegistry& ScenarioRegistry::Instance() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::Register(Scenario s) {
  OL_CHECK_MSG(!s.name.empty(), "scenario needs a name");
  OL_CHECK_MSG(static_cast<bool>(s.run), s.name.c_str());
  OL_CHECK_MSG(scenarios_.find(s.name) == scenarios_.end(), s.name.c_str());
  scenarios_.emplace(s.name, std::move(s));
}

const Scenario* ScenarioRegistry::Find(const std::string& name) const {
  const auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

std::vector<const Scenario*> ScenarioRegistry::All() const {
  std::vector<const Scenario*> out;
  for (const auto& [name, s] : scenarios_) {
    out.push_back(&s);
  }
  return out;  // std::map iteration is already name-sorted
}

std::vector<const Scenario*> ScenarioRegistry::WithTag(
    const std::string& tag) const {
  std::vector<const Scenario*> out;
  for (const Scenario* s : All()) {
    if (s->HasTag(tag)) {
      out.push_back(s);
    }
  }
  return out;
}

ScenarioRegistrar::ScenarioRegistrar(Scenario s) {
  ScenarioRegistry::Instance().Register(std::move(s));
}

std::string FormatDouble(double v) {
  OL_CHECK_MSG(std::isfinite(v), "rows/metrics must be finite");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

namespace {

// Appends one value as "v|", a list as its items then "|" (gauge series
// excepted: the blob layout the committed digests pin).
template <typename T>
void Put(std::string& out, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    out += v + "|";
  } else if constexpr (std::is_floating_point_v<T>) {
    out += FormatDouble(v) + "|";
  } else if constexpr (std::is_arithmetic_v<T>) {
    out += std::to_string(static_cast<uint64_t>(v)) + "|";
  } else if constexpr (std::is_same_v<T, std::vector<TimeseriesReport::Series>>) {
    for (const TimeseriesReport::Series& s : v) {
      out += s.name + "|";
      for (double x : s.values) {
        Put(out, x);
      }
    }
  } else {
    for (const auto& x : v) {
      Put(out, x);
    }
    out += "|";
  }
}

template <typename R>
struct Fingerprinter {
  const R& r;
  std::string& out;
  uint32_t partitions;
  bool& gated_off;  // after a Gate whose section is off

  template <typename T>
  void operator()(T R::*field, const char*, Emit emit, Agg) {
    if (gated_off || !Fingerprinted(emit, partitions)) {
      return;
    }
    if (emit == Emit::kMultiPartition) {
      out += "par|";
    }
    Put(out, r.*field);
  }
  template <typename Sub>
  void Section(Sub R::*section, Agg) {
    Sub::Schema(Fingerprinter<Sub>{r.*section, out, partitions, gated_off});
  }
  template <typename Sub>
  void Gate(Sub R::*section, const char* tag) {
    gated_off = !(r.*section).enabled;
    Mark(tag);
    Mark("|");
  }
  void Mark(const char* text) {
    if (!gated_off) {
      out += text;
    }
  }
};

}  // namespace

std::string MetricsFingerprint(const MetricsReport& m) {
  std::string blob;
  bool gated_off = false;
  MetricsReport::Schema(Fingerprinter<MetricsReport>{
      m, blob, m.event_core.partitions, gated_off});
  return DigestHex(Sha256::Hash(blob));
}

}  // namespace optilog
