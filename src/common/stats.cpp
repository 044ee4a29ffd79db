#include "common/stats.hpp"

#include <cstdio>

namespace csmt {

std::string format_count(std::uint64_t v) {
  // Group digits with commas: 1234567 -> "1,234,567".
  std::string raw = std::to_string(v);
  std::string out;
  out.reserve(raw.size() + raw.size() / 3);
  std::size_t lead = raw.size() % 3;
  if (lead == 0) lead = 3;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (i != 0 && (i + 3 - lead) % 3 == 0) out.push_back(',');
    out.push_back(raw[i]);
  }
  return out;
}

std::string format_fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string format_percent(double fraction, int decimals) {
  return format_fixed(fraction * 100.0, decimals) + "%";
}

}  // namespace csmt
