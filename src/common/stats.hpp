// Stable number formatting for reports and bench tables.
#pragma once

#include <cstdint>
#include <string>

namespace csmt {

/// Format helpers used by the report / bench output paths.
std::string format_count(std::uint64_t v);
std::string format_fixed(double v, int decimals);
std::string format_percent(double fraction, int decimals = 1);

}  // namespace csmt
