#include "util/duration.h"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace laps::util {

TimeNs parse_duration(const std::string& context, const std::string& value) {
  // Two-character suffixes first so "5us" is not read as "5u" + "s".
  double scale = 1.0;  // bare numbers are nanoseconds
  std::string digits = value;
  const auto strip = [&digits](const char* suffix, std::size_t len) {
    if (digits.size() > len &&
        digits.compare(digits.size() - len, len, suffix) == 0) {
      digits.resize(digits.size() - len);
      return true;
    }
    return false;
  };
  if (strip("ns", 2)) {
    scale = 1.0;
  } else if (strip("us", 2)) {
    scale = static_cast<double>(kMicrosecond);
  } else if (strip("ms", 2)) {
    scale = static_cast<double>(kMillisecond);
  } else if (strip("s", 1)) {
    scale = static_cast<double>(kSecond);
  }
  double number = 0.0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), number);
  if (ec != std::errc{} || ptr != digits.data() + digits.size()) {
    throw std::invalid_argument(context + " wants a number, got '" + digits +
                                "'");
  }
  if (number < 0) {
    throw std::invalid_argument(context + " wants a non-negative duration, got '" +
                                value + "'");
  }
  // NaN and infinities parse as numbers, and a float-to-integer cast of a
  // value past 2^63 is undefined, so both are refused here.
  const double ticks = number * scale + 0.5;
  if (!std::isfinite(number) || ticks >= 0x1p63) {
    throw std::invalid_argument(
        context + " wants a finite duration below 2^63 ns, got '" + value +
        "'");
  }
  return static_cast<TimeNs>(ticks);
}

}  // namespace laps::util
