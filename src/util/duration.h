#pragma once

#include <string>

#include "util/time.h"

namespace laps::util {

/// Parses a duration literal with an optional `ns`/`us`/`ms`/`s` suffix into
/// integer nanoseconds; bare numbers are nanoseconds. Fractional values are
/// allowed and rounded to the nearest tick ("1.5us" -> 1500).
///
/// This is the one duration grammar in the tree: the scheduler registry's
/// `idle_th=5us`-style parameters, the harness `--telemetry=interval` flag
/// and the `--faults` plan's times all delegate here, so a literal that
/// works in one place works in all of them (parity pinned by
/// tests/registry_test.cpp).
///
/// On failure throws std::invalid_argument with a message prefixed by
/// `context` (e.g. "scheduler 'laps': parameter 'idle_th'" or
/// "--telemetry"):
///
///   "<context> wants a number, got '<digits>'"          (unparseable number)
///   "<context> wants a non-negative duration, got '<value>'"  (negative)
///   "<context> wants a finite duration below 2^63 ns, got '<value>'"
///                                          (inf, nan, or past TimeNs range)
TimeNs parse_duration(const std::string& context, const std::string& value);

}  // namespace laps::util
