#pragma once

namespace topo::util {

/// Severity of a structured log entry (obs::EventLog), lowest first;
/// kOff as a threshold suppresses everything.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

}  // namespace topo::util
