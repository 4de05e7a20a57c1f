// Trace exporters.
//
// Two formats:
//  * compact  — deterministic tab-separated text, one event per line.  The
//    byte-stable format the golden-trace regression tests diff; also the
//    cheapest thing to grep.
//  * chrome   — Chrome tracing / Perfetto JSON ("chrome://tracing", or
//    https://ui.perfetto.dev -> "Open trace file").  VCPU dispatch/leave
//    pairs become duration slices per PCPU track; everything else renders
//    as instant events.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace atcsim::obs {

/// One compact line (no trailing newline):
/// "<time>\t<cat>.<type>\t<node>\t<vm>\t<vcpu>\t<pcpu>\t<a0>\t<a1>".
std::string format_event(const TraceEvent& e);

// A sharded Scenario keeps one TraceSink per shard (node/vm/vcpu ids are
// shard-local); an unsharded one passes its single sink as `{&sink}`.  The
// writers merge the streams into one time-ordered artifact: events are
// stably sorted by timestamp, with the sinks' order in `sinks` (shard
// order) breaking ties — so for a fixed shard map the merged output is
// identical at every worker-thread count, and one sink's output is its own
// (already time-ordered) stream.

/// All sinks' events merged into one time-ordered stream.
std::vector<TraceEvent> merged_events(const std::vector<const TraceSink*>& sinks);

/// Compact text of the merged stream: header, one line per buffered event
/// and a footer with the summed dropped count.
void write_compact(std::ostream& os, const std::vector<const TraceSink*>& sinks);

/// Chrome-tracing JSON object ({"traceEvents":[...]}) of the merged stream.
void write_chrome_json(std::ostream& os,
                       const std::vector<const TraceSink*>& sinks);

/// Writes "<dir>/<stem>.trace" (compact) and "<dir>/<stem>.json" (chrome)
/// of the merged stream, creating `dir` if needed.  Returns false on any
/// I/O failure.
bool write_trace_files(const std::vector<const TraceSink*>& sinks,
                       const std::string& dir, const std::string& stem);

}  // namespace atcsim::obs
