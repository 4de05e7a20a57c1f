// Machine-readable sweep output: JSONL (one object per trial) and CSV.
//
// Rows are emitted in trial-id order and doubles are printed with "%.17g",
// so serial and parallel executions of the same spec serialize to identical
// bytes (the regression test in tests/exp_test.cc relies on this).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/sweep.h"

namespace atcsim::exp {

/// One JSONL row: trial config + metrics, e.g.
///   {"trial":0,"app":"lu","class":"B","approach":"CR","nodes":2,...,
///    "metrics":{"spin_s":0.0012,...}}
std::string jsonl_row(const Trial& trial, const TrialResult& result);

/// Writes every trial of the spec, ordered by trial id; `results[i]` must be
/// the result of trial id i (what run_sweep returns).
void write_jsonl(std::ostream& os, const SweepSpec& spec,
                 const std::vector<TrialResult>& results);
void write_csv(std::ostream& os, const SweepSpec& spec,
               const std::vector<TrialResult>& results);

/// File variants; return false (and leave a partial file) on I/O failure.
bool write_jsonl_file(const std::string& path, const SweepSpec& spec,
                      const std::vector<TrialResult>& results);
bool write_csv_file(const std::string& path, const SweepSpec& spec,
                    const std::vector<TrialResult>& results);

/// If $ATCSIM_RESULTS_DIR is set and non-empty, writes
/// `<dir>/<spec.name>.jsonl` and `<dir>/<spec.name>.csv` (creating `dir`)
/// and logs the paths to stderr.  No-op otherwise.  The sweep benches call
/// this so a figure run can leave structured data behind.
void emit_results_env(const SweepSpec& spec,
                      const std::vector<TrialResult>& results);

}  // namespace atcsim::exp
