// Result emitters: CSV, JSON, and the bench-style text table.
//
// Both structured formats are fully deterministic: rows follow task /
// summary order (itself fixed by grid expansion), map-valued fields are
// emitted in key order, and doubles are printed with a fixed shortest
// round-trip format — so two sweeps with identical results emit
// byte-identical files regardless of thread count.  Schemas are
// documented in ENGINE.md.
//
// Every batch writer is built from the per-row functions below, which
// the streaming writers reuse verbatim — a streamed document and a
// batch document over the same results are byte-identical by
// construction, not by test alone.

#pragma once

#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "engine/report.h"

namespace anc::engine {

/// Schema identifier embedded in every emitted sweep artifact (the JSON
/// document's "schema" field and a leading `#schema=` comment line on
/// both CSVs).  v4 = v3 plus the fault-isolation surface: a `status`
/// column on task rows (`ok` / `error` / `skipped`, with the error
/// message as an extra JSON field on errored rows) and an `errors`
/// count on point rows.  Readers of v3 may treat the new fields as
/// `ok` / 0.
inline constexpr const char* sweep_schema = "anc.sweep.v4";

// ---- per-row building blocks (streaming emission) ---------------------

/// The tasks-CSV preamble: `#schema=` comment line plus the header row.
void write_tasks_csv_header(std::ostream& out);

/// One tasks-CSV data row.
void write_task_csv_row(std::ostream& out, const Task_result& result);

/// One element of the JSON document's "tasks" array (no separators).
void write_task_json(std::ostream& out, const Task_result& result);

/// One element of the JSON document's "points" array (no separators).
void write_point_json(std::ostream& out, const Point_summary& summary);

/// Streams the anc.sweep JSON document row by row: the constructor
/// writes the prefix, add() appends one task row as it completes, and
/// finish() closes the tasks array and writes the points.  Memory is
/// O(1) in the task count — the `anc_sweep --stream` sink.
class Json_stream_writer {
public:
    explicit Json_stream_writer(std::ostream& out);
    void add(const Task_result& result);
    void finish(const std::vector<Point_summary>& summaries);

private:
    std::ostream& out_;
    bool first_ = true;
};

/// Streams the per-task CSV: header on construction, one row per add().
class Tasks_csv_stream_writer {
public:
    explicit Tasks_csv_stream_writer(std::ostream& out);
    void add(const Task_result& result);

private:
    std::ostream& out_;
};

// ---- batch writers ----------------------------------------------------

/// One CSV row per task (the raw sweep), header included.
void write_tasks_csv(std::ostream& out, const std::vector<Task_result>& results);

/// One CSV row per grid point (the aggregate), header included.
void write_summary_csv(std::ostream& out, const std::vector<Point_summary>& summaries);

/// A single JSON document: {"tasks": [...], "points": [...]}.
void write_json(std::ostream& out, const std::vector<Task_result>& results,
                const std::vector<Point_summary>& summaries);

/// The JSON document as a string (convenient for byte-identity checks).
std::string to_json(const std::vector<Task_result>& results,
                    const std::vector<Point_summary>& summaries);

/// Bench-style aggregate table on a stdio stream.
void print_summary_table(std::FILE* out, const std::vector<Point_summary>& summaries);

} // namespace anc::engine
