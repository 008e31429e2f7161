// Trace (de)serialization.
//
// The CSV schema mirrors the paper's session-trace fields: user id, session
// timestamp, requested video, and the watch location.
//
// Besides the whole-trace helpers, this header provides the chunked pair
// the streaming pipeline is built on (DESIGN.md §3.9):
//   * TraceReader — pulls one request at a time without ever holding the
//     file in memory, and names the offending physical line on errors.
//   * TraceWriter — appends request batches and flushes after each one, so
//     a trace larger than memory can be written slot batch by slot batch.
#pragma once

#include <fstream>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "model/types.h"
#include "util/csv.h"

namespace ccdn {

/// Write `requests` as CSV with a header row.
void write_trace_csv(std::ostream& out, const std::vector<Request>& requests);
void write_trace_csv(const std::string& path,
                     const std::vector<Request>& requests);

/// Read a trace written by write_trace_csv. Throws ParseError on schema or
/// field errors (naming the offending line).
[[nodiscard]] std::vector<Request> read_trace_csv(std::istream& in);
[[nodiscard]] std::vector<Request> read_trace_csv(const std::string& path);

/// Incremental trace reader: validates the header on construction, then
/// yields one request per next() call in O(1) memory. ParseError messages
/// carry the 1-based physical line number of the malformed row (the header
/// is line 1). Rows with a negative or over-32-bit user/video id, or with a
/// non-finite or out-of-range latitude/longitude, are malformed. The stream variant borrows `in`, which must outlive the
/// reader; the path variant owns its file handle.
class TraceReader {
 public:
  explicit TraceReader(std::istream& in);
  explicit TraceReader(const std::string& path);

  /// Next request, or nullopt at end of file.
  [[nodiscard]] std::optional<Request> next();

  /// Physical line of the most recently consumed row (1 = header).
  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  /// Data rows successfully parsed so far.
  [[nodiscard]] std::size_t rows_read() const noexcept { return rows_; }

 private:
  void read_header();

  std::ifstream owned_;
  std::istream* in_;
  CsvReader reader_;
  std::vector<std::string> fields_;
  std::size_t line_ = 0;
  std::size_t rows_ = 0;
};

/// Incremental trace writer: emits the header on construction, then writes
/// and flushes one batch per append() call, so peak memory is O(batch)
/// regardless of trace length. The stream variant borrows `out`.
class TraceWriter {
 public:
  explicit TraceWriter(std::ostream& out);
  explicit TraceWriter(const std::string& path);

  /// Write one batch of rows and flush the underlying stream.
  void append(std::span<const Request> batch);

  [[nodiscard]] std::size_t rows_written() const noexcept { return rows_; }

 private:
  std::ofstream owned_;
  std::ostream* out_;
  CsvWriter writer_;
  std::size_t rows_ = 0;
};

}  // namespace ccdn
