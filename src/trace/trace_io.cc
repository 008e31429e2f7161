#include "trace/trace_io.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "util/error.h"
#include "util/strings.h"

namespace ccdn {

namespace {
const char* const kHeader[] = {"user", "timestamp", "video", "lat", "lon"};

[[noreturn]] void fail_row(std::size_t line, const std::string& what) {
  throw ParseError("trace CSV line " + std::to_string(line) + ": " + what);
}

/// A user or video id: a non-negative integer that fits 32 bits (a plain
/// cast would turn -1 into 4294967295).
std::uint32_t parse_id(const std::string& text, const char* field) {
  const std::int64_t value = parse_int(text);
  if (value < 0 || value > std::numeric_limits<std::uint32_t>::max()) {
    throw ParseError(std::string(field) + " id out of range: '" + text + "'");
  }
  return static_cast<std::uint32_t>(value);
}

/// A finite coordinate within [-limit, limit] degrees. from_chars accepts
/// "nan" and "inf", which would reach the spatial index as NaN cells.
double parse_coordinate(const std::string& text, const char* field,
                        double limit) {
  const double value = parse_double(text);
  if (!std::isfinite(value) || value < -limit || value > limit) {
    throw ParseError(std::string(field) + " out of range: '" + text + "'");
  }
  return value;
}
}  // namespace

// --- TraceWriter -----------------------------------------------------------

TraceWriter::TraceWriter(std::ostream& out) : out_(&out), writer_(*out_) {
  writer_.row(kHeader[0], kHeader[1], kHeader[2], kHeader[3], kHeader[4]);
}

TraceWriter::TraceWriter(const std::string& path)
    : owned_(path), out_(&owned_), writer_(*out_) {
  if (!owned_) throw Error("cannot open for writing: " + path);
  writer_.row(kHeader[0], kHeader[1], kHeader[2], kHeader[3], kHeader[4]);
}

void TraceWriter::append(std::span<const Request> batch) {
  for (const Request& r : batch) {
    writer_.row(std::uint64_t{r.user}, r.timestamp, std::uint64_t{r.video},
                r.location.lat, r.location.lon);
  }
  rows_ += batch.size();
  // One flush per batch: the caller controls durability granularity and
  // nothing accumulates in user-space buffers between batches.
  out_->flush();
}

void write_trace_csv(std::ostream& out, const std::vector<Request>& requests) {
  TraceWriter writer(out);
  writer.append(requests);
}

void write_trace_csv(const std::string& path,
                     const std::vector<Request>& requests) {
  TraceWriter writer(path);
  writer.append(requests);
}

// --- TraceReader -----------------------------------------------------------

TraceReader::TraceReader(std::istream& in) : in_(&in), reader_(*in_) {
  read_header();
}

TraceReader::TraceReader(const std::string& path)
    : owned_(path), in_(&owned_), reader_(*in_) {
  if (!owned_) throw Error("cannot open for reading: " + path);
  read_header();
}

void TraceReader::read_header() {
  line_ = 1;
  if (!reader_.read_row(fields_) || fields_.size() != 5 ||
      fields_[0] != kHeader[0]) {
    throw ParseError("trace CSV: missing or malformed header");
  }
}

std::optional<Request> TraceReader::next() {
  if (!reader_.read_row(fields_)) return std::nullopt;
  ++line_;
  if (fields_.size() != 5) {
    fail_row(line_, "expected 5 fields, got " +
                        std::to_string(fields_.size()));
  }
  Request r;
  try {
    r.user = parse_id(fields_[0], "user");
    r.timestamp = parse_int(fields_[1]);
    r.video = parse_id(fields_[2], "video");
    r.location.lat = parse_coordinate(fields_[3], "latitude", 90.0);
    r.location.lon = parse_coordinate(fields_[4], "longitude", 180.0);
  } catch (const ParseError& error) {
    fail_row(line_, error.what());
  }
  ++rows_;
  return r;
}

std::vector<Request> read_trace_csv(std::istream& in) {
  TraceReader reader(in);
  std::vector<Request> requests;
  while (auto request = reader.next()) requests.push_back(*request);
  return requests;
}

std::vector<Request> read_trace_csv(const std::string& path) {
  TraceReader reader(path);
  std::vector<Request> requests;
  while (auto request = reader.next()) requests.push_back(*request);
  return requests;
}

}  // namespace ccdn
