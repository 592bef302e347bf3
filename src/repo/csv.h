#ifndef CAPPLAN_REPO_CSV_H_
#define CAPPLAN_REPO_CSV_H_

#include <string>
#include <vector>

#include "common/fault.h"
#include "common/fields.h"
#include "common/file_sink.h"
#include "common/result.h"
#include "tsa/timeseries.h"

namespace capplan::repo {

// Minimal CSV support for persisting traces and results. Values are written
// with full double precision; NaN round-trips as the literal "nan".

// Writes one CSV file from records with a Fields() layout
// (common/fields.h), streamed straight from the caller's containers: each
// element of `rows` becomes one row through emit(FieldWriter&, element), and
// rows reach the file through FileSink's bounded buffer. Overwrites `path`;
// fault site "csv.write" fails it before the file is created.
template <class Range, class Emit>
Status WriteRows(const std::string& path,
                 const std::vector<std::string>& header, const Range& rows,
                 Emit emit) {
  CAPPLAN_RETURN_NOT_OK(FaultHit("csv.write"));
  FileSink sink(path);
  std::string& buffer = sink.buffer();
  if (!header.empty()) {
    FieldWriter head(&buffer, FieldFormat::kCsv);
    for (const std::string& name : header) head(name);
    buffer.push_back('\n');
  }
  for (const auto& row : rows) {
    FieldWriter fields(&buffer, FieldFormat::kCsv);
    emit(fields, row);
    buffer.push_back('\n');
    sink.MaybeFlush();
  }
  return sink.Close();
}

// One row per record in `rows`.
template <class Range>
Status WriteRows(const std::string& path,
                 const std::vector<std::string>& header, const Range& rows) {
  return WriteRows(path, header, rows,
                   [](FieldWriter& fields, const auto& row) { fields(row); });
}

// A whole table of text fields, for callers that build one.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

// Writes `table` to `path`, overwriting. Fields containing commas, quotes
// or newlines are quoted.
Status WriteCsv(const std::string& path, const CsvTable& table);

// Reads a CSV written by WriteCsv or WriteRows (handles quoted fields).
Result<CsvTable> ReadCsv(const std::string& path);

// Reads rows written by WriteRows. Checks the header's arity and fails on
// the first row that does not decode.
template <class Row>
Result<std::vector<Row>> ReadRows(const std::string& path) {
  CAPPLAN_ASSIGN_OR_RETURN(CsvTable table, ReadCsv(path));
  if (!KnownArity<Row>(table.header.size())) {
    return Status::IoError("unexpected column count in " + path);
  }
  std::vector<Row> rows;
  rows.reserve(table.rows.size());
  for (const auto& fields : table.rows) {
    auto row = DecodeFields<Row>(fields);
    if (!row.ok()) {
      return Status::IoError(path + ": " + row.status().message());
    }
    rows.push_back(std::move(*row));
  }
  return rows;
}

// TimeSeries round-trip: columns epoch,value plus metadata in the header
// comment line "# name,start_epoch,frequency".
Status WriteSeriesCsv(const std::string& path, const tsa::TimeSeries& series);
Result<tsa::TimeSeries> ReadSeriesCsv(const std::string& path);

}  // namespace capplan::repo

#endif  // CAPPLAN_REPO_CSV_H_
