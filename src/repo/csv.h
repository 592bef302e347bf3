#ifndef CAPPLAN_REPO_CSV_H_
#define CAPPLAN_REPO_CSV_H_

#include <string>
#include <utility>
#include <vector>

#include "common/fields.h"
#include "common/result.h"
#include "tsa/timeseries.h"

namespace capplan::repo {

// Minimal CSV support for persisting traces and results. Values are written
// with full double precision; NaN round-trips as the literal "nan".

struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

// Writes `table` to `path`, overwriting. Fields containing commas, quotes
// or newlines are quoted.
Status WriteCsv(const std::string& path, const CsvTable& table);

// Reads a CSV written by WriteCsv (handles quoted fields).
Result<CsvTable> ReadCsv(const std::string& path);

// Tables of records with a Fields() layout (common/fields.h), one row per
// record. Reading checks the header's arity and fails on the first row that
// does not decode.
template <class Row>
Status WriteRows(const std::string& path, std::vector<std::string> header,
                 const std::vector<Row>& rows) {
  CsvTable table;
  table.header = std::move(header);
  table.rows.reserve(rows.size());
  for (const Row& row : rows) table.rows.push_back(EncodeFields(row));
  return WriteCsv(path, table);
}

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
