#include "repo/csv.h"

#include <cmath>
#include <fstream>

namespace capplan::repo {

namespace {

// Splits one CSV record (already newline-free except inside quotes is not
// supported for simplicity; WriteCsv never emits embedded newlines from this
// library's own data).
std::vector<std::string> SplitRecord(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

}  // namespace

Status WriteCsv(const std::string& path, const CsvTable& table) {
  return WriteRows(path, table.header, table.rows,
                   [](FieldWriter& fields, const std::vector<std::string>& row) {
                     for (const std::string& field : row) fields(field);
                   });
}

Result<CsvTable> ReadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("ReadCsv: cannot open " + path);
  }
  CsvTable table;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') continue;  // comment lines handled by callers
    if (first) {
      table.header = SplitRecord(line);
      first = false;
    } else {
      table.rows.push_back(SplitRecord(line));
    }
  }
  return table;
}

Status WriteSeriesCsv(const std::string& path,
                      const tsa::TimeSeries& series) {
  CAPPLAN_RETURN_NOT_OK(FaultHit("csv.write_series"));
  FileSink sink(path);
  std::string& buffer = sink.buffer();
  buffer += "# ";
  FieldWriter meta(&buffer, FieldFormat::kCsv);
  meta(series.name(), series.start_epoch(),
       static_cast<int>(series.frequency()));
  buffer += "\nepoch,value\n";
  for (std::size_t i = 0; i < series.size(); ++i) {
    AppendInteger(&buffer, series.TimestampAt(i));
    buffer.push_back(',');
    if (std::isnan(series[i])) {
      buffer += "nan";  // the format's one NaN spelling, either sign
    } else {
      AppendDouble(&buffer, series[i]);
    }
    buffer.push_back('\n');
    sink.MaybeFlush();
  }
  return sink.Close();
}

Result<tsa::TimeSeries> ReadSeriesCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("ReadSeriesCsv: cannot open " + path);
  }
  std::string line;
  if (!std::getline(in, line) || line.size() < 3 || line[0] != '#') {
    return Status::IoError("ReadSeriesCsv: missing metadata line");
  }
  const std::vector<std::string> meta = SplitRecord(line.substr(2));
  if (meta.size() != 3) {
    return Status::IoError("ReadSeriesCsv: malformed metadata line");
  }
  std::string name;
  std::int64_t start_epoch = 0;
  tsa::Frequency frequency = tsa::Frequency::kHourly;
  FieldReader reader(meta);
  reader(name, start_epoch, Enum{frequency, tsa::Frequency::kMonthly});
  if (!reader.status().ok()) {
    return Status::IoError("ReadSeriesCsv: metadata line: " +
                           reader.status().message());
  }
  // Skip the column header.
  if (!std::getline(in, line)) {
    return Status::IoError("ReadSeriesCsv: truncated file");
  }
  std::vector<double> values;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = SplitRecord(line);
    if (fields.size() != 2) {
      return Status::IoError("ReadSeriesCsv: malformed data row");
    }
    double value = 0.0;
    if (!ParseNumber(fields[1], &value)) {  // "nan" parses as NaN
      return Status::IoError("ReadSeriesCsv: bad value '" + fields[1] + "'");
    }
    values.push_back(value);
  }
  return tsa::TimeSeries(name, start_epoch, frequency, std::move(values));
}

}  // namespace capplan::repo
