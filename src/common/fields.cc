#include "common/fields.h"

#include <algorithm>
#include <cstdio>

namespace capplan {

namespace {

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void FieldWriter::Write(double v) { fields_.push_back(FormatDouble(v)); }

void FieldWriter::Write(const std::vector<double>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ';';
    out += FormatDouble(v[i]);
  }
  fields_.push_back(std::move(out));
}

const std::string* FieldReader::Next() {
  if (!status_.ok() || pos_ >= fields_.size()) return nullptr;
  return &fields_[pos_++];
}

void FieldReader::Fail(const std::string& what) {
  if (!status_.ok()) return;
  status_ = Status::IoError("bad " + what + " in field " +
                            std::to_string(pos_) + " '" + fields_[pos_ - 1] +
                            "'");
}

void FieldReader::Read(std::string& v) {
  if (const std::string* f = Next()) v = *f;
}

void FieldReader::Read(std::vector<double>& v) {
  const std::string* f = Next();
  if (f == nullptr) return;
  v.clear();
  if (f->empty()) return;
  const std::string_view all(*f);
  for (std::size_t begin = 0;;) {
    const std::size_t end = std::min(all.find(';', begin), all.size());
    double value = 0.0;
    if (!ParseNumber(all.substr(begin, end - begin), &value)) {
      Fail("vector element");
      return;
    }
    v.push_back(value);
    if (end == all.size()) return;
    begin = end + 1;
  }
}

void FieldReader::Read(const Flag& v) {
  const std::string* f = Next();
  if (f == nullptr) return;
  if (*f != v.if_true && *f != v.if_false) {
    Fail("flag");
    return;
  }
  v.value = *f == v.if_true;
}

}  // namespace capplan
