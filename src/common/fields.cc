#include "common/fields.h"

#include <algorithm>

namespace capplan {

void FieldWriter::Write(std::string_view v) {
  Separate();
  if (format_ == FieldFormat::kJournal) {
    for (char c : v) {
      out_->push_back(c == '|' || c == '\n' || c == '\r' ? '/' : c);
    }
  } else if (v.find_first_of(",\"\n") == std::string_view::npos) {
    out_->append(v);
  } else {
    out_->push_back('"');
    for (char c : v) {
      if (c == '"') out_->push_back('"');
      out_->push_back(c);
    }
    out_->push_back('"');
  }
}

void FieldWriter::Write(const std::vector<double>& v) {
  Separate();
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out_->push_back(';');
    AppendDouble(out_, v[i]);
  }
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
