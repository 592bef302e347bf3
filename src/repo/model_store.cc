#include "repo/model_store.h"

#include <utility>

#include "common/fault.h"
#include "repo/csv.h"

namespace capplan::repo {

void ModelRepository::Put(const StoredModel& model) {
  models_[model.key] = model;
}

void ModelRepository::Promote(StoredModel model) {
  auto it = models_.find(model.key);
  if (model.generation <= 0) {
    model.generation = it == models_.end() ? 1 : it->second.generation + 1;
  }
  if (it != models_.end()) {
    previous_[model.key] = it->second;
  }
  models_[model.key] = std::move(model);
}

void ModelRepository::Reinstate(const StoredModel& model) {
  models_[model.key] = model;
  previous_.erase(model.key);
}

bool ModelRepository::HasPrevious(const std::string& key) const {
  return previous_.count(key) > 0;
}

Result<StoredModel> ModelRepository::GetPrevious(const std::string& key) const {
  auto it = previous_.find(key);
  if (it == previous_.end()) {
    return Status::NotFound("ModelRepository: no rollback lineage for " + key);
  }
  return it->second;
}

void ModelRepository::UpdateLiveMape(const std::string& key, double live_mape) {
  auto it = models_.find(key);
  if (it != models_.end()) it->second.live_mape = live_mape;
}

Result<StoredModel> ModelRepository::Get(const std::string& key) const {
  auto it = models_.find(key);
  if (it == models_.end()) {
    return Status::NotFound("ModelRepository: no model for " + key);
  }
  return it->second;
}

bool ModelRepository::Contains(const std::string& key) const {
  return models_.count(key) > 0;
}

std::vector<std::string> ModelRepository::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(models_.size());
  for (const auto& [k, _] : models_) keys.push_back(k);
  return keys;
}

bool ModelRepository::IsStale(const std::string& key, std::int64_t now_epoch,
                              double current_rmse) const {
  auto it = models_.find(key);
  if (it == models_.end()) return true;
  if (now_epoch - it->second.fitted_at_epoch > policy_.max_age_seconds) {
    return true;
  }
  return IsDegraded(key, current_rmse);
}

bool ModelRepository::IsDegraded(const std::string& key,
                                 double current_rmse) const {
  auto it = models_.find(key);
  if (it == models_.end() || current_rmse < 0.0) return false;
  const StoredModel& m = it->second;
  return m.test_rmse > 0.0 &&
         current_rmse > policy_.rmse_degradation_factor * m.test_rmse;
}

bool IsKnownTechnique(const std::string& technique) {
  return technique == "ARIMA" || technique == "SARIMAX" ||
         technique == "SARIMAX_FFT_EXOG" || technique == "HES" ||
         technique == "TBATS" || technique == "BASELINE" ||
         technique == "AUTO";
}

Status ModelRepository::Save(const std::string& path) const {
  CAPPLAN_RETURN_NOT_OK(FaultHit("model_store.save"));
  return WriteRows(path,
                   {"key", "technique", "spec", "test_rmse", "test_mape",
                    "fitted_at_epoch", "ar_coef", "ma_coef", "generation",
                    "promoted_at_epoch", "live_mape", "periods"},
                   models_, [](FieldWriter& fields, const auto& entry) {
                     fields(entry.second);
                   });
}

Status ModelRepository::Load(const std::string& path, LoadReport* report) {
  CAPPLAN_ASSIGN_OR_RETURN(CsvTable table, ReadCsv(path));
  if (!KnownArity<StoredModel>(table.header.size())) {
    return Status::IoError("ModelRepository::Load: unexpected column count");
  }
  // Errors are per row: a malformed or unknown-technique row is reported
  // and skipped, and the load carries on.
  for (const auto& row : table.rows) {
    Result<StoredModel> model =
        row.size() == table.header.size()
            ? DecodeFields<StoredModel>(row)
            : Status::IoError("malformed row (" + std::to_string(row.size()) +
                              " columns)");
    if (model.ok() && !IsKnownTechnique(model->technique)) {
      model = Status::IoError("unknown technique '" + model->technique + "'");
    }
    if (!model.ok()) {
      if (report != nullptr) {
        report->row_errors.push_back(model.status().ToString() +
                                     (row.empty() ? "" : " for key " + row[0]));
      }
      continue;
    }
    models_[model->key] = std::move(*model);
    if (report != nullptr) ++report->loaded;
  }
  return Status::OK();
}

}  // namespace capplan::repo
