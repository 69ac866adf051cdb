#include "src/core/q_table.h"

#include <cmath>
#include <cstdio>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace floatfl {

QTable::QTable(size_t num_states, size_t num_actions, Rng& rng, double init_scale)
    : num_states_(num_states),
      num_actions_(num_actions),
      q_(num_states * num_actions, 0.0),
      visits_(num_states * num_actions, 0) {
  FLOATFL_CHECK(num_states > 0 && num_actions > 0);
  if (init_scale > 0.0) {
    for (auto& v : q_) {
      v = rng.Uniform(0.0, init_scale);
    }
  }
}

size_t QTable::Index(size_t state, size_t action) const {
  FLOATFL_CHECK(state < num_states_ && action < num_actions_);
  return state * num_actions_ + action;
}

double QTable::Q(size_t state, size_t action) const { return q_[Index(state, action)]; }

void QTable::SetQ(size_t state, size_t action, double value) {
  // A single NaN/Inf here would spread through MaxQ/BestAction into every
  // future Bellman update; callers must reject bad rewards at their own
  // boundary (RlhfAgent does), so a non-finite value reaching the table is a
  // programming error, not data.
  FLOATFL_CHECK_MSG(std::isfinite(value), "QTable::SetQ value must be finite");
  q_[Index(state, action)] = value;
}

uint32_t QTable::Visits(size_t state, size_t action) const { return visits_[Index(state, action)]; }

void QTable::AddVisit(size_t state, size_t action) { ++visits_[Index(state, action)]; }

size_t QTable::BestAction(size_t state) const {
  size_t best = 0;
  for (size_t a = 1; a < num_actions_; ++a) {
    if (Q(state, a) > Q(state, best)) {
      best = a;
    }
  }
  return best;
}

double QTable::MaxQ(size_t state) const { return Q(state, BestAction(state)); }

size_t QTable::LeastVisitedAction(size_t state) const {
  size_t least = 0;
  for (size_t a = 1; a < num_actions_; ++a) {
    if (Visits(state, a) < Visits(state, least)) {
      least = a;
    }
  }
  return least;
}

size_t QTable::MemoryBytes() const {
  return q_.size() * sizeof(double) + visits_.size() * sizeof(uint32_t);
}

void QTable::InitializeFrom(const QTable& pretrained) {
  FLOATFL_CHECK(pretrained.num_states_ == num_states_);
  FLOATFL_CHECK(pretrained.num_actions_ == num_actions_);
  q_ = pretrained.q_;
  visits_.assign(visits_.size(), 0);
}

bool QTable::Save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "%zu %zu\n", num_states_, num_actions_);
  for (size_t i = 0; i < q_.size(); ++i) {
    std::fprintf(f, "%.17g %u\n", q_[i], visits_[i]);
  }
  std::fclose(f);
  return true;
}

bool QTable::Load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return false;
  }
  size_t states = 0;
  size_t actions = 0;
  if (std::fscanf(f, "%zu %zu", &states, &actions) != 2 || states != num_states_ ||
      actions != num_actions_) {
    std::fclose(f);
    return false;
  }
  for (size_t i = 0; i < q_.size(); ++i) {
    double q = 0.0;
    uint32_t v = 0;
    if (std::fscanf(f, "%lg %u", &q, &v) != 2) {
      std::fclose(f);
      return false;
    }
    q_[i] = q;
    visits_[i] = v;
  }
  std::fclose(f);
  return true;
}

}  // namespace floatfl
