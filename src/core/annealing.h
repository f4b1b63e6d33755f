// Simulated annealing (§4.2.4), after Kirkpatrick et al. [40].
//
// Generic over the configuration type: callers supply score (lower is
// better) and mutate functions. The search ends when the iteration budget —
// the deterministic stand-in for the paper's wall-clock "search timer" — is
// exhausted or the temperature cools below the convergence threshold.
// Deliberately non-deterministic across replicas (each uses its own Rng
// stream); §4.2.4 explains why that is a feature: different replicas explore
// different regions and the log ranks the proposals.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>

#include "src/util/rng.h"

namespace optilog {

struct AnnealingParams {
  uint64_t max_iterations = 20'000;
  double initial_temperature = 1.0;  // relative to the initial score
  double cooling_rate = 0.995;       // geometric cooling per iteration
  double min_temperature = 1e-4;     // convergence threshold

  // Schedule whose temperature decays from initial to min over exactly
  // `iterations` steps — this is what makes a longer search time explore
  // more (Fig. 12); a fixed cooling rate would go greedy early and waste
  // the extra budget.
  static AnnealingParams ForBudget(uint64_t iterations) {
    AnnealingParams p;
    p.max_iterations = iterations;
    p.cooling_rate = std::exp(std::log(p.min_temperature / p.initial_temperature) /
                              static_cast<double>(iterations));
    return p;
  }
};

template <typename State>
struct AnnealingResult {
  State best;
  double best_score = 0.0;
  uint64_t iterations = 0;
  bool converged = false;  // stopped on temperature, not budget
};

// score: State -> double (lower better). neighbor: (const State& current,
// Rng&, State* out) writes a neighbour of `current` into *out; *out is the
// same object every iteration (or a former current), so a neighbour
// function that reuses its buffers makes the loop allocation-free.
template <typename State, typename ScoreFn, typename NeighborFn>
AnnealingResult<State> SimulatedAnnealingInPlace(State initial, ScoreFn&& score,
                                                 NeighborFn&& neighbor, Rng& rng,
                                                 const AnnealingParams& params = {}) {
  AnnealingResult<State> result;
  State current = initial;
  double current_score = score(current);
  result.best = std::move(initial);
  result.best_score = current_score;

  // Temperature is scaled by the initial score so acceptance probabilities
  // are invariant to the score's units (milliseconds vs seconds).
  const double scale = current_score > 0 ? current_score : 1.0;
  double temperature = params.initial_temperature * scale;
  const double floor = params.min_temperature * scale;

  State candidate = current;
  uint64_t iter = 0;
  for (; iter < params.max_iterations; ++iter) {
    if (temperature < floor) {
      result.converged = true;
      break;
    }
    neighbor(current, rng, &candidate);
    const double candidate_score = score(candidate);
    const double delta = candidate_score - current_score;
    if (delta <= 0 || rng.Uniform() < std::exp(-delta / temperature)) {
      std::swap(current, candidate);
      current_score = candidate_score;
      if (current_score < result.best_score) {
        result.best = current;
        result.best_score = current_score;
      }
    }
    temperature *= params.cooling_rate;
  }
  result.iterations = iter;
  return result;
}

// The same search with a value-returning mutate: (const State&, Rng&) -> State.
template <typename State, typename ScoreFn, typename MutateFn>
AnnealingResult<State> SimulatedAnnealing(State initial, ScoreFn&& score,
                                          MutateFn&& mutate, Rng& rng,
                                          const AnnealingParams& params = {}) {
  return SimulatedAnnealingInPlace(
      std::move(initial), score,
      [&](const State& current, Rng& r, State* out) { *out = mutate(current, r); },
      rng, params);
}

}  // namespace optilog
