#include "serving/system.hpp"

namespace diffserve::serving {

ServingSystem::ServingSystem(
    sim::Simulation& sim, const quality::Workload& workload,
    const models::ModelRepository& repo, const models::CascadeSpec& cascade,
    std::vector<const discriminator::Discriminator*> discs,
    const quality::FidScorer& scorer, SystemConfig cfg)
    : sim_(sim),
      backend_(sim),
      engine_(backend_, workload, repo, cascade, std::move(discs), scorer,
              cfg) {}

void ServingSystem::inject_arrivals(const std::vector<double>& times) {
  // The arrival count bounds the terminal-event count; pre-sizing the
  // sink's record log keeps it from reallocating mid-run.
  engine_.sink_reserve(times.size());
  for (const double t : times)
    sim_.schedule_at(t, [this] { engine_.submit_next(); });
}

}  // namespace diffserve::serving
