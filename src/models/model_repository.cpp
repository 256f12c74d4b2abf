#include "models/model_repository.hpp"

#include "util/check.hpp"

namespace diffserve::models {

const std::string& CascadeSpec::stage_model(std::size_t s) const {
  DS_REQUIRE(s < chain.size(), "stage index outside the cascade chain");
  return chain[s];
}

const std::string& CascadeSpec::boundary_discriminator(std::size_t b) const {
  DS_REQUIRE(b < discriminators.size(),
             "boundary index outside the cascade chain");
  return discriminators[b];
}

ModelRepository ModelRepository::with_paper_catalog() {
  ModelRepository repo;

  // Diffusion variants; base latencies are the paper's A100-80GB
  // measurements (§4.1). quality_tier orders generators by fidelity and is
  // consumed by the synthetic quality model.
  repo.register_model({catalog::kSdxs, ModelKind::kDiffusion,
                       LatencyProfile::affine(0.05), /*quality_tier=*/1,
                       /*resolution=*/512});
  repo.register_model({catalog::kSdTurbo, ModelKind::kDiffusion,
                       LatencyProfile::affine(0.10), /*quality_tier=*/2,
                       /*resolution=*/512});
  repo.register_model({catalog::kSdV15, ModelKind::kDiffusion,
                       LatencyProfile::affine(1.78), /*quality_tier=*/5,
                       /*resolution=*/512});
  repo.register_model({catalog::kSdxlLightning, ModelKind::kDiffusion,
                       LatencyProfile::affine(0.50), /*quality_tier=*/3,
                       /*resolution=*/1024});
  repo.register_model({catalog::kSdxl, ModelKind::kDiffusion,
                       LatencyProfile::affine(6.0), /*quality_tier=*/6,
                       /*resolution=*/1024});

  // Discriminator backbones (latencies from §4.4: 10 / 2 / 5 ms). Their
  // execution is batch-friendly with negligible overhead.
  repo.register_model({catalog::kEfficientNet, ModelKind::kDiscriminator,
                       LatencyProfile::affine(0.010, 0.1), 0, 512});
  repo.register_model({catalog::kResNet, ModelKind::kDiscriminator,
                       LatencyProfile::affine(0.002, 0.1), 0, 512});
  repo.register_model({catalog::kViT, ModelKind::kDiscriminator,
                       LatencyProfile::affine(0.005, 0.1), 0, 512});

  // The paper's three cascades with their SLOs (§4.1), the three-stage
  // tiny->base->large chain, and the depth-1 solo deployment.
  repo.register_cascade({catalog::kCascade1,
                         {catalog::kSdTurbo, catalog::kSdV15},
                         {catalog::kEfficientNet},
                         5.0});
  repo.register_cascade({catalog::kCascade2,
                         {catalog::kSdxs, catalog::kSdV15},
                         {catalog::kEfficientNet},
                         5.0});
  repo.register_cascade({catalog::kCascade3,
                         {catalog::kSdxlLightning, catalog::kSdxl},
                         {catalog::kEfficientNet},
                         15.0});
  repo.register_cascade({catalog::kChain3,
                         {catalog::kSdxs, catalog::kSdTurbo, catalog::kSdV15},
                         {catalog::kEfficientNet, catalog::kEfficientNet},
                         5.0});
  repo.register_cascade({catalog::kSoloHeavy, {catalog::kSdV15}, {}, 5.0});
  return repo;
}

void ModelRepository::register_model(ModelVariant variant) {
  DS_REQUIRE(!variant.name.empty(), "model needs a name");
  DS_REQUIRE(models_.count(variant.name) == 0,
             "duplicate model registration: " + variant.name);
  models_.emplace(variant.name, std::move(variant));
}

void ModelRepository::register_cascade(CascadeSpec cascade) {
  DS_REQUIRE(!cascade.name.empty(), "cascade needs a name");
  DS_REQUIRE(!cascade.chain.empty(), "cascade needs at least one model");
  if (cascade.discriminators.size() == 1 && cascade.boundary_count() > 1)
    cascade.discriminators.assign(cascade.boundary_count(),
                                  cascade.discriminators.front());
  for (const auto& m : cascade.chain) {
    DS_REQUIRE(has_model(m), "unknown cascade model: " + m);
    DS_REQUIRE(model(m).kind == ModelKind::kDiffusion,
               "cascade stage must be a diffusion model: " + m);
  }
  DS_REQUIRE(cascade.discriminators.size() == cascade.boundary_count(),
             "cascade needs one discriminator per boundary");
  for (const auto& d : cascade.discriminators) {
    DS_REQUIRE(has_model(d), "unknown discriminator: " + d);
    DS_REQUIRE(model(d).kind == ModelKind::kDiscriminator,
               "cascade discriminator must be a discriminator model");
  }
  DS_REQUIRE(cascade.slo_seconds > 0.0, "SLO must be positive");
  DS_REQUIRE(cascades_.count(cascade.name) == 0,
             "duplicate cascade registration: " + cascade.name);
  cascades_.emplace(cascade.name, std::move(cascade));
}

bool ModelRepository::has_model(const std::string& name) const {
  return models_.count(name) > 0;
}

const ModelVariant& ModelRepository::model(const std::string& name) const {
  const auto it = models_.find(name);
  DS_REQUIRE(it != models_.end(), "unknown model: " + name);
  return it->second;
}

const CascadeSpec& ModelRepository::cascade(const std::string& name) const {
  const auto it = cascades_.find(name);
  DS_REQUIRE(it != cascades_.end(), "unknown cascade: " + name);
  return it->second;
}

std::vector<std::string> ModelRepository::model_names() const {
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [n, _] : models_) names.push_back(n);
  return names;
}

std::vector<std::string> ModelRepository::cascade_names() const {
  std::vector<std::string> names;
  names.reserve(cascades_.size());
  for (const auto& [n, _] : cascades_) names.push_back(n);
  return names;
}

}  // namespace diffserve::models
