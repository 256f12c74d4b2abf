// Model variant registry and the paper's cascade definitions.
//
// "The Model Repository manages the registration of diffusion model
// variants and hosts these registered variants, along with the
// discriminators used to cascade between them" (§3.1). The built-in
// catalog carries the paper's measured A100 latencies:
//   SD-Turbo 0.1 s, SDv1.5 1.78 s, SDXS 0.05 s, SDXL-Lightning 0.5 s,
//   SDXL 6 s; discriminators EfficientNet 10 ms, ResNet 2 ms, ViT 5 ms.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "models/latency_profile.hpp"

namespace diffserve::models {

enum class ModelKind { kDiffusion, kDiscriminator };

struct ModelVariant {
  std::string name;
  ModelKind kind = ModelKind::kDiffusion;
  LatencyProfile latency;
  /// Quality tier consumed by the quality model: larger means a heavier,
  /// higher-fidelity generator (0 reserved for discriminators).
  int quality_tier = 0;
  /// Output resolution (512 or 1024 in the paper); informational.
  int resolution = 512;
};

/// An ordered diffusion model chain (lightest first) plus the per-boundary
/// discriminators that gate deferral between adjacent stages, and the SLO —
/// the unit the serving system deploys. `register_cascade` replicates a
/// single `discriminators` entry across every boundary.
struct CascadeSpec {
  std::string name;
  /// Full stage list, lightest first (1..N models).
  std::vector<std::string> chain;
  /// Discriminator per boundary (boundary i gates stage i -> i+1).
  std::vector<std::string> discriminators;
  double slo_seconds = 5.0;

  std::size_t stage_count() const { return chain.size(); }
  std::size_t boundary_count() const { return stage_count() - 1; }
  /// Model name of stage s.
  const std::string& stage_model(std::size_t s) const;
  /// Discriminator gating stage b -> b+1.
  const std::string& boundary_discriminator(std::size_t b) const;
};

class ModelRepository {
 public:
  /// Empty repository (register your own variants).
  ModelRepository() = default;

  /// Repository preloaded with the paper's five diffusion variants, three
  /// discriminator backbones, and Cascades 1-3.
  static ModelRepository with_paper_catalog();

  void register_model(ModelVariant variant);
  void register_cascade(CascadeSpec cascade);

  bool has_model(const std::string& name) const;
  const ModelVariant& model(const std::string& name) const;
  const CascadeSpec& cascade(const std::string& name) const;
  std::vector<std::string> model_names() const;
  std::vector<std::string> cascade_names() const;

 private:
  std::unordered_map<std::string, ModelVariant> models_;
  std::unordered_map<std::string, CascadeSpec> cascades_;
};

/// Names used by the built-in catalog.
namespace catalog {
inline constexpr const char* kSdTurbo = "sd-turbo";
inline constexpr const char* kSdV15 = "sd-v1.5";
inline constexpr const char* kSdxs = "sdxs";
inline constexpr const char* kSdxlLightning = "sdxl-lightning";
inline constexpr const char* kSdxl = "sdxl";
inline constexpr const char* kEfficientNet = "efficientnet-v2";
inline constexpr const char* kResNet = "resnet-34";
inline constexpr const char* kViT = "vit-b16";
inline constexpr const char* kCascade1 = "cascade1-sdturbo-sdv15";
inline constexpr const char* kCascade2 = "cascade2-sdxs-sdv15";
inline constexpr const char* kCascade3 = "cascade3-sdxlltn-sdxl";
/// Three-stage chain: SDXS (tiny) -> SD-Turbo (base) -> SDv1.5 (large),
/// with a discriminator at each boundary.
inline constexpr const char* kChain3 = "chain3-sdxs-sdturbo-sdv15";
/// Single-model "chain" (no cascading) — the depth-1 end of the Figure 10
/// depth sweep.
inline constexpr const char* kSoloHeavy = "solo-sdv15";
}  // namespace catalog

}  // namespace diffserve::models
