#include "nn/dense.hpp"

#include <cmath>

#include "util/check.hpp"

namespace diffserve::nn {

Dense::Dense(std::size_t in_dim, std::size_t out_dim, Activation act,
             util::Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      act_(act),
      w_(out_dim, in_dim),
      b_(out_dim, 0.0),
      gw_(out_dim, in_dim),
      gb_(out_dim, 0.0),
      mw_(out_dim, in_dim),
      vw_(out_dim, in_dim),
      mb_(out_dim, 0.0),
      vb_(out_dim, 0.0) {
  DS_REQUIRE(in_dim > 0 && out_dim > 0, "zero-sized dense layer");
  const double scale = std::sqrt(2.0 / static_cast<double>(in_dim));
  for (std::size_t r = 0; r < out_dim; ++r)
    for (std::size_t c = 0; c < in_dim; ++c) w_(r, c) = rng.normal(0.0, scale);
}

std::vector<double> Dense::forward(const std::vector<double>& x) {
  DS_REQUIRE(x.size() == in_dim_, "input dimension mismatch");
  last_input_ = x;
  last_pre_act_.assign(out_dim_, 0.0);
  for (std::size_t r = 0; r < out_dim_; ++r) {
    const double* w = &w_(r, 0);
    double s = b_[r];
    for (std::size_t c = 0; c < in_dim_; ++c) s += w[c] * x[c];
    last_pre_act_[r] = s;
  }
  std::vector<double> out = last_pre_act_;
  if (act_ == Activation::kRelu)
    for (auto& v : out) v = v > 0.0 ? v : 0.0;
  return out;
}

std::vector<double> Dense::infer(const std::vector<double>& x) const {
  DS_REQUIRE(x.size() == in_dim_, "input dimension mismatch");
  std::vector<double> out(out_dim_, 0.0);
  for (std::size_t r = 0; r < out_dim_; ++r) {
    const double* w = w_.data().data() + r * in_dim_;
    double s = b_[r];
    for (std::size_t c = 0; c < in_dim_; ++c) s += w[c] * x[c];
    out[r] = s;
  }
  if (act_ == Activation::kRelu)
    for (auto& v : out) v = v > 0.0 ? v : 0.0;
  return out;
}

std::vector<double> Dense::backward(const std::vector<double>& grad_out) {
  DS_REQUIRE(grad_out.size() == out_dim_, "gradient dimension mismatch");
  DS_CHECK(last_input_.size() == in_dim_, "backward without forward");
  std::vector<double> dz = grad_out;
  if (act_ == Activation::kRelu)
    for (std::size_t r = 0; r < out_dim_; ++r)
      if (last_pre_act_[r] <= 0.0) dz[r] = 0.0;

  std::vector<double> grad_in(in_dim_, 0.0);
  for (std::size_t r = 0; r < out_dim_; ++r) {
    gb_[r] += dz[r];
    double* gw = &gw_(r, 0);
    const double* w = &w_(r, 0);
    for (std::size_t c = 0; c < in_dim_; ++c) {
      gw[c] += dz[r] * last_input_[c];
      grad_in[c] += dz[r] * w[c];
    }
  }
  return grad_in;
}

void Dense::zero_grad() {
  gw_ = linalg::Matrix(out_dim_, in_dim_);
  std::fill(gb_.begin(), gb_.end(), 0.0);
}

void Dense::adam_step(const AdamConfig& cfg, std::size_t batch_size) {
  DS_REQUIRE(batch_size > 0, "empty batch");
  ++adam_t_;
  const double inv_b = 1.0 / static_cast<double>(batch_size);
  const double bc1 = 1.0 - std::pow(cfg.beta1, static_cast<double>(adam_t_));
  const double bc2 = 1.0 - std::pow(cfg.beta2, static_cast<double>(adam_t_));
  for (std::size_t r = 0; r < out_dim_; ++r) {
    const double* gw = &gw_(r, 0);
    double* mw = &mw_(r, 0);
    double* vw = &vw_(r, 0);
    double* w = &w_(r, 0);
    for (std::size_t c = 0; c < in_dim_; ++c) {
      const double g = gw[c] * inv_b;
      mw[c] = cfg.beta1 * mw[c] + (1.0 - cfg.beta1) * g;
      vw[c] = cfg.beta2 * vw[c] + (1.0 - cfg.beta2) * g * g;
      w[c] -= cfg.lr * (mw[c] / bc1) / (std::sqrt(vw[c] / bc2) + cfg.eps);
    }
    const double g = gb_[r] * inv_b;
    mb_[r] = cfg.beta1 * mb_[r] + (1.0 - cfg.beta1) * g;
    vb_[r] = cfg.beta2 * vb_[r] + (1.0 - cfg.beta2) * g * g;
    b_[r] -= cfg.lr * (mb_[r] / bc1) / (std::sqrt(vb_[r] / bc2) + cfg.eps);
  }
}

std::size_t Dense::parameter_count() const {
  return out_dim_ * in_dim_ + out_dim_;
}

}  // namespace diffserve::nn
